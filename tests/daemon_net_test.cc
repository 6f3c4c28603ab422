// Tests for the daemon's socket transport (src/net/server.h): an
// in-process DaemonServer on a Unix-domain socket (plus one TCP round
// trip) driven by real client sockets — many concurrent clients with
// pipelined mixed requests, per-connection response ordering, verdict
// parity with direct QueryService calls, overload rejection under a tiny
// inflight cap, idle-timeout reaping, resume coalescing over sockets,
// graceful protocol shutdown, the --metrics-tcp scrape served by the same
// loop (silent scrapers block nothing, scrapes are not connections),
// clients hanging up on pending responses, and an accept that runs out of
// fds without spinning the loop. Runs under the
// TSan CI job, so the loop's scrape render races the workers' counter
// bumps there.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "fraisse/relational.h"
#include "net/server.h"
#include "service/json.h"
#include "service/service.h"
#include "solver/emptiness.h"
#include "system/zoo.h"

namespace amalgam {
namespace {

namespace fs = std::filesystem;

// A socket path short enough for sun_path, unique per test.
std::string SocketPath(const std::string& name) {
  const fs::path path = fs::path(::testing::TempDir()) / (name + ".sock");
  fs::remove(path);
  return path.string();
}

// A blocking JSONL client with a read deadline: the tests must fail, not
// hang, when the daemon drops a response.
class Client {
 public:
  static Client ConnectUds(const std::string& path) {
    Client client = UnconnectedUds();
    client.Connect(path);
    return client;
  }

  /// A Unix-domain socket whose fd exists before its connect.
  static Client UnconnectedUds() {
    Client client;
    client.fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    return client;
  }

  void Connect(const std::string& path) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    EXPECT_EQ(::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0)
        << std::strerror(errno);
  }

  static Client ConnectTcp(int port) {
    Client client;
    client.fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    EXPECT_EQ(
        ::connect(client.fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
        0)
        << std::strerror(errno);
    return client;
  }

  Client() = default;
  Client(Client&& other) noexcept : fd_(other.fd_), buf_(std::move(other.buf_)) {
    other.fd_ = -1;
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }

  void Send(const std::string& data) {
    std::size_t sent = 0;
    while (sent < data.size()) {
      const ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent,
                               MSG_NOSIGNAL);
      ASSERT_GT(n, 0) << std::strerror(errno);
      sent += static_cast<std::size_t>(n);
    }
  }

  void SendLine(const std::string& line) { Send(line + "\n"); }

  /// Reads one response line (terminator stripped). False on EOF or after
  /// `timeout_ms` with no complete line.
  bool ReadLine(std::string* line, int timeout_ms = 30000) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        *line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return true;
      }
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      if (left.count() <= 0) return false;
      pollfd pfd{fd_, POLLIN, 0};
      if (::poll(&pfd, 1, static_cast<int>(left.count())) <= 0) return false;
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;  // EOF or error
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  /// True when the daemon closed the connection within `timeout_ms` (any
  /// stray readable bytes are drained first).
  bool WaitForEof(int timeout_ms) {
    std::string ignored;
    while (ReadLine(&ignored, timeout_ms)) {
    }
    char byte;
    pollfd pfd{fd_, POLLIN, 0};
    if (::poll(&pfd, 1, timeout_ms) <= 0) return false;
    return ::recv(fd_, &byte, 1, 0) == 0;
  }

  /// Reads until the daemon closes the connection. False after
  /// `timeout_ms` without EOF.
  bool ReadToEof(std::string* out, int timeout_ms) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    *out = std::move(buf_);
    buf_.clear();
    for (;;) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      if (left.count() <= 0) return false;
      pollfd pfd{fd_, POLLIN, 0};
      if (::poll(&pfd, 1, static_cast<int>(left.count())) <= 0) return false;
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n == 0) return true;
      if (n < 0) return false;
      out->append(chunk, static_cast<std::size_t>(n));
    }
  }

  int fd() const { return fd_; }

 private:
  int fd_ = -1;
  std::string buf_;
};

JsonValue MustParse(const std::string& line) {
  auto parsed = ParseJson(line);
  EXPECT_TRUE(parsed.has_value()) << "unparsable response: " << line;
  return parsed.value_or(JsonValue{});
}

bool FieldBool(const JsonValue& value, const char* name) {
  const JsonValue* field = value.Get(name);
  return field != nullptr && field->boolean;
}

double FieldNumber(const JsonValue& value, const char* name) {
  const JsonValue* field = value.Get(name);
  return field == nullptr ? -1 : field->number;
}

std::string FieldString(const JsonValue& value, const char* name) {
  const JsonValue* field = value.Get(name);
  return field == nullptr ? "" : field->string;
}

constexpr const char* kScrapeRequest =
    "GET /metrics HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n";

// One HTTP scrape of the daemon's metrics listener: the whole response,
// or "" when none arrived within the deadline.
std::string Scrape(int port, int timeout_ms = 5000) {
  Client client = Client::ConnectTcp(port);
  client.Send(kScrapeRequest);
  std::string response;
  return client.ReadToEof(&response, timeout_ms) ? response : "";
}

// The body of an HTTP response ("" when there is no head/body split).
std::string HttpBody(const std::string& response) {
  const std::size_t split = response.find("\r\n\r\n");
  return split == std::string::npos ? "" : response.substr(split + 4);
}

// The metric names of a Prometheus text exposition's `# HELP` lines.
std::set<std::string> HelpNames(const std::string& exposition) {
  std::set<std::string> names;
  std::size_t pos = 0;
  while ((pos = exposition.find("# HELP ", pos)) != std::string::npos) {
    pos += 7;
    names.insert(exposition.substr(pos, exposition.find(' ', pos) - pos));
  }
  return names;
}

double ProcessCpuSeconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

constexpr const char* kReachRedLine =
    R"({"id":%,"kind":"system","class":"all","system":"reach_red"})";
constexpr const char* kZigZagLine =
    R"({"id":%,"kind":"words","nfa":"aplus_bplus","system":"zigzag"})";

std::string WithId(const char* pattern, const std::string& id) {
  std::string line = pattern;
  return line.replace(line.find('%'), 1, id);
}

// The spec-described probe pair from service_test: same cache key (same
// schema, register, guard), different accepting set — the accepting seed
// leaves a partial graph, the non-accepting probes need the full sweep.
std::string RedProbeLine(const std::string& id, bool accepting) {
  return std::string(R"({"id":)") + id +
         R"(,"kind":"system","class":"all",)"
         R"("schema":{"relations":[["E",2],["red",1]]},)"
         R"("system":{"registers":["x"],)"
         R"("states":[{"name":"s","initial":true},)"
         R"({"name":"t")" +
         (accepting ? R"(,"accepting":true)" : "") +
         R"json(}],"rules":[{"from":"s","to":"t","guard":"red(x_new)"}]}})json";
}

TEST(DaemonNetTest, ConcurrentClientsGetOrderedParityOverUds) {
  const bool reach_red_expected = [] {
    const DdsSystem system = ReachRedSystem();
    const AllStructuresClass cls(GraphZooSchema());
    return SolveEmptiness(system, cls, SolveOptions{.build_witness = false})
        .nonempty;
  }();

  QueryService::Options sopts;
  sopts.num_workers = 4;
  QueryService service(sopts);
  DaemonServerOptions nopts;
  nopts.uds_path = SocketPath("parity");
  DaemonServer server(service, nopts);
  server.Start();

  // 16 concurrent clients, each pipelining a mixed burst in one write:
  // two queries, a bad line, and a stats op. Every client must get its
  // four responses back in request order with correct verdicts, however
  // the event loop interleaves the connections.
  constexpr int kClients = 16;
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client client = Client::ConnectUds(nopts.uds_path);
      const std::string tag = std::to_string(c);
      client.Send(WithId(kReachRedLine, "\"q" + tag + "-1\"") + "\n" +
                  R"({"id":"q)" + tag + R"(-2","kind":"nope"})" + "\n" +
                  WithId(kZigZagLine, "\"q" + tag + "-3\"") + "\n" +
                  R"({"id":"q)" + tag + R"(-4","op":"stats"})" + "\n");
      std::string line;
      for (int i = 1; i <= 4; ++i) {
        ASSERT_TRUE(client.ReadLine(&line)) << "client " << c << " response "
                                            << i;
        const JsonValue response = MustParse(line);
        EXPECT_EQ(FieldString(response, "id"),
                  "q" + tag + "-" + std::to_string(i))
            << "out of order for client " << c << ": " << line;
        switch (i) {
          case 1:
            EXPECT_TRUE(FieldBool(response, "ok")) << line;
            EXPECT_EQ(FieldBool(response, "nonempty"), reach_red_expected);
            break;
          case 2:
            EXPECT_FALSE(FieldBool(response, "ok")) << line;
            break;
          case 3:
            EXPECT_TRUE(FieldBool(response, "ok")) << line;
            break;
          case 4:
            EXPECT_TRUE(FieldBool(response, "ok")) << line;
            // The per-connection counters belong to *this* connection.
            EXPECT_EQ(FieldNumber(response, "conn_requests"), 4) << line;
            EXPECT_GE(FieldNumber(response, "connections_opened"), 1) << line;
            EXPECT_EQ(FieldNumber(response, "conn_rejected_overload"), 0);
            break;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(server.counters().opened.load(), 16u);
  // Verdict parity end to end: the daemon answered from the same service
  // a direct submission uses.
  QueryRequest direct;
  direct.kind = QueryKind::kSystem;
  direct.system = std::make_shared<DdsSystem>(ReachRedSystem());
  direct.cls = std::make_shared<AllStructuresClass>(GraphZooSchema());
  QueryResult result = service.Submit(std::move(direct)).get();
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.nonempty, reach_red_expected);

  server.Stop();
  service.Shutdown();
  EXPECT_EQ(server.counters().open.load(), 0u);
}

TEST(DaemonNetTest, TinyInflightCapRejectsOverloadInBand) {
  QueryService::Options sopts;
  sopts.num_workers = 1;
  QueryService service(sopts);
  DaemonServerOptions nopts;
  nopts.uds_path = SocketPath("overload");
  nopts.max_inflight_per_conn = 1;
  DaemonServer server(service, nopts);
  server.Start();

  // One burst of 32 identical cold queries in a single write: the event
  // loop admits the first (the window is empty), and every line it parses
  // while that response is still pending is refused in-band. The exact
  // split depends on scheduling; the contract is order, the first accept,
  // and agreement between the responses and every rejection counter.
  constexpr int kBurst = 32;
  Client client = Client::ConnectUds(nopts.uds_path);
  std::string burst;
  for (int i = 1; i <= kBurst; ++i) {
    burst += WithId(kReachRedLine, std::to_string(i)) + "\n";
  }
  client.Send(burst);

  int ok_count = 0;
  int overloaded = 0;
  std::string line;
  for (int i = 1; i <= kBurst; ++i) {
    ASSERT_TRUE(client.ReadLine(&line)) << "response " << i;
    const JsonValue response = MustParse(line);
    ASSERT_EQ(FieldNumber(response, "id"), i) << "out of order: " << line;
    if (FieldBool(response, "ok")) {
      ++ok_count;
    } else {
      EXPECT_EQ(FieldString(response, "error_code"), "overloaded") << line;
      ++overloaded;
    }
  }
  EXPECT_TRUE(FieldBool(MustParse(line), "ok") || overloaded > 0);
  ASSERT_GT(ok_count, 0) << "the first query fits an empty window";
  ASSERT_GT(overloaded, 0) << "a 1-deep window cannot absorb a 32-line burst";

  // The daemon-wide and per-connection counters agree with what the
  // client saw.
  client.SendLine(R"({"id":"s","op":"stats"})");
  ASSERT_TRUE(client.ReadLine(&line));
  const JsonValue stats = MustParse(line);
  EXPECT_EQ(FieldNumber(stats, "overload_rejections"), overloaded);
  EXPECT_EQ(FieldNumber(stats, "conn_rejected_overload"), overloaded);
  EXPECT_EQ(FieldNumber(stats, "queries"), ok_count);
  EXPECT_EQ(server.counters().overload_rejections.load(),
            static_cast<std::uint64_t>(overloaded));

  server.Stop();
  service.Shutdown();
}

TEST(DaemonNetTest, IdleTimeoutReapsSilentClients) {
  QueryService::Options sopts;
  sopts.num_workers = 2;
  QueryService service(sopts);
  DaemonServerOptions nopts;
  nopts.uds_path = SocketPath("idle");
  nopts.idle_timeout_ms = 200;
  DaemonServer server(service, nopts);
  server.Start();

  Client client = Client::ConnectUds(nopts.uds_path);
  client.SendLine(WithId(kReachRedLine, "1"));
  std::string line;
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_TRUE(FieldBool(MustParse(line), "ok")) << line;

  // Now go silent: the daemon must close this connection, not leak it.
  EXPECT_TRUE(client.WaitForEof(5000)) << "idle client was never reaped";
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.counters().open.load() != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(server.counters().open.load(), 0u);

  // A fresh, active client is unaffected by the reaper.
  Client fresh = Client::ConnectUds(nopts.uds_path);
  fresh.SendLine(WithId(kReachRedLine, "2"));
  ASSERT_TRUE(fresh.ReadLine(&line));
  EXPECT_TRUE(FieldBool(MustParse(line), "ok")) << line;

  server.Stop();
  service.Shutdown();
}

TEST(DaemonNetTest, PartialResumeCoalescesAcrossTheSocket) {
  QueryService::Options sopts;
  sopts.num_workers = 4;
  QueryService service(sopts);
  DaemonServerOptions nopts;
  nopts.uds_path = SocketPath("resume");
  DaemonServer server(service, nopts);
  server.Start();

  // Seed the partial entry: the accepting probe early-exits.
  Client seeder = Client::ConnectUds(nopts.uds_path);
  seeder.SendLine(RedProbeLine("0", /*accepting=*/true));
  std::string line;
  ASSERT_TRUE(seeder.ReadLine(&line));
  const JsonValue seeded = MustParse(line);
  ASSERT_TRUE(FieldBool(seeded, "ok")) << line;
  ASSERT_TRUE(FieldBool(seeded, "nonempty"));

  // One pipelined burst of 16 non-accepting probes over the same key:
  // exactly one response may carry the suffix sweep (members > 0) — the
  // resume leader; every other query either joined its flight or ran
  // direct off the completed entry, both with zero enumeration.
  Client prober = Client::ConnectUds(nopts.uds_path);
  std::string burst;
  for (int i = 1; i <= 16; ++i) {
    burst += RedProbeLine(std::to_string(i), /*accepting=*/false) + "\n";
  }
  prober.Send(burst);
  int extenders = 0;
  for (int i = 1; i <= 16; ++i) {
    ASSERT_TRUE(prober.ReadLine(&line)) << "response " << i;
    const JsonValue response = MustParse(line);
    ASSERT_TRUE(FieldBool(response, "ok")) << line;
    EXPECT_FALSE(FieldBool(response, "nonempty")) << line;
    if (FieldNumber(response, "members") > 0) ++extenders;
  }
  EXPECT_EQ(extenders, 1) << "exactly one socket query may extend the graph";

  prober.SendLine(R"({"id":"s","op":"stats"})");
  ASSERT_TRUE(prober.ReadLine(&line));
  const JsonValue stats = MustParse(line);
  EXPECT_EQ(FieldNumber(stats, "resume_leads"), 1) << line;

  server.Stop();
  service.Shutdown();
}

TEST(DaemonNetTest, TcpTransportAndProtocolShutdown) {
  QueryService::Options sopts;
  sopts.num_workers = 2;
  QueryService service(sopts);
  DaemonServerOptions nopts;
  nopts.tcp_port = 0;  // ephemeral loopback port
  DaemonServer server(service, nopts);
  server.Start();
  ASSERT_GT(server.tcp_port(), 0);

  Client client = Client::ConnectTcp(server.tcp_port());
  client.SendLine(WithId(kReachRedLine, "1"));
  std::string line;
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_TRUE(FieldBool(MustParse(line), "ok")) << line;

  // {"op":"shutdown"} stops the daemon; the ack still arrives, in order,
  // and WaitUntilStopped unblocks without Stop() having been called.
  client.SendLine(R"({"id":2,"op":"shutdown"})");
  ASSERT_TRUE(client.ReadLine(&line));
  const JsonValue ack = MustParse(line);
  EXPECT_TRUE(FieldBool(ack, "ok")) << line;
  EXPECT_EQ(FieldString(ack, "op"), "shutdown") << line;
  server.WaitUntilStopped();
  EXPECT_TRUE(server.shutdown_requested());
  EXPECT_TRUE(client.WaitForEof(5000)) << "shutdown must close clients";

  server.Stop();
  service.Shutdown();
}

TEST(DaemonNetTest, OversizedLinesGetAnErrorNotABufferBloat) {
  QueryService::Options sopts;
  sopts.num_workers = 1;
  QueryService service(sopts);
  DaemonServerOptions nopts;
  nopts.uds_path = SocketPath("bigline");
  nopts.max_line_bytes = 1024;
  DaemonServer server(service, nopts);
  server.Start();

  Client client = Client::ConnectUds(nopts.uds_path);
  client.Send(std::string(4096, 'x'));  // no newline, 4x the cap
  std::string line;
  ASSERT_TRUE(client.ReadLine(&line));
  const JsonValue response = MustParse(line);
  EXPECT_FALSE(FieldBool(response, "ok"));
  EXPECT_EQ(FieldString(response, "error_code"), "line_too_long") << line;
  EXPECT_TRUE(client.WaitForEof(5000)) << "the stream is mid-garbage; the "
                                          "daemon should close it";

  server.Stop();
  service.Shutdown();
}

TEST(DaemonNetTest, MetricsScrapeRoundTripOverARealSocket) {
  QueryService::Options sopts;
  sopts.num_workers = 1;
  QueryService service(sopts);
  DaemonServerOptions nopts;
  nopts.metrics_tcp_port = 0;  // the scrape listener alone is a transport
  DaemonServer server(service, nopts);
  server.Start();
  ASSERT_GT(server.metrics_tcp_port(), 0);
  EXPECT_EQ(server.tcp_port(), -1);

  const std::string response = Scrape(server.metrics_tcp_port());
  EXPECT_EQ(response.rfind("HTTP/1.0 200 OK\r\n", 0), 0u) << response;
  EXPECT_NE(response.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos)
      << response;
  // Body framing: the head ends at the blank line and Content-Length
  // counts exactly the exposition after it.
  const std::string body = HttpBody(response);
  ASSERT_EQ(body.rfind("# HELP ", 0), 0u) << response;
  EXPECT_NE(response.find("Content-Length: " + std::to_string(body.size()) +
                          "\r\n"),
            std::string::npos)
      << response;
  EXPECT_NE(body.find("\namalgam_queries 0\n"), std::string::npos) << body;
  EXPECT_EQ(body.back(), '\n');
  server.Stop();
  server.Stop();  // idempotent
  service.Shutdown();
}

TEST(DaemonNetTest, SilentScraperBlocksNeitherScrapesNorShutdown) {
  QueryService::Options sopts;
  sopts.num_workers = 1;
  QueryService service(sopts);
  DaemonServerOptions nopts;
  nopts.tcp_port = 0;
  nopts.metrics_tcp_port = 0;
  DaemonServer server(service, nopts);
  server.Start();

  // Connects to the metrics port and never sends a byte.
  Client silent = Client::ConnectTcp(server.metrics_tcp_port());
  const std::string second = Scrape(server.metrics_tcp_port());
  EXPECT_EQ(second.rfind("HTTP/1.0 200 OK\r\n", 0), 0u)
      << "a silent scraper must not hold up the next scrape";

  Client client = Client::ConnectTcp(server.tcp_port());
  client.SendLine(R"({"id":1,"op":"shutdown"})");
  std::string line;
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_EQ(FieldString(MustParse(line), "op"), "shutdown") << line;
  const auto t0 = std::chrono::steady_clock::now();
  server.WaitUntilStopped();
  server.Stop();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(2))
      << "the shutdown waited on the silent scraper";
  EXPECT_TRUE(silent.WaitForEof(5000)) << "Stop() must close the scraper";
  service.Shutdown();
}

TEST(DaemonNetTest, SilentScraperDoesNotBlockStop) {
  QueryService::Options sopts;
  sopts.num_workers = 1;
  QueryService service(sopts);
  DaemonServerOptions nopts;
  nopts.metrics_tcp_port = 0;
  DaemonServer server(service, nopts);
  server.Start();

  Client silent = Client::ConnectTcp(server.metrics_tcp_port());
  silent.Send("GET /metrics HTTP/1.1\r\n");  // a head that never ends
  ASSERT_EQ(Scrape(server.metrics_tcp_port()).rfind("HTTP/1.0 200", 0), 0u);
  const auto t0 = std::chrono::steady_clock::now();
  server.Stop();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(2));
  EXPECT_TRUE(silent.WaitForEof(5000));
  service.Shutdown();
}

TEST(DaemonNetTest, ScrapesAreNotConnections) {
  QueryService::Options sopts;
  sopts.num_workers = 1;
  QueryService service(sopts);
  DaemonServerOptions nopts;
  nopts.uds_path = SocketPath("scrape_counts");
  nopts.metrics_tcp_port = 0;
  DaemonServer server(service, nopts);
  server.Start();

  Client client = Client::ConnectUds(nopts.uds_path);
  client.SendLine(WithId(kReachRedLine, "1"));
  std::string line;
  ASSERT_TRUE(client.ReadLine(&line));
  Client silent = Client::ConnectTcp(server.metrics_tcp_port());
  for (int i = 0; i < 3; ++i) {
    const std::string body = HttpBody(Scrape(server.metrics_tcp_port()));
    EXPECT_NE(body.find("\namalgam_connections_opened 1\n"),
              std::string::npos)
        << body;
    EXPECT_NE(body.find("\namalgam_connections_open 1\n"), std::string::npos)
        << body;
  }
  EXPECT_EQ(server.counters().opened.load(), 1u);
  EXPECT_EQ(server.counters().open.load(), 1u);

  client.SendLine(R"({"id":2,"op":"stats"})");
  ASSERT_TRUE(client.ReadLine(&line));
  const JsonValue stats = MustParse(line);
  EXPECT_EQ(FieldNumber(stats, "connections_opened"), 1) << line;
  EXPECT_EQ(FieldNumber(stats, "connections_open"), 1) << line;

  server.Stop();
  EXPECT_EQ(server.counters().open.load(), 0u);
  service.Shutdown();
}

TEST(DaemonNetTest, HttpScrapeAndMetricsOpNameTheSameMetrics) {
  QueryService::Options sopts;
  sopts.num_workers = 1;
  QueryService service(sopts);
  DaemonServerOptions nopts;
  nopts.uds_path = SocketPath("scrape_names");
  nopts.metrics_tcp_port = 0;
  DaemonServer server(service, nopts);
  server.Start();

  Client client = Client::ConnectUds(nopts.uds_path);
  client.SendLine(WithId(kReachRedLine, "1"));
  client.SendLine(R"({"id":2,"op":"metrics"})");
  std::string line;
  ASSERT_TRUE(client.ReadLine(&line));
  ASSERT_TRUE(client.ReadLine(&line));
  const std::set<std::string> op_names =
      HelpNames(FieldString(MustParse(line), "body"));
  const std::set<std::string> http_names =
      HelpNames(HttpBody(Scrape(server.metrics_tcp_port())));
  EXPECT_TRUE(op_names.count("amalgam_queries")) << line;
  EXPECT_TRUE(op_names.count("amalgam_query_latency_ms")) << line;
  EXPECT_EQ(op_names, http_names);

  server.Stop();
  service.Shutdown();
}

TEST(DaemonNetTest, ClientsClosingBeforeTheirResponsesDoNotKillTheDaemon) {
  QueryService::Options sopts;
  sopts.num_workers = 1;
  QueryService service(sopts);
  DaemonServerOptions nopts;
  nopts.tcp_port = 0;
  DaemonServer server(service, nopts);
  server.Start();

  // Each client pipelines requests and hangs up without reading: TCP
  // resets the connection, so the loop's next write to it fails with
  // EPIPE, which must close that connection, not raise SIGPIPE in the
  // process.
  std::string burst;
  for (int i = 0; i < 2000; ++i) burst += "{\"op\":\"recent\"}\n";
  for (int c = 0; c < 20; ++c) {
    Client client = Client::ConnectTcp(server.tcp_port());
    client.Send(burst);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  Client fresh = Client::ConnectTcp(server.tcp_port());
  fresh.SendLine(WithId(kReachRedLine, "1"));
  std::string line;
  ASSERT_TRUE(fresh.ReadLine(&line));
  EXPECT_TRUE(FieldBool(MustParse(line), "ok")) << line;

  server.Stop();
  service.Shutdown();
}

// Restores the soft RLIMIT_NOFILE on scope exit, pass or fail.
class FdLimitGuard {
 public:
  FdLimitGuard() { ::getrlimit(RLIMIT_NOFILE, &saved_); }
  ~FdLimitGuard() { Restore(); }
  void Lower(rlim_t soft) {
    rlimit lowered = saved_;
    lowered.rlim_cur = soft;
    ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &lowered), 0) << std::strerror(errno);
  }
  void Restore() { ::setrlimit(RLIMIT_NOFILE, &saved_); }

 private:
  rlimit saved_{};
};

TEST(DaemonNetTest, AcceptOutOfFdsIdlesAndServesTheBacklogLater) {
  QueryService::Options sopts;
  sopts.num_workers = 1;
  QueryService service(sopts);
  DaemonServerOptions nopts;
  nopts.uds_path = SocketPath("emfile");
  nopts.metrics_tcp_port = 0;
  DaemonServer server(service, nopts);
  server.Start();

  // The clients' fds exist before the limit drops; connecting needs none.
  constexpr int kClients = 24;
  std::vector<Client> clients;
  for (int i = 0; i < kClients; ++i) clients.push_back(Client::UnconnectedUds());
  int max_fd = 0;
  for (const auto& entry : fs::directory_iterator("/proc/self/fd")) {
    max_fd = std::max(max_fd, std::stoi(entry.path().filename().string()));
  }
  FdLimitGuard limit;
  limit.Lower(static_cast<rlim_t>(max_fd) + 3);  // room for two accepts
  for (int i = 0; i < kClients; ++i) {
    clients[i].Connect(nopts.uds_path);
    clients[i].SendLine(WithId(kReachRedLine, std::to_string(i)));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  ASSERT_LT(server.counters().opened.load(),
            static_cast<std::uint64_t>(kClients))
      << "the lowered limit must leave clients in the backlog";

  // The listener stays readable while accept fails; the loop must not spin.
  const double cpu0 = ProcessCpuSeconds();
  std::this_thread::sleep_for(std::chrono::seconds(1));
  const double cpu = ProcessCpuSeconds() - cpu0;
  EXPECT_LT(cpu, 0.3) << "the event loop spun on an unacceptable backlog";

  limit.Restore();
  std::string line;
  for (int i = 0; i < kClients; ++i) {
    ASSERT_TRUE(clients[i].ReadLine(&line, 10000)) << "client " << i;
    EXPECT_EQ(FieldNumber(MustParse(line), "id"), i) << line;
  }
  EXPECT_EQ(server.counters().opened.load(),
            static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(Scrape(server.metrics_tcp_port()).rfind("HTTP/1.0 200", 0), 0u);

  server.Stop();
  service.Shutdown();
}

}  // namespace
}  // namespace amalgam
