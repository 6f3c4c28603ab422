// One client's JSONL conversation with the query service.
//
// A Session owns everything between a transport and the QueryService for a
// single client: it parses request lines (service/protocol.h) — or, for a
// repeated query line, takes the query an earlier repeat prepared from the
// service's spec memo (service/spec_memo.h) — submits queries, applies
// per-connection admission control, and emits response
// lines *in request order* through a dedicated writer thread — the PR-5
// dedicated-writer pattern, one writer per connection. The transport —
// stdin/stdout in amalgamd's --stdio mode, a socket connection in the
// net/ event loop — only has to do two things: feed complete lines to
// HandleLine from a single thread, and accept emitted response lines from
// the writer thread.
//
// Ordering: every response — query results, admin-op answers, parse
// errors, overload rejections — goes through one FIFO of deferred
// renderers. The writer pops in order and blocks on each query's future,
// so a client always receives responses in the order it sent requests,
// and an admin op's answer reflects every request before it (stats/drain
// renderers additionally Drain() the service first).
//
// Backpressure: with max_inflight > 0, a query line arriving while that
// many query responses are still unemitted is refused without touching
// the service — the client gets an in-band, in-order
// {"ok":false,"error_code":"overloaded"} and the daemon's worker pool is
// protected from a single client queueing unbounded work.
#ifndef AMALGAM_SERVICE_SESSION_H_
#define AMALGAM_SERVICE_SESSION_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "service/service.h"

namespace amalgam {

struct LineIdentity;
class MaintenanceLoop;
struct ProtocolRequest;

/// Transport-wide counters shared by every Session of one daemon (plain
/// atomics: the sessions' writer threads, the event loop and the stats
/// path all touch them concurrently).
struct ConnectionCounters {
  std::atomic<std::uint64_t> opened{0};  // connections accepted since start
  std::atomic<std::uint64_t> open{0};    // currently connected
  std::atomic<std::uint64_t> overload_rejections{0};  // across all clients
};

/// One Prometheus scrape: one snapshot of the daemon-wide stats —
/// service.Stats() plus the transport's connection counters and the
/// maintenance loop's (either may be null), per-connection fields zero —
/// rendered with the service's histograms by FormatMetricsExposition.
/// Concurrent scrapes share no state. A cheap snapshot that never drains
/// or waits on a query; {"op":"metrics"} and the --metrics-tcp listener
/// (net/server.h) both serve exactly this text.
std::string RenderMetrics(QueryService& service,
                          const ConnectionCounters* counters,
                          const MaintenanceLoop* maintenance);

class Session {
 public:
  struct Options {
    /// Connection id echoed in this session's stats responses.
    std::uint64_t id = 0;
    /// Admission-control cap: maximum query responses in flight (accepted
    /// but not yet emitted) before new query lines are rejected with
    /// error_code "overloaded". 0 = unbounded.
    int max_inflight = 0;
    /// The daemon's maintenance loop (nullptr when it runs none): accepted
    /// query lines are recorded into its access log, the stats op reports
    /// its counters, and {"op":"maintain"} triggers a pass. Must outlive
    /// the session.
    MaintenanceLoop* maintenance = nullptr;
    /// Called on the writer thread after each emitted line is counted, so
    /// a FlushedAll() it prompts sees the line as written. The socket
    /// transport wakes its event loop here.
    std::function<void()> on_written;
  };

  /// Receives one complete response line (no terminator), called from the
  /// session's writer thread only — consecutive calls are serialized, in
  /// request order. Must not re-enter the Session.
  using Emit = std::function<void(const std::string& line)>;

  /// `counters` (optional) are the daemon-wide connection counters this
  /// session reports into; they must outlive the session.
  Session(QueryService& service, Options options, Emit emit,
          ConnectionCounters* counters = nullptr);
  /// Flushes every pending response, then joins the writer. Blocks until
  /// in-flight queries resolve — destroy sessions before shutting the
  /// service down.
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  enum class LineOutcome {
    kContinue,
    /// The line was a {"op":"shutdown"}: its response is enqueued (and
    /// reflects a full service drain); the transport should stop feeding
    /// lines, Flush(), and begin daemon shutdown.
    kShutdown,
  };

  /// Handles one request line (no terminator; empty lines are the
  /// transport's to skip). Never throws and never blocks on query
  /// execution — responses arrive later through `emit`. Call from one
  /// transport thread only.
  LineOutcome HandleLine(const std::string& line);

  /// The transport read a line longer than its cap: emit an in-order
  /// "line_too_long" error. The transport should stop reading afterwards
  /// (the stream is mid-garbage) but may still Flush() pending responses.
  void HandleOversizedLine();

  /// Blocks until every response for lines handled so far has been
  /// emitted.
  void Flush();
  /// Nonblocking: true when nothing is pending (all responses emitted).
  bool FlushedAll() const;

  std::uint64_t id() const { return options_.id; }
  /// Lines handled (queries, admin ops, and rejected/bad lines alike).
  std::uint64_t requests() const {
    return requests_.load(std::memory_order_relaxed);
  }
  /// Query lines refused by the inflight cap.
  std::uint64_t rejected_overload() const {
    return rejected_.load(std::memory_order_relaxed);
  }
  /// Queries accepted but whose responses are not yet emitted.
  int inflight() const;

 private:
  struct Item {
    /// Renders the response line; runs on the writer thread and may block
    /// (query futures, service drains).
    std::function<std::string()> render;
    bool is_query = false;  // counts toward the inflight cap
  };

  /// The query half of HandleLine, the same for a memo hit and a parsed
  /// line: store attach, inflight cap, a fresh trace recorder when the
  /// query is traced, submit, access log, and the response echoing `echo`.
  void SubmitQuery(const LineIdentity& identity, ProtocolRequest echo,
                   std::shared_ptr<const PreparedQuery> query);

  void Push(Item item);
  void PushRendered(std::string line);
  /// The daemon-wide stats RenderMetrics exports, plus this session's
  /// connection fields.
  ServiceStats SnapshotStats() const;
  void WriterLoop();

  QueryService& service_;
  const Options options_;
  const Emit emit_;
  ConnectionCounters* const counters_;

  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> rejected_{0};

  mutable std::mutex mutex_;
  std::condition_variable queue_cv_;    // writer: work available / stop
  std::condition_variable written_cv_;  // Flush(): all emitted
  std::deque<Item> queue_;
  std::uint64_t enqueued_ = 0;
  std::uint64_t written_ = 0;
  int inflight_ = 0;
  bool stop_ = false;

  std::thread writer_;
};

}  // namespace amalgam

#endif  // AMALGAM_SERVICE_SESSION_H_
