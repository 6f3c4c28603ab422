// Tests for the self-maintaining store tier: an idle maintenance pass —
// with NO queries submitted to the daemon — must drive a partial
// persisted entry to completion using recipes derived from the persisted
// access log, and leave the entry servable with zero enumeration; prewarm must promote persisted graphs
// into the memory tier across a restart; the access log must stay
// bounded, LRU-ordered and id-less, and survive flush/reload; and the
// {"op":"maintain"}
// admin op must report the pass through the session layer.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "service/maintenance.h"
#include "service/protocol.h"
#include "service/service.h"
#include "service/session.h"
#include "solver/graph.h"
#include "solver/store.h"

namespace amalgam {
namespace {

namespace fs = std::filesystem;

std::string MaintStoreDir(const std::string& name) {
  const char* env = std::getenv("AMALGAM_STORE_TEST_DIR");
  const fs::path base =
      (env && *env) ? fs::path(env) : fs::path(::testing::TempDir());
  const fs::path dir = base / ("maintenance_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

// The canonical early-exiting query: reach_red over "all" is nonempty, so
// the default on-the-fly strategy stops at the witness and persists a
// *partial* graph — exactly what the maintenance loop exists to finish.
const char kReachRedLine[] =
    R"({"kind":"system","class":"all","system":"reach_red"})";
// The same query with its span tree asked for.
const char kTracedReachRedLine[] =
    R"({"kind":"system","class":"all","system":"reach_red","trace":true})";

TEST(MaintenanceTest, IdleLoopAloneCompletesAPartialStoreEntry) {
  const std::string dir = MaintStoreDir("idle_completion");
  const ProtocolRequest parsed = ParseRequestLine(kReachRedLine);
  ASSERT_TRUE(parsed.error.empty()) << parsed.error;

  std::string key;
  // Daemon 1: one on-the-fly query early-exits at its witness; the
  // partial graph hits disk and the access log records the line.
  {
    QueryService::Options options;
    options.store_dir = dir;
    QueryService service(options);
    key = QueryService::Prepare(parsed.query)->spec.key;
    ASSERT_FALSE(key.empty());
    QueryResult first = service.Submit(parsed.query).get();
    ASSERT_TRUE(first.ok) << first.error;
    EXPECT_TRUE(first.nonempty);

    MaintenanceOptions mopts;
    mopts.store_dir = dir;
    MaintenanceLoop loop(service, mopts);
    loop.RecordAccess(kReachRedLine);
    loop.Stop();  // flushes access.jsonl
    service.Shutdown();
  }
  {
    GraphStore store(dir);
    const GraphStore::KeyProgress before = store.PeekKey(key);
    ASSERT_TRUE(before.found);
    ASSERT_NE(before.cursor.phase, kCursorPhaseComplete)
        << "the early-exited query must persist a *partial* entry";
  }

  // Daemon 2: NO queries. One maintenance pass — its recipes derived
  // entirely from the persisted access log — must complete the entry.
  {
    QueryService::Options options;
    options.store_dir = dir;
    QueryService service(options);
    MaintenanceOptions mopts;
    mopts.store_dir = dir;
    MaintenanceLoop loop(service, mopts);
    const MaintenancePassResult pass = loop.RunOnce();
    EXPECT_EQ(pass.partials_completed, 1u);
    const MaintenanceStats stats = loop.GetStats();
    EXPECT_EQ(stats.passes, 1u);
    EXPECT_EQ(stats.partials_completed, 1u);
    service.Shutdown();
  }
  {
    GraphStore store(dir);
    const GraphStore::KeyProgress after = store.PeekKey(key);
    ASSERT_TRUE(after.found);
    EXPECT_EQ(after.cursor.phase, kCursorPhaseComplete);
  }

  // Daemon 3: prewarm promotes the completed graph into memory, so the
  // query that originally built it is now answered with zero enumeration.
  {
    QueryService::Options options;
    options.store_dir = dir;
    QueryService service(options);
    MaintenanceOptions mopts;
    mopts.store_dir = dir;
    MaintenanceLoop loop(service, mopts);
    EXPECT_EQ(loop.Prewarm(), 1u);
    EXPECT_EQ(loop.GetStats().prewarm_loads, 1u);
    QueryResult served = service.Submit(parsed.query).get();
    ASSERT_TRUE(served.ok) << served.error;
    EXPECT_TRUE(served.stats.graph_from_cache);
    EXPECT_EQ(served.stats.members_enumerated, 0u);
    service.Shutdown();
  }
}

TEST(MaintenanceTest, AccessLogIsBoundedPersistedAndLruOrdered) {
  const std::string dir = MaintStoreDir("access_log");
  QueryService::Options options;
  options.store_dir = dir;
  QueryService service(options);

  MaintenanceOptions mopts;
  mopts.store_dir = dir;
  mopts.access_log_capacity = 4;
  {
    MaintenanceLoop loop(service, mopts);
    for (int i = 0; i < 6; ++i) {
      loop.RecordAccess("{\"probe\":" + std::to_string(i) + "}");
    }
    loop.RecordAccess("{\"probe\":2}");  // re-access: moves to the warm end
    loop.Stop();
  }

  std::vector<std::string> lines;
  {
    std::ifstream in(dir + "/access.jsonl");
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  // Capacity 4: probes 0 and 1 evicted; the re-accessed 2 survived and
  // sits at the warm end.
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines[0], "{\"probe\":3}");
  EXPECT_EQ(lines[1], "{\"probe\":4}");
  EXPECT_EQ(lines[2], "{\"probe\":5}");
  EXPECT_EQ(lines[3], "{\"probe\":2}");

  // A fresh loop seeds from the file; with nothing new recorded, Stop()
  // must not clobber it (the buffer is not dirty).
  {
    MaintenanceLoop loop(service, mopts);
    loop.Stop();
  }
  std::ifstream in(dir + "/access.jsonl");
  std::string line;
  std::size_t count = 0;
  while (std::getline(in, line)) ++count;
  EXPECT_EQ(count, 4u);
  service.Shutdown();
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

TEST(MaintenanceTest, AccessLogKeepsOneIdLessLinePerQuery) {
  // Three lines that differ only in their leading id ask one query: the
  // log keeps it once, without an id, and prewarm replays it once.
  const std::string dir = MaintStoreDir("id_less_log");
  QueryService::Options options;
  options.store_dir = dir;
  MaintenanceOptions mopts;
  mopts.store_dir = dir;
  const std::string body = std::string(kReachRedLine).substr(1);
  {
    QueryService service(options);
    MaintenanceLoop loop(service, mopts);
    {
      Session::Options sopts;
      sopts.maintenance = &loop;
      Session session(service, sopts, [](const std::string&) {});
      for (const char* id : {"1", "2", "3e0"}) {
        session.HandleLine(std::string("{\"id\":") + id + "," + body);
      }
      session.Flush();
    }
    loop.Stop();
    service.Shutdown();
  }
  const std::vector<std::string> logged = ReadLines(dir + "/access.jsonl");
  ASSERT_EQ(logged.size(), 1u);
  EXPECT_EQ(logged[0], kReachRedLine);
  {
    QueryService service(options);
    MaintenanceLoop loop(service, mopts);
    EXPECT_EQ(loop.Prewarm(), 1u);
    EXPECT_EQ(loop.GetStats().prewarm_loads, 1u);
    service.Shutdown();
  }

  // A log written while lines still kept their ids parses, and folds its
  // repeats the same way.
  {
    std::ofstream out(dir + "/access.jsonl", std::ios::trunc);
    for (int id = 1; id <= 3; ++id) {
      out << "{\"id\":" << id << "," << body << "\n";
    }
  }
  {
    QueryService service(options);
    MaintenanceLoop loop(service, mopts);
    EXPECT_EQ(loop.Prewarm(), 1u);
    loop.RecordAccess(kReachRedLine);  // dirty the buffer: Stop rewrites
    loop.Stop();
    service.Shutdown();
  }
  EXPECT_EQ(ReadLines(dir + "/access.jsonl"),
            std::vector<std::string>{kReachRedLine});
}

std::vector<std::string> TempFilesIn(const std::string& dir) {
  std::vector<std::string> temps;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.find(".tmp") != std::string::npos) temps.push_back(name);
  }
  return temps;
}

TEST(MaintenanceTest, AFailedAccessLogFlushIsRetriedAndLeavesNoTemp) {
  // A directory squatting on access.jsonl makes the flush's rename fail.
  // The pass must clean up its temp file and keep the buffer dirty, so the
  // next pass writes the log once the path is free — with no new access
  // recorded in between.
  const std::string dir = MaintStoreDir("flush_retry");
  QueryService::Options options;
  options.store_dir = dir;
  QueryService service(options);
  MaintenanceOptions mopts;
  mopts.store_dir = dir;
  MaintenanceLoop loop(service, mopts);

  loop.RecordAccess("{\"probe\":1}");
  fs::create_directory(dir + "/access.jsonl");
  loop.RunOnce();
  EXPECT_TRUE(fs::is_directory(dir + "/access.jsonl"));
  EXPECT_EQ(TempFilesIn(dir), std::vector<std::string>{});

  fs::remove(dir + "/access.jsonl");
  loop.RunOnce();
  EXPECT_EQ(ReadLines(dir + "/access.jsonl"),
            std::vector<std::string>{"{\"probe\":1}"});
  EXPECT_EQ(TempFilesIn(dir), std::vector<std::string>{});
  service.Shutdown();
}

TEST(MaintenanceTest, ReplayedRecipeNeverRecordsIntoTheClientTrace) {
  // A traced on-the-fly query leaves a partial entry and becomes the
  // recipe that completes it. The completion run must not record into the
  // client's recorder (its response is long gone) nor report as traced.
  const std::string dir = MaintStoreDir("untraced_recipe");
  ProtocolRequest parsed = ParseRequestLine(kTracedReachRedLine);
  ASSERT_TRUE(parsed.error.empty()) << parsed.error;
  const std::shared_ptr<TraceRecorder> client_trace = parsed.query.trace;
  ASSERT_NE(client_trace, nullptr);

  QueryService::Options options;
  options.store_dir = dir;
  QueryService service(options);
  QueryResult first = service.Submit(parsed.query).get();
  ASSERT_TRUE(first.ok) << first.error;
  const std::size_t client_spans = client_trace->span_count();
  ASSERT_GT(client_spans, 0u);

  MaintenanceOptions mopts;
  mopts.store_dir = dir;
  MaintenanceLoop loop(service, mopts);
  loop.RecordAccess(kTracedReachRedLine);  // what a Session records
  EXPECT_EQ(loop.RunOnce().partials_completed, 1u);
  service.Drain();
  EXPECT_EQ(client_trace->span_count(), client_spans);

  const std::vector<RecentQuery> recent = service.Recent();
  ASSERT_EQ(recent.size(), 2u);
  const RecentQuery& client =
      recent[0].seq < recent[1].seq ? recent[0] : recent[1];
  const RecentQuery& replay =
      recent[0].seq < recent[1].seq ? recent[1] : recent[0];
  EXPECT_TRUE(client.traced);
  EXPECT_FALSE(replay.traced);
  EXPECT_TRUE(replay.span_rollup.empty());
  service.Shutdown();
}

TEST(MaintenanceTest, RestartedLogReplayRunsUntraced) {
  // A traced line in the persisted log is a recipe like any other: the
  // restarted daemon's completion of it must run without a recorder, not
  // with the fresh one parsing the line would give it.
  const std::string dir = MaintStoreDir("untraced_log_replay");
  QueryService::Options options;
  options.store_dir = dir;
  {
    QueryService service(options);
    const QueryResult first =
        service.Submit(ParseRequestLine(kReachRedLine).query).get();
    ASSERT_TRUE(first.ok) << first.error;
    service.Shutdown();
  }
  std::ofstream(dir + "/access.jsonl") << kTracedReachRedLine << "\n";

  QueryService service(options);
  MaintenanceOptions mopts;
  mopts.store_dir = dir;
  MaintenanceLoop loop(service, mopts);
  EXPECT_EQ(loop.RunOnce().partials_completed, 1u);
  const std::vector<RecentQuery> recent = service.Recent();
  ASSERT_EQ(recent.size(), 1u);
  EXPECT_FALSE(recent[0].traced);
  EXPECT_TRUE(recent[0].span_rollup.empty());
  service.Shutdown();
}

TEST(MaintenanceTest, StorelessLoopCompletesAMemoryPartial) {
  // Without a store directory the access log never touches disk, but it
  // still records the lines Session traffic sends, so a pass finishes the
  // memory-tier partial an on-the-fly query left.
  QueryService service;
  MaintenanceLoop loop(service, MaintenanceOptions{});
  {
    Session::Options sopts;
    sopts.maintenance = &loop;
    Session session(service, sopts, [](const std::string&) {});
    session.HandleLine(kReachRedLine);
    session.Flush();
  }
  const std::string key =
      QueryService::Prepare(ParseRequestLine(kReachRedLine).query)->spec.key;
  const std::shared_ptr<const SubTransitionGraph> partial =
      service.cache().Peek(key);
  ASSERT_NE(partial, nullptr);
  ASSERT_FALSE(partial->complete());

  EXPECT_EQ(loop.RunOnce().partials_completed, 1u);
  const std::shared_ptr<const SubTransitionGraph> completed =
      service.cache().Peek(key);
  ASSERT_NE(completed, nullptr);
  EXPECT_TRUE(completed->complete());
  service.Shutdown();
}

TEST(MaintenanceTest, OnePassBuildsEachPartialKeyOnce) {
  // Two distinct logged lines ask for one graph. The first completes it;
  // the second must find it complete, not build it again.
  const char kExplicitOnTheFly[] =
      R"({"kind":"system","class":"all","system":"reach_red",)"
      R"("strategy":"onthefly"})";
  const std::string dir = MaintStoreDir("per_key_dedupe");
  QueryService::Options options;
  options.store_dir = dir;
  QueryService service(options);
  const ProtocolRequest parsed = ParseRequestLine(kReachRedLine);
  const std::string key = QueryService::Prepare(parsed.query)->spec.key;
  ASSERT_EQ(
      QueryService::Prepare(ParseRequestLine(kExplicitOnTheFly).query)
          ->spec.key,
      key);
  const QueryResult first = service.Submit(parsed.query).get();
  ASSERT_TRUE(first.ok) << first.error;

  MaintenanceOptions mopts;
  mopts.store_dir = dir;
  MaintenanceLoop loop(service, mopts);
  loop.RecordAccess(kReachRedLine);
  loop.RecordAccess(kExplicitOnTheFly);
  const std::uint64_t writes_before = service.Stats().store_writes;
  EXPECT_EQ(loop.RunOnce().partials_completed, 1u);
  EXPECT_EQ(service.Stats().store_writes, writes_before + 1);
  EXPECT_TRUE(service.cache().Peek(key)->complete());
  service.Shutdown();
}

TEST(MaintenanceTest, MaintainOpReportsThePassThroughTheSession) {
  const std::string dir = MaintStoreDir("maintain_op");
  QueryService::Options options;
  options.store_dir = dir;
  QueryService service(options);
  MaintenanceOptions mopts;
  mopts.store_dir = dir;
  MaintenanceLoop loop(service, mopts);

  std::mutex lines_mutex;
  std::vector<std::string> lines;
  {
    Session::Options sopts;
    sopts.id = 9;
    sopts.maintenance = &loop;
    Session session(service, sopts, [&](const std::string& line) {
      std::lock_guard<std::mutex> lock(lines_mutex);
      lines.push_back(line);
    });
    session.HandleLine(
        R"({"id":1,"kind":"system","class":"all","system":"reach_red"})");
    session.HandleLine(R"({"id":2,"op":"maintain"})");
    session.Flush();
  }
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[1].find("\"op\":\"maintain\""), std::string::npos)
      << lines[1];
  EXPECT_NE(lines[1].find("\"ok\":true"), std::string::npos) << lines[1];
  EXPECT_NE(lines[1].find("\"partials_completed\":1"), std::string::npos)
      << "the accepted query line becomes a recipe; the op's pass must "
         "complete the partial it left: "
      << lines[1];
  EXPECT_NE(lines[1].find("\"total_passes\":1"), std::string::npos)
      << lines[1];
  service.Shutdown();
}

TEST(MaintenanceTest, MaintainOpWithoutALoopFailsInBand) {
  QueryService service;
  std::mutex lines_mutex;
  std::vector<std::string> lines;
  {
    Session::Options sopts;  // no maintenance loop attached
    sopts.id = 3;
    Session session(service, sopts, [&](const std::string& line) {
      std::lock_guard<std::mutex> lock(lines_mutex);
      lines.push_back(line);
    });
    session.HandleLine(R"({"id":1,"op":"maintain"})");
    session.Flush();
  }
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"ok\":false"), std::string::npos) << lines[0];
  EXPECT_NE(lines[0].find("\"error_code\":\"no_maintenance\""),
            std::string::npos)
      << lines[0];
  service.Shutdown();
}

}  // namespace
}  // namespace amalgam
