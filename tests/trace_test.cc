// Tests for the end-to-end query tracing pipeline: the TraceRecorder's
// span tree mechanics (nesting, retroactive intervals, annotations, JSON
// serialization, null-recorder fast path), the engine's span catalog over
// a direct solve, and the full daemon path through Session — a traced
// cold query returns an in-band "query" span tree covering queue wait,
// build and BFS; cache hits, coalesced joiners and partial-entry resumes
// each leave their distinguishing spans/annotations; and a query without
// `"trace":true` records exactly zero spans.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "fraisse/relational.h"
#include "obs/trace.h"
#include "service/json.h"
#include "service/protocol.h"
#include "service/service.h"
#include "service/session.h"
#include "solver/emptiness.h"
#include "system/zoo.h"

namespace amalgam {
namespace {

std::vector<TraceSpan> SpansNamed(const std::vector<TraceSpan>& spans,
                                  const std::string& name) {
  std::vector<TraceSpan> out;
  for (const TraceSpan& span : spans) {
    if (name == span.name) out.push_back(span);
  }
  return out;
}

const TraceAnnotation* FindAnnotation(const TraceSpan& span,
                                      const std::string& key) {
  for (const TraceAnnotation& ann : span.annotations) {
    if (ann.key == key) return &ann;
  }
  return nullptr;
}

TEST(TraceRecorderTest, NestingFollowsTheOpenStack) {
  TraceRecorder recorder;
  const int outer = recorder.BeginSpan("outer");
  const int inner = recorder.BeginSpan("inner");
  recorder.EndSpan(inner);
  const int sibling = recorder.BeginSpan("sibling");
  recorder.EndSpan(sibling);
  recorder.EndSpan(outer);
  const int root2 = recorder.BeginSpan("root2");
  recorder.EndSpan(root2);

  const std::vector<TraceSpan> spans = recorder.Snapshot();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[outer].parent, -1);
  EXPECT_EQ(spans[inner].parent, outer);
  EXPECT_EQ(spans[sibling].parent, outer);
  EXPECT_EQ(spans[root2].parent, -1) << "closing `outer` empties the stack";
  EXPECT_GE(spans[outer].duration_ns,
            spans[inner].duration_ns + spans[sibling].duration_ns);
}

TEST(TraceRecorderTest, EndSpanPopsThroughLeakedChildren) {
  TraceRecorder recorder;
  const int outer = recorder.BeginSpan("outer");
  recorder.BeginSpan("leaked");  // never explicitly closed
  recorder.EndSpan(outer);
  // The stack must be empty again: the next span is a root, not a child
  // of the leaked one.
  const int next = recorder.BeginSpan("next");
  EXPECT_EQ(recorder.Snapshot()[next].parent, -1);
}

TEST(TraceRecorderTest, RecordSpanAttachesRetroactivelyAndClamps) {
  TraceRecorder recorder;
  // An interval that started before the recorder existed (a queue wait
  // measured from the submit timestamp) clamps to the epoch instead of
  // underflowing.
  const auto before_epoch =
      recorder.epoch() - std::chrono::milliseconds(5);
  const int open = recorder.BeginSpan("query");
  const int retro =
      recorder.RecordSpan("queue_wait", before_epoch, recorder.epoch());
  recorder.EndSpan(open);

  const std::vector<TraceSpan> spans = recorder.Snapshot();
  EXPECT_EQ(spans[retro].parent, open)
      << "a retroactive span is a child of the innermost open span";
  EXPECT_EQ(spans[retro].start_ns, 0u);
  EXPECT_EQ(spans[retro].duration_ns, 0u) << "both endpoints clamp";
}

TEST(TraceRecorderTest, ToJsonNestsChildrenAndTypesAnnotations) {
  TraceRecorder recorder;
  const int root = recorder.BeginSpan("query");
  recorder.Annotate(root, "kind", std::string("system"));
  const int child = recorder.BeginSpan("solve");
  recorder.Annotate(child, "members", std::uint64_t{42});
  recorder.EndSpan(child);
  recorder.EndSpan(root);

  const std::optional<JsonValue> parsed = ParseJson(recorder.ToJson());
  ASSERT_TRUE(parsed.has_value()) << recorder.ToJson();
  ASSERT_TRUE(parsed->is_array());
  ASSERT_EQ(parsed->array.size(), 1u);
  const JsonValue& json_root = parsed->array[0];
  EXPECT_EQ(json_root.GetString("name"), "query");
  ASSERT_NE(json_root.Get("ann"), nullptr);
  EXPECT_EQ(json_root.Get("ann")->GetString("kind"), "system");
  ASSERT_NE(json_root.Get("children"), nullptr);
  ASSERT_EQ(json_root.Get("children")->array.size(), 1u);
  const JsonValue& json_child = json_root.Get("children")->array[0];
  EXPECT_EQ(json_child.GetString("name"), "solve");
  const JsonValue* members = json_child.Get("ann")->Get("members");
  ASSERT_NE(members, nullptr);
  EXPECT_TRUE(members->is_number()) << "numeric annotations stay numbers";
  EXPECT_EQ(members->number, 42.0);
}

TEST(TraceRecorderTest, NullRecorderScopedSpanIsInert) {
  ScopedSpan span(nullptr, "query");
  span.Annotate("kind", std::uint64_t{1});
  span.Annotate("role", std::string("leader"));
  EXPECT_EQ(span.id(), -1);
  EXPECT_EQ(span.recorder(), nullptr);
}

// ---- Engine-level: the span catalog over a direct solve. ----

TEST(TraceEngineTest, ColdSolveRecordsPhaseSpans) {
  const DdsSystem system = ReachRedSystem();
  const AllStructuresClass cls(GraphZooSchema());
  TraceRecorder recorder;
  SolveOptions options;
  options.trace = &recorder;
  const SolveResult result = SolveEmptiness(system, cls, options);
  ASSERT_TRUE(result.nonempty);

  const std::vector<TraceSpan> spans = recorder.Snapshot();
  ASSERT_EQ(SpansNamed(spans, "solve").size(), 1u);
  ASSERT_EQ(SpansNamed(spans, "sweep_initial").size(), 1u);
  // A cacheless direct solve extends via the frontier-directed sweep.
  EXPECT_FALSE(SpansNamed(spans, "frontier_sweep").empty());
  // Held in a local: FindAnnotation points into the span it is given.
  const std::vector<TraceSpan> initial = SpansNamed(spans, "sweep_initial");
  const TraceAnnotation* enumerated =
      FindAnnotation(initial[0], "members_enumerated");
  ASSERT_NE(enumerated, nullptr);
  EXPECT_TRUE(enumerated->is_number);
  // The witness phase runs by default.
  EXPECT_EQ(SpansNamed(spans, "witness").size(), 1u);
}

TEST(TraceEngineTest, BfsSpansCountTheirWorkDeterministically) {
  // An eager solve of an empty chain BFSes the whole reachable region; its
  // `bfs` span reports edges scanned and configurations reached, the same
  // numbers on every run, within the graph's bounds.
  DdsSystem system(GraphZooSchema());
  system.AddRegister("x");
  int prev = system.AddState("s0", true);
  for (int i = 1; i < 6; ++i) {
    const int next = system.AddState("s" + std::to_string(i));
    system.AddRule(prev, next, i % 2 ? "E(x_old, x_new)" : "red(x_new)");
    prev = next;
  }
  const AllStructuresClass cls(GraphZooSchema());
  std::vector<std::uint64_t> first;
  for (int run = 0; run < 2; ++run) {
    TraceRecorder recorder;
    SolveOptions options;
    options.strategy = SolveStrategy::kEager;
    options.trace = &recorder;
    const SolveResult result = SolveEmptiness(system, cls, options);
    ASSERT_FALSE(result.nonempty);
    const std::vector<TraceSpan> bfs = SpansNamed(recorder.Snapshot(), "bfs");
    ASSERT_EQ(bfs.size(), 1u);
    std::vector<std::uint64_t> counts;
    for (const char* key : {"edges_scanned", "configs_reached"}) {
      const TraceAnnotation* ann = FindAnnotation(bfs[0], key);
      ASSERT_NE(ann, nullptr) << key;
      EXPECT_TRUE(ann->is_number);
      counts.push_back(std::stoull(ann->value));
    }
    EXPECT_GT(counts[0], 0u);
    EXPECT_LE(counts[0], result.stats.edges * system.num_states());
    EXPECT_GT(counts[1], 0u);
    EXPECT_LE(counts[1], result.stats.configs);
    if (run == 0) first = counts;
    EXPECT_EQ(counts, first);
  }
}

// ---- Service/daemon-level: the acceptance span tree. ----

QueryRequest ReachRedRequest(bool traced = false) {
  QueryRequest request;
  request.kind = QueryKind::kSystem;
  request.system = std::make_shared<DdsSystem>(ReachRedSystem());
  request.cls = std::make_shared<AllStructuresClass>(GraphZooSchema());
  if (traced) request.trace = std::make_shared<TraceRecorder>();
  return request;
}

TEST(TraceServiceTest, ColdQuerySpanTreeCoversQueueBuildAndBfs) {
  QueryService service(QueryService::Options{});
  QueryResult result = service.Submit(ReachRedRequest(/*traced=*/true)).get();
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_NE(result.trace, nullptr);

  const std::vector<TraceSpan> spans = result.trace->Snapshot();
  const std::vector<TraceSpan> roots = SpansNamed(spans, "query");
  ASSERT_EQ(roots.size(), 1u);
  EXPECT_EQ(roots[0].parent, -1);
  const TraceAnnotation* role = FindAnnotation(roots[0], "role");
  ASSERT_NE(role, nullptr);
  EXPECT_EQ(role->value, "leader");
  ASSERT_EQ(SpansNamed(spans, "queue_wait").size(), 1u);
  ASSERT_EQ(SpansNamed(spans, "lead_build").size(), 1u);
  ASSERT_EQ(SpansNamed(spans, "solve").size(), 1u);
  EXPECT_FALSE(SpansNamed(spans, "sweep_initial").empty());
  EXPECT_FALSE(SpansNamed(spans, "cache_lookup").empty());
}

TEST(TraceServiceTest, CacheHitTraceSkipsTheSweeps) {
  QueryService service(QueryService::Options{});
  ASSERT_TRUE(service.Submit(ReachRedRequest()).get().ok);  // warm the cache
  QueryResult result = service.Submit(ReachRedRequest(/*traced=*/true)).get();
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_TRUE(result.stats.graph_from_cache);
  ASSERT_NE(result.trace, nullptr);

  const std::vector<TraceSpan> spans = result.trace->Snapshot();
  const std::vector<TraceSpan> lookups = SpansNamed(spans, "cache_lookup");
  ASSERT_EQ(lookups.size(), 1u);
  const TraceAnnotation* hit = FindAnnotation(lookups[0], "hit");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->value, "1");
  EXPECT_TRUE(SpansNamed(spans, "sweep_initial").empty())
      << "a complete cached graph is replayed, never re-swept";
  EXPECT_FALSE(SpansNamed(spans, "bfs_replay").empty());
}

TEST(TraceServiceTest, CoalescedJoinerRecordsItsWait) {
  QueryService::Options options;
  options.num_workers = 8;
  QueryService service(options);
  std::vector<QueryRequest> batch;
  for (int i = 0; i < 8; ++i) batch.push_back(ReachRedRequest(true));
  std::vector<std::future<QueryResult>> futures =
      service.SubmitBatch(std::move(batch));

  int joiners = 0;
  int leaders = 0;
  for (auto& future : futures) {
    QueryResult result = future.get();
    ASSERT_TRUE(result.ok) << result.error;
    ASSERT_NE(result.trace, nullptr);
    const std::vector<TraceSpan> spans = result.trace->Snapshot();
    if (result.coalesced) {
      ++joiners;
      EXPECT_EQ(SpansNamed(spans, "coalesced_wait").size(), 1u);
      EXPECT_EQ(SpansNamed(spans, "run").size(), 1u);
      EXPECT_TRUE(SpansNamed(spans, "lead_build").empty());
    } else {
      ++leaders;
      EXPECT_EQ(SpansNamed(spans, "lead_build").size(), 1u);
      EXPECT_TRUE(SpansNamed(spans, "coalesced_wait").empty());
    }
  }
  EXPECT_EQ(leaders, 1);
  EXPECT_EQ(joiners, 7);
}

// Two systems that share a graph cache key but differ in acceptance: the
// accepting variant early-exits and caches a partial graph; the
// non-accepting one must resume it (see service_test.cc for the
// single-flight version of this setup).
DdsSystem RedProbeSystem(bool accepting) {
  DdsSystem system(GraphZooSchema());
  system.AddRegister("x");
  const int s = system.AddState("s", /*initial=*/true);
  const int t = system.AddState("t", /*initial=*/false, accepting);
  system.AddRule(s, t, "red(x_new)");
  return system;
}

TEST(TraceServiceTest, ResumedFlightAnnotatesTheCursor) {
  QueryService service(QueryService::Options{});
  auto cls = std::make_shared<AllStructuresClass>(GraphZooSchema());
  QueryRequest seed;
  seed.kind = QueryKind::kSystem;
  seed.system = std::make_shared<DdsSystem>(RedProbeSystem(true));
  seed.cls = cls;
  QueryResult seeded = service.Submit(std::move(seed)).get();
  ASSERT_TRUE(seeded.ok) << seeded.error;
  ASSERT_TRUE(seeded.nonempty) << "the accepting probe must early-exit";

  QueryRequest resume;
  resume.kind = QueryKind::kSystem;
  resume.system = std::make_shared<DdsSystem>(RedProbeSystem(false));
  resume.cls = cls;
  resume.trace = std::make_shared<TraceRecorder>();
  QueryResult result = service.Submit(std::move(resume)).get();
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_TRUE(result.stats.graph_resumed)
      << "the shared key must hold a partial entry";
  ASSERT_NE(result.trace, nullptr);

  const std::vector<TraceSpan> spans = result.trace->Snapshot();
  const std::vector<TraceSpan> solves = SpansNamed(spans, "solve");
  ASSERT_EQ(solves.size(), 1u);
  const TraceAnnotation* phase =
      FindAnnotation(solves[0], "resumed_from_phase");
  ASSERT_NE(phase, nullptr) << "a resumed solve must name its cursor phase";
  EXPECT_TRUE(phase->is_number);
  EXPECT_NE(FindAnnotation(solves[0], "resumed_from_member"), nullptr);
}

TEST(TraceServiceTest, UntracedQueryRecordsZeroSpans) {
  QueryService service(QueryService::Options{});
  QueryResult result = service.Submit(ReachRedRequest()).get();
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.trace, nullptr)
      << "no recorder is ever allocated for an untraced query";
}

// ---- Protocol-level: the in-band "trace" member. ----

TEST(TraceProtocolTest, TracedLineReturnsSpanTreeInBand) {
  QueryService service(QueryService::Options{});
  Session::Options sopts;
  std::vector<std::string> lines;
  std::mutex lines_mutex;
  {
    Session session(service, sopts, [&](const std::string& line) {
      std::lock_guard<std::mutex> lock(lines_mutex);
      lines.push_back(line);
    });
    session.HandleLine(
        R"({"id":1,"kind":"system","class":"all","system":"reach_red","trace":true})");
    session.HandleLine(
        R"({"id":2,"kind":"system","class":"all","system":"reach_red"})");
    session.Flush();
  }
  ASSERT_EQ(lines.size(), 2u);

  const std::optional<JsonValue> traced = ParseJson(lines[0]);
  ASSERT_TRUE(traced.has_value()) << lines[0];
  ASSERT_TRUE(traced->GetBool("ok"));
  const JsonValue* tree = traced->Get("trace");
  ASSERT_NE(tree, nullptr) << "a traced query answers with its span tree";
  ASSERT_TRUE(tree->is_array());
  ASSERT_EQ(tree->array.size(), 1u);
  const JsonValue& root = tree->array[0];
  EXPECT_EQ(root.GetString("name"), "query");
  // The root's children cover the whole service-side life of the query:
  // queue wait and the build (whose own subtree holds solve/BFS phases).
  const JsonValue* children = root.Get("children");
  ASSERT_NE(children, nullptr);
  bool saw_queue_wait = false;
  bool saw_build = false;
  for (const JsonValue& child : children->array) {
    if (child.GetString("name") == "queue_wait") saw_queue_wait = true;
    if (child.GetString("name") == "lead_build") saw_build = true;
  }
  EXPECT_TRUE(saw_queue_wait);
  EXPECT_TRUE(saw_build);

  const std::optional<JsonValue> untraced = ParseJson(lines[1]);
  ASSERT_TRUE(untraced.has_value());
  ASSERT_TRUE(untraced->GetBool("ok"));
  EXPECT_EQ(untraced->Get("trace"), nullptr)
      << "an untraced response carries no trace member at all";
}

}  // namespace
}  // namespace amalgam
