// Tests for the persistent graph store: serialize/deserialize round trips
// must be byte-identical across the system/words/trees zoos, a complete
// graph persisted by one "process" (GraphCache instance) must serve a
// fresh one with zero enumeration, a persisted *partial* graph must resume
// — enumerating strictly fewer members than a cold build and finishing
// bit-identical to it — and corrupt or truncated files must fall back to
// a fresh build instead of crashing.
//
// Store directories default to the test temp dir; set AMALGAM_STORE_TEST_DIR
// to relocate them (CI points it into the build tree and uploads the
// result as an artifact).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <sys/time.h>

#include "fraisse/relational.h"
#include "service/maintenance.h"
#include "service/service.h"
#include "solver/branching.h"
#include "solver/cache.h"
#include "solver/emptiness.h"
#include "solver/store.h"
#include "system/concrete.h"
#include "system/zoo.h"
#include "trees/run_class.h"
#include "trees/solve.h"
#include "trees/zoo.h"
#include "words/run_class.h"
#include "words/solve.h"
#include "words/zoo.h"

namespace amalgam {
namespace {

namespace fs = std::filesystem;

// A fresh, empty store directory for one test. Left in place afterwards so
// CI can upload the persisted files.
std::string StoreDir(const std::string& name) {
  const char* env = std::getenv("AMALGAM_STORE_TEST_DIR");
  const fs::path base =
      (env && *env) ? fs::path(env) : fs::path(::testing::TempDir());
  const fs::path dir = base / ("graph_store_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::vector<FormulaRef> GuardsOf(const DdsSystem& system) {
  std::vector<FormulaRef> guards;
  for (const TransitionRule& rule : system.rules()) {
    guards.push_back(rule.guard);
  }
  return guards;
}

void ExpectRoundTripIdentical(const SubTransitionGraph& graph,
                              const std::string& key, const SchemaRef& schema,
                              std::span<const FormulaRef> guards, int k) {
  const std::string bytes = SerializeGraph(graph, key);
  std::shared_ptr<SubTransitionGraph> restored =
      DeserializeGraph(bytes, key, schema, guards, k);
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->num_shapes(), graph.num_shapes());
  EXPECT_EQ(restored->num_edges(), graph.num_edges());
  EXPECT_EQ(restored->cursor(), graph.cursor());
  EXPECT_EQ(restored->complete(), graph.complete());
  EXPECT_EQ(SerializeGraph(*restored, key), bytes)
      << "serialize(deserialize(bytes)) must be byte-identical";
}

TEST(StoreTest, CompleteGraphsRoundTripByteIdenticalAcrossTheZoos) {
  // System zoo over the relational class.
  AllStructuresClass all(GraphZooSchema());
  for (const DdsSystem& system :
       {OddRedCycleSystem(), ReachRedSystem(), ContradictionSystem()}) {
    std::vector<FormulaRef> guards = GuardsOf(system);
    const int k = system.num_registers();
    SubTransitionGraph graph(guards, k);
    SolveStats stats;
    graph.BuildFull(all, stats);
    ExpectRoundTripIdentical(graph, GraphCache::Key(all, k, guards),
                             all.schema(), guards, k);
  }

  // Words zoo: run-pattern class of an NFA.
  {
    DdsSystem system = ZigZagSystem(1);
    WordRunClass cls(NfaAPlusBPlus());
    std::vector<FormulaRef> guards = GuardsOf(system);
    const int k = system.num_registers();
    SubTransitionGraph graph(guards, k);
    SolveStats stats;
    graph.BuildFull(cls, stats);
    ExpectRoundTripIdentical(graph, GraphCache::Key(cls, k, guards),
                             cls.schema(), guards, k);
  }

  // Trees zoo: run-pattern class of a tree automaton.
  {
    TreeAutomaton two = TaTwoLevel();
    DdsSystem system = DescendSystem(two, 1);
    TreeRunClass cls(&two, 3);
    std::vector<FormulaRef> guards = GuardsOf(system);
    const int k = system.num_registers();
    SubTransitionGraph graph(guards, k);
    SolveStats stats;
    graph.BuildFull(cls, stats);
    ExpectRoundTripIdentical(graph, GraphCache::Key(cls, k, guards),
                             cls.schema(), guards, k);
  }
}

TEST(StoreTest, PartialGraphsRoundTripWithTheirCursor) {
  // An early-exited on-the-fly query leaves a partial graph in the cache;
  // its serialization must carry the cursor and restore bit-identically.
  AllStructuresClass all(GraphZooSchema());
  DdsSystem system = ReachRedSystem();
  // The engine's guard set and key: the sorted distinct guards.
  const GraphSpec spec =
      GraphSpecFor(BorrowBackend(all), system, /*keyed=*/true);
  const std::vector<FormulaRef>& guards = spec.guards;
  const int k = spec.k;
  GraphCache cache;
  SolveOptions options;
  options.build_witness = false;
  options.cache = &cache;
  SolveResult r = SolveEmptiness(system, all, options);
  ASSERT_TRUE(r.nonempty);

  const std::string& key = spec.key;
  std::shared_ptr<const SubTransitionGraph> partial = cache.Lookup(key);
  ASSERT_NE(partial, nullptr);
  ASSERT_FALSE(partial->complete()) << "nonempty query should early-exit";
  EXPECT_GT(partial->num_shapes(), 0);
  ExpectRoundTripIdentical(*partial, key, all.schema(), guards, k);
}

TEST(StoreTest, CompleteGraphServesAFreshProcessWithZeroEnumeration) {
  const std::string dir = StoreDir("fresh_process");
  AllStructuresClass all(GraphZooSchema());
  DdsSystem system = ContradictionSystem();  // empty: builds to completion

  SolveOptions first;
  first.build_witness = false;
  first.store_dir = dir;
  SolveResult built = SolveEmptiness(system, all, first);
  EXPECT_FALSE(built.nonempty);
  EXPECT_FALSE(built.stats.graph_from_cache);
  EXPECT_GT(built.stats.members_enumerated, 0u);
  ASSERT_FALSE(fs::is_empty(dir)) << "the complete graph must be persisted";

  // A fresh process: nothing shared with the first query but the
  // directory.
  GraphCache fresh;
  fresh.AttachStore(dir);
  SolveOptions second;
  second.build_witness = false;
  second.cache = &fresh;
  SolveResult served = SolveEmptiness(system, all, second);
  EXPECT_TRUE(served.stats.graph_from_cache);
  EXPECT_FALSE(served.stats.graph_resumed);
  EXPECT_EQ(served.stats.members_enumerated, 0u);
  EXPECT_EQ(served.stats.guard_evaluations, 0u);
  EXPECT_EQ(served.nonempty, built.nonempty);
  EXPECT_EQ(served.stats.edges, built.stats.edges);
  EXPECT_EQ(served.stats.configs, built.stats.configs);
  EXPECT_EQ(fresh.store_loads(), 1u);
  EXPECT_EQ(fresh.store_load_failures(), 0u);
}

TEST(StoreTest, PartialGraphResumesAcrossProcessesWithFewerMembers) {
  const std::string dir = StoreDir("partial_resume");
  AllStructuresClass all(GraphZooSchema());

  DdsSystem reach(GraphZooSchema());
  reach.AddRegister("x");
  int a1 = reach.AddState("a", true);
  int b1 = reach.AddState("b", false, true);
  reach.AddRule(a1, b1, "E(x_old, x_new)");

  DdsSystem dead(GraphZooSchema());
  dead.AddRegister("x");
  int a2 = dead.AddState("a", true);
  int b2 = dead.AddState("b");
  dead.AddRule(a2, b2, "E(x_old, x_new)");

  SolveOptions plain;
  plain.build_witness = false;
  const SolveResult cold = SolveEmptiness(dead, all, plain);
  ASSERT_GT(cold.stats.members_enumerated, 0u);

  // Process 1: nonempty query early-exits; the partial graph hits disk.
  GraphCache writer;
  writer.AttachStore(dir);
  SolveOptions first = plain;
  first.cache = &writer;
  SolveResult r1 = SolveEmptiness(reach, all, first);
  EXPECT_TRUE(r1.nonempty);
  EXPECT_GT(writer.store_writes(), 0u);

  // Process 2: same guard set, empty verdict — needs the rest of the
  // class, resumed from the stored cursor.
  GraphCache reader;
  reader.AttachStore(dir);
  SolveOptions second = plain;
  second.cache = &reader;
  SolveResult r2 = SolveEmptiness(dead, all, second);
  EXPECT_FALSE(r2.nonempty);
  EXPECT_TRUE(r2.stats.graph_from_cache);
  EXPECT_TRUE(r2.stats.graph_resumed);
  EXPECT_GT(r2.stats.members_enumerated, 0u);
  EXPECT_LT(r2.stats.members_enumerated, cold.stats.members_enumerated)
      << "a resumed build must enumerate strictly fewer members than a "
         "cold build";
  EXPECT_EQ(r2.stats.edges, cold.stats.edges);

  // Process 3: the resumed build upgraded the stored graph to complete.
  GraphCache third;
  third.AttachStore(dir);
  SolveOptions final_query = plain;
  final_query.cache = &third;
  SolveResult r3 = SolveEmptiness(dead, all, final_query);
  EXPECT_EQ(r3.stats.members_enumerated, 0u);
  EXPECT_FALSE(r3.stats.graph_resumed);
  EXPECT_FALSE(r3.nonempty);
}

TEST(StoreTest, ResumedBuildsAreBitIdenticalToColdBuilds) {
  AllStructuresClass all(GraphZooSchema());
  DdsSystem system = ReachRedSystem();
  // The engine's guard set and key: the sorted distinct guards.
  const GraphSpec spec =
      GraphSpecFor(BorrowBackend(all), system, /*keyed=*/true);
  const std::vector<FormulaRef>& guards = spec.guards;
  const int k = spec.k;
  const std::string& key = spec.key;

  // A partial graph from an early-exited query...
  GraphCache cache;
  SolveOptions options;
  options.build_witness = false;
  options.cache = &cache;
  ASSERT_TRUE(SolveEmptiness(system, all, options).nonempty);
  std::shared_ptr<const SubTransitionGraph> partial = cache.Lookup(key);
  ASSERT_NE(partial, nullptr);
  ASSERT_FALSE(partial->complete());

  // ...finished serially and in parallel, against a cold full build.
  SubTransitionGraph cold(guards, k);
  SolveStats cold_stats;
  cold.BuildFull(all, cold_stats);

  SubTransitionGraph resumed(*partial);
  SolveStats resumed_stats;
  resumed.BuildFull(all, resumed_stats);
  EXPECT_LT(resumed_stats.members_enumerated, cold_stats.members_enumerated);
  EXPECT_EQ(SerializeGraph(resumed, key), SerializeGraph(cold, key));

  SubTransitionGraph resumed_parallel(*partial);
  SolveStats parallel_stats;
  resumed_parallel.BuildFullParallel(all, 4, parallel_stats);
  EXPECT_EQ(SerializeGraph(resumed_parallel, key), SerializeGraph(cold, key));

  // And a restored copy resumes just like the in-memory original.
  std::shared_ptr<SubTransitionGraph> reloaded = DeserializeGraph(
      SerializeGraph(*partial, key), key, all.schema(), guards, k);
  ASSERT_NE(reloaded, nullptr);
  SolveStats reloaded_stats;
  reloaded->BuildFull(all, reloaded_stats);
  EXPECT_EQ(SerializeGraph(*reloaded, key), SerializeGraph(cold, key));
}

// FNV-1a over a whole record, to pin one without embedding its bytes.
std::uint64_t Fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

TEST(StoreTest, SortedDistinctRuleGuardRecordsStayValidAcrossTheGuardSetKey) {
  // Keys name the sorted distinct guard set. A system whose rule guards
  // were already sorted and distinct had a per-rule key equal to that, and
  // the graph is the same, so its AMGS v1 record keeps serving. The size
  // and FNV-1a pin the record written when keys and graphs had one slot
  // per rule.
  const std::string dir = StoreDir("sorted_distinct_compat");
  AllStructuresClass all(GraphZooSchema());
  DdsSystem system(GraphZooSchema());
  system.AddRegister("x");
  int a = system.AddState("a", true);
  int b = system.AddState("b");
  int c = system.AddState("c", false, true);
  system.AddRule(a, b, "E(x_old, x_new)");  // "E(v0, v1)" < "red(v1)"
  system.AddRule(b, c, "red(x_new)");
  const GraphSpec spec =
      GraphSpecFor(BorrowBackend(all), system, /*keyed=*/true);
  ASSERT_EQ(spec.key, GraphCache::Key(all, 1, GuardsOf(system)));

  SolveOptions eager;
  eager.build_witness = false;
  eager.strategy = SolveStrategy::kEager;
  eager.store_dir = dir;
  const SolveResult built = SolveEmptiness(system, all, eager);
  ASSERT_TRUE(built.nonempty);
  const std::string path = GraphStore(dir).PathFor(spec.key);
  const std::string bytes = ReadFile(path);
  EXPECT_EQ(bytes.size(), 470u);
  EXPECT_EQ(Fnv1a(bytes), 0x0f5fcfae97dff881ull)
      << "the record differs from the per-rule layout's";

  std::shared_ptr<SubTransitionGraph> restored =
      DeserializeGraph(bytes, spec.key, all.schema(), spec.guards, spec.k);
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(SerializeGraph(*restored, spec.key), bytes);
  GraphCache fresh;
  fresh.AttachStore(dir);
  SolveOptions served_options;
  served_options.build_witness = false;
  served_options.cache = &fresh;
  const SolveResult served = SolveEmptiness(system, all, served_options);
  EXPECT_TRUE(served.stats.graph_from_cache);
  EXPECT_EQ(served.stats.members_enumerated, 0u);
  EXPECT_EQ(served.nonempty, built.nonempty);
  EXPECT_EQ(ReadFile(path), bytes);
}

TEST(StoreTest, PerRuleKeysWithDuplicatesOrDisorderAreNeverMatched) {
  // A record keyed by a per-rule guard list that repeats or misorders a
  // guard names a graph with a different slot layout. No query asks for
  // that key any more, and its bytes never load under the guard-set key,
  // so the query rebuilds instead of misreading the record.
  AllStructuresClass all(GraphZooSchema());
  DdsSystem repeated(GraphZooSchema());
  repeated.AddRegister("x");
  {
    int a = repeated.AddState("a", true);
    int b = repeated.AddState("b");
    int c = repeated.AddState("c", false, true);
    repeated.AddRule(a, b, "E(x_old, x_new)");
    repeated.AddRule(b, b, "E(x_old, x_new)");
    repeated.AddRule(b, c, "red(x_new)");
  }
  DdsSystem disordered(GraphZooSchema());
  disordered.AddRegister("x");
  {
    int a = disordered.AddState("a", true);
    int b = disordered.AddState("b", false, true);
    disordered.AddRule(a, b, "red(x_new)");
    disordered.AddRule(a, a, "E(x_old, x_new)");
  }
  for (const DdsSystem* system : {&repeated, &disordered}) {
    const std::string dir = StoreDir(
        system == &repeated ? "per_rule_repeated" : "per_rule_disordered");
    const int k = system->num_registers();
    const std::vector<FormulaRef> per_rule = GuardsOf(*system);
    const std::string old_key = GraphCache::Key(all, k, per_rule);
    const GraphSpec spec =
        GraphSpecFor(BorrowBackend(all), *system, /*keyed=*/true);
    EXPECT_NE(spec.key, old_key);

    // The record a one-slot-per-rule build wrote.
    SubTransitionGraph old_graph(per_rule, k);
    SolveStats old_stats;
    old_graph.BuildFull(all, old_stats);
    const std::string old_bytes = SerializeGraph(old_graph, old_key);
    ASSERT_TRUE(GraphStore(dir).Save(old_key, old_graph));
    EXPECT_EQ(DeserializeGraph(old_bytes, spec.key, all.schema(),
                               spec.guards, k),
              nullptr);

    GraphCache cache;
    cache.AttachStore(dir);
    SolveOptions options;
    options.build_witness = false;
    options.strategy = SolveStrategy::kEager;
    options.cache = &cache;
    const SolveResult r = SolveEmptiness(*system, all, options);
    EXPECT_FALSE(r.stats.graph_from_cache);
    EXPECT_GT(r.stats.members_enumerated, 0u);
    EXPECT_EQ(cache.store_load_failures(), 0u);
    EXPECT_EQ(cache.store_writes(), 1u);
    EXPECT_EQ(ReadFile(GraphStore(dir).PathFor(old_key)), old_bytes)
        << "the old record is left alone";
  }
}

TEST(StoreTest, CorruptOrTruncatedFilesFallBackToAFreshBuild) {
  const std::string dir = StoreDir("corrupt_fallback");
  AllStructuresClass all(GraphZooSchema());
  DdsSystem system = ContradictionSystem();
  std::vector<FormulaRef> guards = GuardsOf(system);
  const int k = system.num_registers();
  const std::string key = GraphCache::Key(all, k, guards);

  SolveOptions seed;
  seed.build_witness = false;
  seed.store_dir = dir;
  const SolveResult reference = SolveEmptiness(system, all, seed);

  const std::string path = GraphStore(dir).PathFor(key);
  ASSERT_TRUE(fs::exists(path));
  const auto full_size = fs::file_size(path);

  auto query_against_store = [&](std::uint64_t* load_failures) {
    GraphCache cache;
    cache.AttachStore(dir);
    SolveOptions options;
    options.build_witness = false;
    options.cache = &cache;
    SolveResult r = SolveEmptiness(system, all, options);
    *load_failures = cache.store_load_failures();
    return r;
  };

  // Truncated file: the query must rebuild, not crash — and the rebuild
  // overwrites the damage.
  fs::resize_file(path, full_size / 2);
  std::uint64_t failures = 0;
  SolveResult after_truncation = query_against_store(&failures);
  EXPECT_EQ(failures, 1u);
  EXPECT_FALSE(after_truncation.stats.graph_from_cache);
  EXPECT_GT(after_truncation.stats.members_enumerated, 0u);
  EXPECT_EQ(after_truncation.nonempty, reference.nonempty);
  EXPECT_EQ(fs::file_size(path), full_size) << "rebuild must repair the file";

  // Flipped byte in the middle: caught by the checksum.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(static_cast<std::streamoff>(full_size / 2));
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5a);
    f.seekp(static_cast<std::streamoff>(full_size / 2));
    f.write(&byte, 1);
  }
  SolveResult after_corruption = query_against_store(&failures);
  EXPECT_EQ(failures, 1u);
  EXPECT_FALSE(after_corruption.stats.graph_from_cache);
  EXPECT_EQ(after_corruption.nonempty, reference.nonempty);

  // Empty file (e.g. a crashed writer before the atomic rename existed).
  { std::ofstream wipe(path, std::ios::binary | std::ios::trunc); }
  SolveResult after_wipe = query_against_store(&failures);
  EXPECT_EQ(failures, 1u);
  EXPECT_EQ(after_wipe.nonempty, reference.nonempty);

  // And once repaired, a fresh cache serves from disk again.
  std::uint64_t no_failures = 0;
  SolveResult healthy = query_against_store(&no_failures);
  EXPECT_EQ(no_failures, 0u);
  EXPECT_TRUE(healthy.stats.graph_from_cache);
  EXPECT_EQ(healthy.stats.members_enumerated, 0u);
}

TEST(StoreTest, DeserializeRejectsMismatchedContext) {
  AllStructuresClass all(GraphZooSchema());
  DdsSystem system = ContradictionSystem();
  std::vector<FormulaRef> guards = GuardsOf(system);
  const int k = system.num_registers();
  const std::string key = GraphCache::Key(all, k, guards);
  SubTransitionGraph graph(guards, k);
  SolveStats stats;
  graph.BuildFull(all, stats);
  const std::string bytes = SerializeGraph(graph, key);

  EXPECT_NE(DeserializeGraph(bytes, key, all.schema(), guards, k), nullptr);
  // Wrong key (a filename hash collision would look like this).
  EXPECT_EQ(DeserializeGraph(bytes, "other", all.schema(), guards, k),
            nullptr);
  // Wrong register count.
  EXPECT_EQ(DeserializeGraph(bytes, key, all.schema(), guards, k + 1),
            nullptr);
  // Wrong guard count.
  std::vector<FormulaRef> no_guards;
  EXPECT_EQ(DeserializeGraph(bytes, key, all.schema(), no_guards, k),
            nullptr);
  // Wrong schema.
  LinearOrderClass orders;
  EXPECT_EQ(DeserializeGraph(bytes, key, orders.schema(), guards, k),
            nullptr);
}

TEST(StoreTest, WordTreeAndBranchingFrontDoorsPersist) {
  // Words: a nonempty query persists a partial graph whose explored region
  // already contains the goal — the "second process" answers with zero
  // enumeration and still reconstructs a valid witness from the restored
  // steps.
  {
    const std::string dir = StoreDir("words");
    DdsSystem system = ZigZagSystem(1);
    Nfa nfa = NfaAPlusBPlus();
    WordSolveResult first =
        SolveWordEmptiness(system, nfa, true, SolveStrategy::kOnTheFly,
                           nullptr, 1, dir);
    WordSolveResult second =
        SolveWordEmptiness(system, nfa, true, SolveStrategy::kOnTheFly,
                           nullptr, 1, dir);
    EXPECT_EQ(first.nonempty, second.nonempty);
    EXPECT_GT(first.stats.members_enumerated, 0u);
    EXPECT_EQ(second.stats.members_enumerated, 0u);
    EXPECT_TRUE(second.stats.graph_from_cache);
    if (second.nonempty && second.witness.has_value()) {
      EXPECT_TRUE(nfa.Accepts(second.witness->letters));
    }
  }

  // Trees.
  {
    const std::string dir = StoreDir("trees");
    TreeAutomaton two = TaTwoLevel();
    DdsSystem system = DescendSystem(two, 1);
    TreeSolveResult first = SolveTreeEmptiness(
        system, two, 0, 3, SolveStrategy::kOnTheFly, nullptr, 1, dir);
    TreeSolveResult second = SolveTreeEmptiness(
        system, two, 0, 3, SolveStrategy::kOnTheFly, nullptr, 1, dir);
    EXPECT_EQ(first.nonempty, second.nonempty);
    EXPECT_GT(first.stats.members_enumerated, 0u);
    EXPECT_EQ(second.stats.members_enumerated, 0u);
  }

  // Branching: always builds to completion, so the second query is a pure
  // store hit.
  {
    const std::string dir = StoreDir("branching");
    AllStructuresClass all(GraphZooSchema());
    BranchingSystem bs(GraphZooSchema());
    bs.AddRegister("x");
    int start = bs.AddState("start", true);
    int red = bs.AddState("red_found", false, true);
    int white = bs.AddState("white_found", false, true);
    bs.AddRule(start, {{"E(x_old, x_new) & red(x_new)", red},
                       {"E(x_old, x_new) & !red(x_new)", white}});
    BranchingSolveResult first =
        SolveBranchingEmptiness(bs, all, nullptr, 1, dir);
    BranchingSolveResult second =
        SolveBranchingEmptiness(bs, all, nullptr, 1, dir);
    EXPECT_EQ(first.nonempty, second.nonempty);
    EXPECT_GT(first.stats.members_enumerated, 0u);
    EXPECT_EQ(second.stats.members_enumerated, 0u);
    EXPECT_TRUE(second.stats.graph_from_cache);
  }

  // And across front doors: a linear query's partial graph feeds a
  // branching query over the same guard set, which resumes rather than
  // rebuilds.
  {
    const std::string dir = StoreDir("cross_front_door");
    AllStructuresClass all(GraphZooSchema());
    DdsSystem linear(GraphZooSchema());
    linear.AddRegister("x");
    int a = linear.AddState("a", true);
    int b = linear.AddState("b", false, true);
    linear.AddRule(a, b, "E(x_old, x_new)");
    SolveOptions options;
    options.build_witness = false;
    options.store_dir = dir;
    ASSERT_TRUE(SolveEmptiness(linear, all, options).nonempty);

    BranchingSystem mirrored(GraphZooSchema());
    mirrored.AddRegister("x");
    int ma = mirrored.AddState("a", true);
    int mb = mirrored.AddState("b", false, true);
    mirrored.AddRule(ma, {Branch{linear.rules()[0].guard, mb}});
    BranchingSolveResult resumed =
        SolveBranchingEmptiness(mirrored, all, nullptr, 1, dir);
    EXPECT_TRUE(resumed.stats.graph_from_cache);
    EXPECT_TRUE(resumed.stats.graph_resumed);
    EXPECT_TRUE(resumed.nonempty);
  }
}

// Backdates a store file's atime and mtime so Sweep's LRU order is
// deterministic regardless of timestamp granularity.
void BackdateFile(const std::string& path, int seconds_ago) {
  struct timeval times[2];
  ::gettimeofday(&times[0], nullptr);
  times[0].tv_sec -= seconds_ago;
  times[1] = times[0];
  ASSERT_EQ(::utimes(path.c_str(), times), 0) << path;
}

TEST(StoreTest, SweepEvictsLeastRecentlyUsedFilesFirst) {
  const std::string dir = StoreDir("sweep_lru");
  GraphStore store(dir);
  AllStructuresClass all(GraphZooSchema());

  // Three keys with distinct guard sets -> three files of similar size.
  std::vector<std::string> keys;
  std::vector<std::vector<FormulaRef>> guard_sets;
  for (const DdsSystem& system :
       {OddRedCycleSystem(), ReachRedSystem(), ContradictionSystem()}) {
    std::vector<FormulaRef> guards = GuardsOf(system);
    auto graph = std::make_shared<SubTransitionGraph>(guards,
                                                      system.num_registers());
    SolveStats stats;
    graph->BuildFull(all, stats);
    const std::string key =
        GraphCache::Key(all, system.num_registers(), guards);
    ASSERT_TRUE(store.Save(key, *graph));
    keys.push_back(key);
    guard_sets.push_back(std::move(guards));
  }
  // Ages: keys[0] oldest, keys[2] freshest.
  BackdateFile(store.PathFor(keys[0]), 300);
  BackdateFile(store.PathFor(keys[1]), 200);
  BackdateFile(store.PathFor(keys[2]), 100);

  StoreSweepResult swept = store.Sweep(/*max_bytes=*/0, /*max_files=*/2);
  EXPECT_EQ(swept.files_removed, 1u);
  EXPECT_EQ(swept.files_kept, 2u);
  EXPECT_GT(swept.bytes_removed, 0u);
  EXPECT_FALSE(fs::exists(store.PathFor(keys[0])))
      << "the least recently used file goes first";
  EXPECT_TRUE(fs::exists(store.PathFor(keys[1])));
  EXPECT_TRUE(fs::exists(store.PathFor(keys[2])));

  // A byte cap of 1 clears everything (each file exceeds one byte); the
  // evicted keys just rebuild on their next query.
  swept = store.Sweep(/*max_bytes=*/1, /*max_files=*/0);
  EXPECT_EQ(swept.files_removed, 2u);
  EXPECT_EQ(swept.files_kept, 0u);
  EXPECT_EQ(swept.bytes_kept, 0u);
}

TEST(StoreTest, SweepWithoutCapsIsANoOp) {
  const std::string dir = StoreDir("sweep_noop");
  GraphStore store(dir);
  AllStructuresClass all(GraphZooSchema());
  DdsSystem system = ContradictionSystem();
  std::vector<FormulaRef> guards = GuardsOf(system);
  auto graph =
      std::make_shared<SubTransitionGraph>(guards, system.num_registers());
  SolveStats stats;
  graph->BuildFull(all, stats);
  const std::string key = GraphCache::Key(all, system.num_registers(), guards);
  ASSERT_TRUE(store.Save(key, *graph));

  StoreSweepResult swept = store.Sweep(0, 0);
  EXPECT_EQ(swept.files_removed, 0u);
  EXPECT_EQ(swept.files_kept, 0u) << "an uncapped sweep does not even scan";
  EXPECT_TRUE(fs::exists(store.PathFor(key)));

  // Foreign files and in-flight temp files are never touched.
  std::ofstream(dir + "/notes.txt") << "keep me";
  std::ofstream(store.PathFor(key) + ".tmp.123.0") << "half a write";
  swept = store.Sweep(/*max_bytes=*/1, /*max_files=*/0);
  EXPECT_EQ(swept.files_removed, 1u);
  EXPECT_TRUE(fs::exists(dir + "/notes.txt"));
  EXPECT_TRUE(fs::exists(store.PathFor(key) + ".tmp.123.0"));
}

TEST(StoreTest, SolveOptionsSweepKnobCapsTheStore) {
  const std::string dir = StoreDir("sweep_knob");
  AllStructuresClass all(GraphZooSchema());
  GraphCache cache;
  cache.AttachStore(dir);

  // Build up two persisted graphs, then run a third query with a
  // one-file cap: after it completes the directory must hold one file.
  for (const DdsSystem& system : {OddRedCycleSystem(), ReachRedSystem()}) {
    SolveOptions options;
    options.build_witness = false;
    options.strategy = SolveStrategy::kEager;
    options.cache = &cache;
    SolveEmptiness(system, all, options);
  }
  SolveOptions capped;
  capped.build_witness = false;
  capped.strategy = SolveStrategy::kEager;
  capped.cache = &cache;
  capped.store_max_files = 1;
  SolveResult r = SolveEmptiness(ContradictionSystem(), all, capped);
  EXPECT_FALSE(r.nonempty);

  std::size_t amg_files = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    amg_files += entry.path().extension() == ".amg";
  }
  EXPECT_EQ(amg_files, 1u);
}

// A system over the graph zoo's schema whose single rule carries the
// `i`-th of 32 distinct guards (a sign pattern over five literals), so
// each `i` asks for its own graph key. One register keeps every build
// cheap.
std::shared_ptr<DdsSystem> DistinctGuardSystem(int i) {
  const char* literals[] = {"red(x_old)", "red(x_new)", "E(x_old, x_new)",
                            "E(x_new, x_old)", "x_old = x_new"};
  std::string guard;
  for (int bit = 0; bit < 5; ++bit) {
    if (bit > 0) guard += " & ";
    if (!((i >> bit) & 1)) guard += "!";
    guard += literals[bit];
  }
  auto system = std::make_shared<DdsSystem>(GraphZooSchema());
  system->AddRegister("x");
  const int from = system->AddState("a", /*initial=*/true);
  const int to = system->AddState("b", /*initial=*/false, /*accepting=*/true);
  system->AddRule(from, to, guard);
  return system;
}

TEST(StoreTest, DiskCapsBoundEveryGraphFileAcrossMaintenancePasses) {
  // Thirty keys through a service capped at ten files, with a maintenance
  // pass (default options) after every ten: the cap must bound the whole
  // store, so no pass may move graphs anywhere the sweep does not look.
  const std::string dir = StoreDir("caps_bound_store");
  AllStructuresClass all(GraphZooSchema());
  QueryService::Options options;
  options.store_dir = dir;
  options.store_max_files = 10;
  QueryService service(options);
  MaintenanceLoop loop(service, MaintenanceOptions{});

  constexpr int kKeys = 30;
  std::vector<std::shared_ptr<DdsSystem>> systems;
  for (int i = 0; i < kKeys; ++i) {
    QueryRequest request;
    request.kind = QueryKind::kSystem;
    request.system = systems.emplace_back(DistinctGuardSystem(i));
    request.cls = std::make_shared<AllStructuresClass>(GraphZooSchema());
    request.strategy = SolveStrategy::kEager;
    const QueryResult r = service.Submit(std::move(request)).get();
    ASSERT_TRUE(r.ok) << r.error;
    if ((i + 1) % 10 == 0) loop.RunOnce();
  }
  loop.Stop();
  service.Shutdown();

  std::size_t graph_files = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    graph_files += entry.path().extension() == ".amg";
  }
  EXPECT_LE(graph_files, 10u);
  GraphStore store(dir);
  std::set<std::string> keys;
  int loadable = 0;
  for (const std::shared_ptr<DdsSystem>& system : systems) {
    const std::vector<FormulaRef> guards = GuardsOf(*system);
    const std::string key = GraphCache::Key(all, 1, guards);
    keys.insert(key);
    loadable += store.Load(key, all.schema(), guards, 1).graph != nullptr;
  }
  EXPECT_EQ(keys.size(), static_cast<std::size_t>(kKeys));
  EXPECT_LE(loadable, 10);
  EXPECT_GT(loadable, 0);
}

TEST(StoreTest, PackFilesFromOlderDaemonsAreIgnored) {
  // Older daemons could fold loose files into pack.amgp + pack.idx. The
  // store no longer reads them: a key with a loose file is served from
  // it, any other key rebuilds, and neither Save nor Sweep touches the two
  // files, whatever bytes they hold.
  AllStructuresClass all(GraphZooSchema());
  const DdsSystem loose_system = ContradictionSystem();
  const DdsSystem packed_system = ReachRedSystem();
  SolveOptions plain;
  plain.build_witness = false;
  plain.strategy = SolveStrategy::kEager;
  const SolveResult loose_reference = SolveEmptiness(loose_system, all, plain);
  const SolveResult packed_reference =
      SolveEmptiness(packed_system, all, plain);
  ASSERT_NE(loose_reference.nonempty, packed_reference.nonempty);

  // A well-framed pack in the old layout ("AMGP", version, then
  // length-prefixed records) holding the packed system's graph, and an
  // index header, both cut short.
  const std::vector<FormulaRef> packed_guards = GuardsOf(packed_system);
  const std::string packed_key = GraphCache::Key(
      all, packed_system.num_registers(), packed_guards);
  SubTransitionGraph packed_graph(packed_guards,
                                  packed_system.num_registers());
  SolveStats build_stats;
  packed_graph.BuildFull(all, build_stats);
  const std::string record = SerializeGraph(packed_graph, packed_key);
  std::string old_pack = "AMGP";
  old_pack += '\x01';
  std::size_t length = record.size();
  for (; length >= 0x80; length >>= 7) {
    old_pack += static_cast<char>((length & 0x7f) | 0x80);
  }
  old_pack += static_cast<char>(length);
  old_pack += record;
  const std::string old_index = std::string("AMGI\x01") + "\x05\x01";

  struct Case {
    const char* name;
    std::string pack;
    std::string index;
  };
  for (const Case& c :
       {Case{"arbitrary_bytes", "not a pack at all", "nor an index"},
        Case{"truncated_copy", old_pack.substr(0, old_pack.size() / 2),
             old_index}}) {
    SCOPED_TRACE(c.name);
    const std::string dir = StoreDir(std::string("old_pack_") + c.name);
    {
      SolveOptions seed = plain;
      seed.store_dir = dir;
      SolveEmptiness(loose_system, all, seed);
    }
    std::ofstream(dir + "/pack.amgp", std::ios::binary) << c.pack;
    std::ofstream(dir + "/pack.idx", std::ios::binary) << c.index;

    GraphCache cache;
    cache.AttachStore(dir);
    SolveOptions options = plain;
    options.cache = &cache;
    const SolveResult served = SolveEmptiness(loose_system, all, options);
    EXPECT_EQ(served.nonempty, loose_reference.nonempty);
    EXPECT_TRUE(served.stats.graph_from_cache);
    EXPECT_EQ(served.stats.members_enumerated, 0u);
    const SolveResult rebuilt = SolveEmptiness(packed_system, all, options);
    EXPECT_EQ(rebuilt.nonempty, packed_reference.nonempty);
    EXPECT_FALSE(rebuilt.stats.graph_from_cache);
    EXPECT_GT(rebuilt.stats.members_enumerated, 0u);
    EXPECT_EQ(cache.store_loads(), 1u);
    EXPECT_EQ(cache.store_load_failures(), 0u);
    EXPECT_EQ(cache.store_writes(), 1u) << "the rebuilt key saves loose";

    const StoreSweepResult swept =
        GraphStore(dir).Sweep(/*max_bytes=*/1, /*max_files=*/0);
    EXPECT_EQ(swept.files_removed, 2u);
    std::vector<std::string> left;
    for (const auto& entry : fs::directory_iterator(dir)) {
      left.push_back(entry.path().filename().string());
    }
    std::sort(left.begin(), left.end());
    EXPECT_EQ(left, (std::vector<std::string>{"pack.amgp", "pack.idx"}));
    auto read = [](const std::string& path) {
      std::ifstream in(path, std::ios::binary);
      return std::string(std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>());
    };
    EXPECT_EQ(read(dir + "/pack.amgp"), c.pack);
    EXPECT_EQ(read(dir + "/pack.idx"), c.index);
  }
}

// One small complete graph the thousand-key test saves under many
// synthetic keys: it needs volume, not variety, and the store validates
// entries by the key they were saved under, not by what the graph "means".
SubTransitionGraph BuildSmallCompleteGraph(const AllStructuresClass& all,
                                           const DdsSystem& system) {
  std::vector<FormulaRef> guards = GuardsOf(system);
  SubTransitionGraph graph(guards, system.num_registers());
  SolveStats stats;
  graph.BuildFull(all, stats);
  return graph;
}

TEST(StoreTest, AThousandKeysLoadByteIdenticalInAFreshHandle) {
  const std::string dir = StoreDir("thousand_keys");
  AllStructuresClass all(GraphZooSchema());
  DdsSystem system = ContradictionSystem();
  std::vector<FormulaRef> guards = GuardsOf(system);
  const int k = system.num_registers();
  SubTransitionGraph graph = BuildSmallCompleteGraph(all, system);

  GraphStore store(dir);
  constexpr std::uint64_t kKeys = 1000;
  std::vector<std::string> keys;
  keys.reserve(kKeys);
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    keys.push_back("synthetic/" + std::to_string(i));
    ASSERT_TRUE(store.Save(keys.back(), graph));
  }

  // A fresh handle — a fresh process — must serve every key,
  // byte-identical to what was saved.
  GraphStore reader(dir);
  for (const std::string& key : keys) {
    GraphStore::LoadResult load = reader.Load(key, all.schema(), guards, k);
    ASSERT_NE(load.graph, nullptr) << key;
    EXPECT_EQ(SerializeGraph(*load.graph, key), SerializeGraph(graph, key))
        << key;
  }
}

}  // namespace
}  // namespace amalgam
