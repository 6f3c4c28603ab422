// Tests for the cross-query sub-transition graph cache: repeated queries
// over the same (class fingerprint, k, guard set) must skip class
// enumeration entirely (members_enumerated == 0), verdicts and witnesses
// must be unaffected, and backend fingerprints must separate classes that
// enumerate different member streams.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "fraisse/data_class.h"
#include "fraisse/relational.h"
#include "logic/parser.h"
#include "solver/branching.h"
#include "solver/cache.h"
#include "solver/emptiness.h"
#include "system/concrete.h"
#include "system/zoo.h"
#include "trees/solve.h"
#include "trees/zoo.h"
#include "words/solve.h"
#include "words/zoo.h"

namespace amalgam {
namespace {

TEST(GraphCacheTest, SecondQuerySkipsEnumerationEntirely) {
  AllStructuresClass cls(GraphZooSchema());
  DdsSystem system = ReachRedSystem();
  GraphCache cache;
  SolveOptions options;
  options.cache = &cache;

  SolveResult first = SolveEmptiness(system, cls, options);
  EXPECT_FALSE(first.stats.graph_from_cache);
  EXPECT_GT(first.stats.members_enumerated, 0u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.size(), 1u);

  SolveResult second = SolveEmptiness(system, cls, options);
  EXPECT_TRUE(second.stats.graph_from_cache);
  EXPECT_EQ(second.stats.members_enumerated, 0u);
  EXPECT_EQ(second.stats.guard_evaluations, 0u);
  EXPECT_EQ(cache.hits(), 1u);

  EXPECT_EQ(first.nonempty, second.nonempty);
  EXPECT_EQ(first.stats.configs, second.stats.configs);
  EXPECT_EQ(first.stats.edges, second.stats.edges);

  // The cached graph keeps the witness steps, so reconstruction still
  // replays the soundness proof.
  ASSERT_TRUE(second.nonempty);
  ASSERT_TRUE(second.witness_db.has_value());
  EXPECT_TRUE(
      ValidateAcceptingRun(system, *second.witness_db, *second.witness_run));
}

TEST(GraphCacheTest, CachedVerdictsMatchUncachedAcrossTheZoo) {
  AllStructuresClass cls(GraphZooSchema());
  GraphCache cache;
  for (const DdsSystem& system :
       {OddRedCycleSystem(), ReachRedSystem(), ContradictionSystem()}) {
    SolveOptions plain;
    plain.build_witness = false;
    SolveOptions cached = plain;
    cached.cache = &cache;
    const bool expected = SolveEmptiness(system, cls, plain).nonempty;
    EXPECT_EQ(SolveEmptiness(system, cls, cached).nonempty, expected);
    EXPECT_EQ(SolveEmptiness(system, cls, cached).nonempty, expected);
  }
}

TEST(GraphCacheTest, GraphIsSharedAcrossSystemsWithTheSameGuardSet) {
  // The cached graph depends on the guard set, not the control skeleton:
  // two systems with identical guards but different accepting states share
  // one graph and still get their own verdicts. The first (nonempty) query
  // early-exits and caches a *partial* graph; the second system's empty
  // verdict needs the whole class, so its query resumes from the cursor —
  // enumerating strictly fewer members than a cold build — and upgrades
  // the entry to complete, which then serves a third query with zero
  // enumeration.
  AllStructuresClass cls(GraphZooSchema());
  GraphCache cache;
  SolveOptions options;
  options.build_witness = false;
  options.cache = &cache;

  DdsSystem reach(GraphZooSchema());
  reach.AddRegister("x");
  int a1 = reach.AddState("a", true);
  int b1 = reach.AddState("b", false, true);
  reach.AddRule(a1, b1, "E(x_old, x_new)");

  DdsSystem dead(GraphZooSchema());
  dead.AddRegister("x");
  int a2 = dead.AddState("a", true);
  int b2 = dead.AddState("b");  // no accepting state at all
  dead.AddRule(a2, b2, "E(x_old, x_new)");

  SolveOptions uncached;
  uncached.build_witness = false;
  const SolveResult cold = SolveEmptiness(dead, cls, uncached);
  EXPECT_FALSE(cold.nonempty);

  SolveResult r1 = SolveEmptiness(reach, cls, options);
  EXPECT_FALSE(r1.stats.graph_from_cache);
  EXPECT_TRUE(r1.nonempty);
  EXPECT_LT(r1.stats.members_enumerated, cold.stats.members_enumerated)
      << "the nonempty first query should early-exit";

  SolveResult r2 = SolveEmptiness(dead, cls, options);
  EXPECT_TRUE(r2.stats.graph_from_cache);
  EXPECT_TRUE(r2.stats.graph_resumed);
  EXPECT_GT(r2.stats.members_enumerated, 0u);
  EXPECT_LT(r2.stats.members_enumerated, cold.stats.members_enumerated)
      << "resume must not re-enumerate the persisted prefix";
  EXPECT_FALSE(r2.nonempty);
  EXPECT_EQ(r2.stats.edges, cold.stats.edges);
  EXPECT_EQ(r2.stats.configs, cold.stats.configs);

  SolveResult r3 = SolveEmptiness(dead, cls, options);
  EXPECT_TRUE(r3.stats.graph_from_cache);
  EXPECT_FALSE(r3.stats.graph_resumed);
  EXPECT_EQ(r3.stats.members_enumerated, 0u);
  EXPECT_FALSE(r3.nonempty);
}

TEST(GraphCacheTest, WordFrontDoorUsesTheCache) {
  DdsSystem system = ZigZagSystem(1);
  Nfa nfa = NfaAPlusBPlus();
  GraphCache cache;
  WordSolveResult first = SolveWordEmptiness(
      system, nfa, true, SolveStrategy::kOnTheFly, &cache);
  WordSolveResult second = SolveWordEmptiness(
      system, nfa, true, SolveStrategy::kOnTheFly, &cache);
  EXPECT_EQ(first.nonempty, second.nonempty);
  EXPECT_GT(first.stats.members_enumerated, 0u);
  EXPECT_EQ(second.stats.members_enumerated, 0u);
  EXPECT_TRUE(second.stats.graph_from_cache);
  if (second.nonempty && second.witness.has_value()) {
    EXPECT_TRUE(nfa.Accepts(second.witness->letters));
  }
}

TEST(GraphCacheTest, TreeFrontDoorUsesTheCache) {
  TreeAutomaton two = TaTwoLevel();
  DdsSystem system = DescendSystem(two, 1);
  GraphCache cache;
  TreeSolveResult first = SolveTreeEmptiness(
      system, two, 0, 3, SolveStrategy::kOnTheFly, &cache);
  TreeSolveResult second = SolveTreeEmptiness(
      system, two, 0, 3, SolveStrategy::kOnTheFly, &cache);
  EXPECT_EQ(first.nonempty, second.nonempty);
  EXPECT_GT(first.stats.members_enumerated, 0u);
  EXPECT_EQ(second.stats.members_enumerated, 0u);
}

// A minimal complete graph for eviction tests: no guards, one register,
// swept over the linear-order class (tiny and fast).
std::shared_ptr<const SubTransitionGraph> TinyCompleteGraph() {
  LinearOrderClass orders;
  auto graph =
      std::make_shared<SubTransitionGraph>(std::vector<FormulaRef>{}, 1);
  SolveStats stats;
  graph->BuildFull(orders, stats);
  return graph;
}

TEST(GraphCacheTest, UnboundedByDefault) {
  GraphCache cache;
  EXPECT_EQ(cache.max_entries(), 0u);
  auto graph = TinyCompleteGraph();
  for (int i = 0; i < 100; ++i) {
    cache.Insert("key" + std::to_string(i), graph);
  }
  EXPECT_EQ(cache.size(), 100u);
  EXPECT_EQ(cache.evictions(), 0u);
}

TEST(GraphCacheTest, EvictsLeastRecentlyHitEntry) {
  GraphCache cache(/*max_entries=*/2);
  auto graph = TinyCompleteGraph();
  cache.Insert("a", graph);
  cache.Insert("b", graph);
  EXPECT_EQ(cache.size(), 2u);

  // Freshen "a": "b" is now the least recently hit.
  EXPECT_NE(cache.Lookup("a"), nullptr);
  cache.Insert("c", graph);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_NE(cache.Lookup("a"), nullptr);
  EXPECT_NE(cache.Lookup("c"), nullptr);
  EXPECT_EQ(cache.Lookup("b"), nullptr) << "LRU entry survived the insert";

  // A re-insert after eviction is a fresh entry, not a first-insert no-op.
  cache.Insert("b", graph);
  EXPECT_EQ(cache.evictions(), 2u);
  EXPECT_NE(cache.Lookup("b"), nullptr);
}

TEST(GraphCacheTest, FirstInsertStillWinsUnderTheCap) {
  GraphCache cache(/*max_entries=*/2);
  auto first = TinyCompleteGraph();
  auto second = TinyCompleteGraph();
  cache.Insert("key", first);
  cache.Insert("key", second);  // ignored: first insert wins
  EXPECT_EQ(cache.Lookup("key").get(), first.get());
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.evictions(), 0u);
}

TEST(GraphCacheTest, EvictedEntryIsRebuiltOnTheNextQuery) {
  // End-to-end: with a cap of 1, alternating queries evict each other's
  // graphs, and each re-query rebuilds (members_enumerated > 0) with the
  // same verdict.
  AllStructuresClass cls(GraphZooSchema());
  DdsSystem reach = ReachRedSystem();
  DdsSystem contra = ContradictionSystem();
  GraphCache cache(/*max_entries=*/1);
  SolveOptions options;
  options.build_witness = false;
  options.cache = &cache;

  SolveResult r1 = SolveEmptiness(reach, cls, options);
  SolveResult r2 = SolveEmptiness(contra, cls, options);  // evicts reach
  EXPECT_EQ(cache.evictions(), 1u);
  SolveResult r3 = SolveEmptiness(reach, cls, options);   // rebuilt
  EXPECT_FALSE(r3.stats.graph_from_cache);
  EXPECT_GT(r3.stats.members_enumerated, 0u);
  EXPECT_EQ(r3.nonempty, r1.nonempty);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.evictions(), 2u);
}

TEST(GraphCacheTest, PartialEntriesUpgradeButNeverDowngrade) {
  // Partial graphs are first-class entries tagged with their cursor; an
  // insert replaces the incumbent only when strictly further along, so a
  // complete graph wins over any partial one and is never displaced by a
  // stale partial re-insert.
  GraphCache cache;
  auto partial = std::make_shared<SubTransitionGraph>(
      std::vector<FormulaRef>{}, 1);
  auto complete = TinyCompleteGraph();

  cache.Insert("key", partial);
  EXPECT_EQ(cache.Lookup("key").get(), partial.get());
  EXPECT_FALSE(cache.Lookup("key")->complete());

  cache.Insert("key", complete);  // upgrade
  EXPECT_EQ(cache.Lookup("key").get(), complete.get());

  cache.Insert("key", partial);  // stale partial must not downgrade
  EXPECT_EQ(cache.Lookup("key").get(), complete.get());

  EXPECT_THROW(cache.Insert("key", nullptr), std::invalid_argument);
}

TEST(GraphCacheTest, FingerprintsSeparateBackends) {
  AllStructuresClass all(GraphZooSchema());
  LinearOrderClass orders;
  EquivalenceClass eqv;
  EXPECT_EQ(all.Fingerprint(),
            AllStructuresClass(GraphZooSchema()).Fingerprint());
  EXPECT_NE(all.Fingerprint(), orders.Fingerprint());
  EXPECT_NE(orders.Fingerprint(), eqv.Fingerprint());

  auto base = std::make_shared<AllStructuresClass>(GraphZooSchema());
  DataClass deq_any(base, DataDomain::kNaturalsWithEquality, false);
  DataClass deq_inj(base, DataDomain::kNaturalsWithEquality, true);
  DataClass dlt_any(base, DataDomain::kRationalsWithOrder, false);
  EXPECT_NE(deq_any.Fingerprint(), deq_inj.Fingerprint());
  EXPECT_NE(deq_any.Fingerprint(), dlt_any.Fingerprint());

  WordRunClass w1(NfaAlternatingAB());
  WordRunClass w2(NfaAPlusBPlus());
  EXPECT_EQ(w1.Fingerprint(), WordRunClass(NfaAlternatingAB()).Fingerprint());
  EXPECT_NE(w1.Fingerprint(), w2.Fingerprint());

  TreeAutomaton chains = TaChains();
  TreeRunClass t3(&chains, 3);
  TreeRunClass t4(&chains, 4);
  EXPECT_NE(t3.Fingerprint(), t4.Fingerprint());
}

TEST(GraphCacheTest, PeekIsSideEffectFree) {
  GraphCache cache(/*max_entries=*/2);
  auto graph = TinyCompleteGraph();
  EXPECT_EQ(cache.Peek("missing"), nullptr);
  EXPECT_EQ(cache.misses(), 0u) << "Peek must not count a miss";

  cache.Insert("a", graph);
  cache.Insert("b", graph);
  EXPECT_NE(cache.Peek("a"), nullptr);
  EXPECT_EQ(cache.hits(), 0u) << "Peek must not count a hit";

  // Peek("a") must not have freshened "a": "a" (inserted first) is still
  // the eviction victim.
  cache.Insert("c", graph);
  EXPECT_EQ(cache.Peek("a"), nullptr) << "Peek must not touch LRU order";
  EXPECT_NE(cache.Peek("b"), nullptr);
}

TEST(GraphCacheTest, StatsStayCoherentUnderConcurrentQueries) {
  // Readers hammer every stats accessor while writers insert, look up and
  // evict; TSan (this test is in the tsan CI job) verifies the counters
  // are race-free and the final tallies must balance exactly.
  GraphCache cache(/*max_entries=*/4);
  auto graph = TinyCompleteGraph();
  constexpr int kWriters = 4;
  constexpr int kOpsPerWriter = 200;

  std::atomic<bool> stop{false};
  std::thread reader([&] {
    std::uint64_t sink = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      sink += cache.hits() + cache.misses() + cache.evictions() +
              cache.store_loads() + cache.store_load_failures() +
              cache.store_writes();
    }
    // The sum is meaningless; reading it is the point.
    EXPECT_GE(sink, 0u);
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&cache, &graph, w] {
      for (int i = 0; i < kOpsPerWriter; ++i) {
        const std::string key =
            "key" + std::to_string((w * kOpsPerWriter + i) % 8);
        if (i % 2 == 0) {
          cache.Insert(key, graph);
        } else {
          cache.Lookup(key);
        }
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true);
  reader.join();

  EXPECT_EQ(cache.hits() + cache.misses(),
            static_cast<std::uint64_t>(kWriters) * kOpsPerWriter / 2)
      << "every Lookup counted exactly one hit or one miss";
}

TEST(GraphCacheTest, ConcurrentColdStoreLookupsDoNotConvoyOrRace) {
  // Two threads race a cold store-backed lookup of one key: both must get
  // a valid graph (loaded from disk outside the map mutex; the
  // double-checked promote reconciles), with no deadlock and no race.
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::path(::testing::TempDir()) / "graph_cache_concurrent_store";
  fs::remove_all(dir);

  AllStructuresClass cls(GraphZooSchema());
  DdsSystem system = ContradictionSystem();
  std::vector<FormulaRef> guards;
  for (const TransitionRule& rule : system.rules()) {
    guards.push_back(rule.guard);
  }
  const std::string key =
      GraphCache::Key(cls, system.num_registers(), guards);
  {
    // Seed the directory with a complete graph.
    GraphCache seeder;
    seeder.AttachStore(dir.string());
    SolveOptions options;
    options.build_witness = false;
    options.cache = &seeder;
    SolveEmptiness(system, cls, options);
    ASSERT_GE(seeder.store_writes(), 1u);
  }

  GraphCache cache;
  cache.AttachStore(dir.string());
  std::vector<std::shared_ptr<const SubTransitionGraph>> results(4);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < results.size(); ++t) {
    threads.emplace_back([&, t] {
      results[t] = cache.Lookup(key, cls.schema(), guards,
                                system.num_registers());
    });
  }
  for (auto& thread : threads) thread.join();
  for (const auto& result : results) {
    ASSERT_NE(result, nullptr);
    EXPECT_TRUE(result->complete());
  }
  EXPECT_GE(cache.store_loads(), 1u);
  EXPECT_EQ(cache.store_load_failures(), 0u);
  // Whatever the interleaving, one memory entry survives and later
  // lookups are pure memory hits.
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_NE(cache.Lookup(key), nullptr);
}

// The key as it was built before slots sharing a formula object printed it
// once: every slot printed and appended on its own. GraphCache::Key must
// stay byte-identical to it, or persisted stores stop loading.
std::string PrintEverySlotKey(const SolverBackend& backend, int k,
                              std::span<const FormulaRef> guards) {
  const std::string fp = backend.Fingerprint();
  std::string key = std::to_string(fp.size());
  key += ':';
  key += fp;
  key += '\x1f';
  key += std::to_string(k);
  for (const FormulaRef& g : guards) {
    const std::string printed = g->ToString(*backend.schema());
    key += '\x1f';
    key += std::to_string(printed.size());
    key += ':';
    key += printed;
  }
  return key;
}

std::vector<FormulaRef> RuleGuardList(const DdsSystem& system) {
  std::vector<FormulaRef> guards;
  for (const TransitionRule& rule : system.rules()) {
    guards.push_back(rule.guard);
  }
  return guards;
}

TEST(GraphCacheTest, KeyMatchesThePrintEverySlotReference) {
  AllStructuresClass all(GraphZooSchema());
  const SchemaRef& schema = all.schema();
  VarTable vars;
  vars.Register("x0_old");
  vars.Register("x0_new");
  const auto parse = [&](const std::string& text) {
    return ParseFormula(text, *schema, &vars);
  };
  const FormulaRef edge = parse("E(x0_old, x0_new)");
  const FormulaRef red = parse("red(x0_new)");

  std::vector<std::vector<FormulaRef>> lists;
  // Slots sharing formula objects, in and out of runs.
  lists.push_back({edge, edge, red, edge, red, red});
  lists.push_back({edge});
  lists.push_back({});
  // Separately built formulas with the same text.
  lists.push_back(
      {edge, parse("E(x0_old, x0_new)"), parse("E(x0_old, x0_new)")});
  // Respaced texts: different objects, one printed form.
  lists.push_back({parse("E(x0_old,x0_new)"), parse("E( x0_old , x0_new )"),
                   edge});
  // A parsed system's rule list, which shares through DdsSystem.
  DdsSystem chain(GraphZooSchema());
  chain.AddRegister("x");
  int prev = chain.AddState("q0", true);
  for (int i = 1; i <= 8; ++i) {
    int next = chain.AddState("q" + std::to_string(i), false, i == 8);
    chain.AddRule(prev, next, i % 3 == 0 ? "red(x_new)" : "E(x_old, x_new)");
    chain.AddRule(next, next, "E(x_old,x_new)");
    prev = next;
  }
  lists.push_back(RuleGuardList(chain));
  // Branching's flattened (rule, branch) list.
  BranchingSystem branching(GraphZooSchema());
  branching.AddRegister("x");
  int a = branching.AddState("a", true);
  int b = branching.AddState("b", false, true);
  branching.AddRule(a, {{"E(x_old, x_new)", b}, {"red(x_new)", b}});
  branching.AddRule(b, {{"red(x_new)", a}, {"E(x_old, x_new)", b},
                        {"E(x_old,  x_new)", a}});
  std::vector<FormulaRef> flattened;
  for (const BranchingRule& rule : branching.rules()) {
    for (const Branch& branch : rule.branches) {
      flattened.push_back(branch.guard);
    }
  }
  lists.push_back(flattened);

  for (std::size_t i = 0; i < lists.size(); ++i) {
    for (int k : {1, 2}) {
      EXPECT_EQ(GraphCache::Key(all, k, lists[i]),
                PrintEverySlotKey(all, k, lists[i]))
          << "list " << i << ", k " << k;
    }
  }
}

TEST(GraphCacheTest, KeyOfAFixedSpecIsPinned) {
  // Three rules, two of them with the same guard text. The literal was
  // captured before guard texts were shared; a change here orphans every
  // persisted store entry, so it needs a store format bump.
  DdsSystem system(GraphZooSchema());
  system.AddRegister("x");
  int a = system.AddState("a", true);
  int b = system.AddState("b");
  int c = system.AddState("c", false, true);
  system.AddRule(a, b, "E(x_old, x_new)");
  system.AddRule(b, b, "E(x_old, x_new)");
  system.AddRule(b, c, "red(x_new)");
  AllStructuresClass cls(GraphZooSchema());
  EXPECT_EQ(GraphCache::Key(cls, 1, RuleGuardList(system)),
            "35:all-structures|R2;1:E/2;3:red/1;F0;\x1f"
            "1\x1f"
            "9:E(v0, v1)\x1f"
            "9:E(v0, v1)\x1f"
            "7:red(v1)");
}

TEST(GraphCacheTest, GuardSetKeyOfAFixedSpecIsPinned) {
  // The key a query uses names the sorted distinct guard set: the three
  // rules above, in any order and spacing, have two guards. A change here
  // orphans every persisted store entry, so it needs a store format bump.
  const std::string pinned =
      "35:all-structures|R2;1:E/2;3:red/1;F0;\x1f"
      "1\x1f"
      "9:E(v0, v1)\x1f"
      "7:red(v1)";
  AllStructuresClass cls(GraphZooSchema());
  for (bool reversed : {false, true}) {
    DdsSystem system(GraphZooSchema());
    system.AddRegister("x");
    int a = system.AddState("a", true);
    int b = system.AddState("b");
    int c = system.AddState("c", false, true);
    if (reversed) {
      system.AddRule(b, c, "red( x_new )");
      system.AddRule(b, b, "E(x_old,x_new)");
      system.AddRule(a, b, "E(x_old, x_new)");
    } else {
      system.AddRule(a, b, "E(x_old, x_new)");
      system.AddRule(b, b, "E(x_old, x_new)");
      system.AddRule(b, c, "red(x_new)");
    }
    const GraphSpec spec =
        GraphSpecFor(BorrowBackend(cls), system, /*keyed=*/true);
    EXPECT_EQ(spec.key, pinned);
    EXPECT_EQ(GraphCache::Key(cls, 1, spec.guards), pinned);
    EXPECT_EQ(spec.slot, reversed ? (std::vector<int>{1, 0, 0})
                                  : (std::vector<int>{0, 0, 1}));
  }
}

TEST(GraphCacheTest, FingerprintsAreInjectionSafe) {
  // Free-text components (letter names, symbol names) are length-prefixed:
  // an alphabet of one letter "a|b" must not serialize like the alphabet
  // "a", "b", or two genuinely different classes would share a cached
  // graph and verdicts could cross over.
  Nfa glued({"a|b"});
  glued.AddState(0, true, true);
  Nfa split({"a", "b"});
  split.AddState(0, true, true);
  EXPECT_NE(WordRunClass(glued).Fingerprint(),
            WordRunClass(split).Fingerprint());

  // Same shape for schemas: a relation named "a/1, b" imitates ToString's
  // separators, but not the length-prefixed fingerprint.
  Schema imitation;
  imitation.AddRelation("a/1, b", 1);
  Schema honest;
  honest.AddRelation("a", 1);
  honest.AddRelation("b", 1);
  EXPECT_NE(MakeSchema(std::move(imitation))->Fingerprint(),
            MakeSchema(std::move(honest))->Fingerprint());
}

}  // namespace
}  // namespace amalgam
