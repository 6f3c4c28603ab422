// Determinism suite for the sharded parallel sweep: BuildFullParallel must
// produce a graph bit-identical to the serial BuildFull — same shape table
// in the same order, same initial set, same edges and witness steps — at
// every thread count, across the system/words/trees zoos and seeded random
// systems; verdicts through every front door must be unaffected; and a
// parallel-built cache entry must serve a later serial query.
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "fraisse/data_class.h"
#include "fraisse/hom_class.h"
#include "fraisse/relational.h"
#include "solver/branching.h"
#include "solver/cache.h"
#include "solver/emptiness.h"
#include "solver/graph.h"
#include "system/zoo.h"
#include "trees/run_class.h"
#include "trees/solve.h"
#include "trees/zoo.h"
#include "words/run_class.h"
#include "words/solve.h"
#include "words/zoo.h"

namespace amalgam {
namespace {

constexpr int kThreadCounts[] = {1, 2, 4, 8};

std::vector<FormulaRef> GuardsOf(const DdsSystem& system) {
  std::vector<FormulaRef> guards;
  for (const TransitionRule& rule : system.rules()) {
    guards.push_back(rule.guard);
  }
  return guards;
}

// Bit-identity of two graphs: shape arena (ids, keys, marks), initial set,
// per-shape edge lists element-wise, and witness steps byte for byte.
void ExpectGraphsIdentical(const SubTransitionGraph& serial,
                           const SubTransitionGraph& parallel) {
  ASSERT_EQ(serial.num_shapes(), parallel.num_shapes());
  for (int id = 0; id < serial.num_shapes(); ++id) {
    EXPECT_EQ(serial.interner().shape(id).key,
              parallel.interner().shape(id).key)
        << "shape " << id << " renumbered differently";
    EXPECT_EQ(serial.interner().shape(id).marks,
              parallel.interner().shape(id).marks);
  }
  EXPECT_EQ(serial.initial_shapes(), parallel.initial_shapes());
  ASSERT_EQ(serial.num_edges(), parallel.num_edges());
  for (int s = 0; s < serial.num_shapes(); ++s) {
    const auto& se = serial.edges_from(s);
    const auto& pe = parallel.edges_from(s);
    ASSERT_EQ(se.size(), pe.size()) << "edge count differs at shape " << s;
    for (std::size_t i = 0; i < se.size(); ++i) {
      EXPECT_EQ(se[i].guard, pe[i].guard);
      EXPECT_EQ(se[i].new_shape, pe[i].new_shape);
      EXPECT_EQ(se[i].step, pe[i].step);
    }
  }
  for (std::uint64_t i = 0; i < serial.num_edges(); ++i) {
    const SubTransition& ss = serial.step(static_cast<int>(i));
    const SubTransition& ps = parallel.step(static_cast<int>(i));
    EXPECT_EQ(ss.guard, ps.guard);
    EXPECT_EQ(ss.marks, ps.marks);
    EXPECT_EQ(ss.joint.EncodeContent(), ps.joint.EncodeContent())
        << "witness step " << i << " records a different joint member";
  }
  EXPECT_TRUE(parallel.complete());
}

// Builds the graph serially and at every thread count; asserts identity and
// matching sweep counters.
void CheckDeterministicAcrossThreadCounts(const DdsSystem& system,
                                          const SolverBackend& backend) {
  const int k = system.num_registers();
  SubTransitionGraph serial(GuardsOf(system), k);
  SolveStats serial_stats;
  serial.BuildFull(backend, serial_stats);
  for (int threads : kThreadCounts) {
    SubTransitionGraph parallel(GuardsOf(system), k);
    SolveStats parallel_stats;
    parallel.BuildFullParallel(backend, threads, parallel_stats);
    SCOPED_TRACE("threads = " + std::to_string(threads));
    ExpectGraphsIdentical(serial, parallel);
    // Shards partition the stream: processed members and guard sweeps sum
    // to the serial counts; surviving edges match after the merge dedup.
    EXPECT_EQ(serial_stats.members_enumerated,
              parallel_stats.members_enumerated);
    EXPECT_EQ(serial_stats.guard_evaluations,
              parallel_stats.guard_evaluations);
    EXPECT_EQ(serial_stats.edges, parallel_stats.edges);
  }
}

TEST(ParallelBuildTest, SystemZooIsDeterministic) {
  AllStructuresClass all(GraphZooSchema());
  for (const DdsSystem& system :
       {OddRedCycleSystem(), ReachRedSystem(), ContradictionSystem()}) {
    CheckDeterministicAcrossThreadCounts(system, all);
  }
}

TEST(ParallelBuildTest, LiftedHomClassIsDeterministic) {
  LiftedHomClass lifted(Example2Template());
  CheckDeterministicAcrossThreadCounts(ReachRedSystem(), lifted);
}

TEST(ParallelBuildTest, OrderEquivalenceAndDataClassesAreDeterministic) {
  LinearOrderClass orders;
  DdsSystem chain(orders.schema());
  int s0 = chain.AddState("s0", true);
  int s1 = chain.AddState("s1");
  int s2 = chain.AddState("s2", false, true);
  chain.AddRegister("x");
  chain.AddRule(s0, s1, "lt(x_old, x_new)");
  chain.AddRule(s1, s2, "lt(x_old, x_new)");
  CheckDeterministicAcrossThreadCounts(chain, orders);

  EquivalenceClass eqv;
  DdsSystem pairs(eqv.schema());
  int a = pairs.AddState("a", true);
  int b = pairs.AddState("b", false, true);
  pairs.AddRegister("x");
  pairs.AddRegister("y");
  pairs.AddRule(a, b,
                "eqv(x_old, y_old) & x_old != y_old & x_new = x_old & "
                "y_new = y_old");
  CheckDeterministicAcrossThreadCounts(pairs, eqv);

  auto base = std::make_shared<AllStructuresClass>(GraphZooSchema());
  DataClass deq(base, DataDomain::kNaturalsWithEquality, true);
  DdsSystem data_system(deq.schema());
  int da = data_system.AddState("a", true);
  int db = data_system.AddState("b", false, true);
  data_system.AddRegister("x");
  data_system.AddRule(da, db,
                      "E(x_old, x_new) & deq(x_old, x_new) & x_old != x_new");
  CheckDeterministicAcrossThreadCounts(data_system, deq);
}

TEST(ParallelBuildTest, WordZooIsDeterministic) {
  struct Case {
    DdsSystem system;
    Nfa nfa;
  };
  std::vector<Case> cases;
  cases.push_back({ZigZagSystem(1), NfaAPlusBPlus()});
  cases.push_back({ZigZagSystem(2), NfaAlternatingAB()});
  for (const Case& c : cases) {
    WordRunClass cls(c.nfa);
    CheckDeterministicAcrossThreadCounts(c.system, cls);
  }
}

TEST(ParallelBuildTest, TreeZooIsDeterministic) {
  TreeAutomaton two = TaTwoLevel();
  TreeRunClass cls(&two, 3);
  CheckDeterministicAcrossThreadCounts(DescendSystem(two, 1), cls);
}

// Seeded random 1-register systems over the graph schema, same generator as
// the engine differential suite: whatever guard sets come up, every thread
// count must reproduce the serial graph.
class ParallelRandomDeterminism : public ::testing::TestWithParam<int> {};

TEST_P(ParallelRandomDeterminism, MatchesSerialBuild) {
  std::mt19937 rng(GetParam());
  auto schema = GraphZooSchema();
  AllStructuresClass cls(schema);
  DdsSystem system(schema);
  int s0 = system.AddState("s0", true);
  int s1 = system.AddState("s1");
  int s2 = system.AddState("s2", false, true);
  system.AddRegister("x");
  const char* guard_pool[] = {
      "E(x_old, x_new)",
      "E(x_new, x_old)",
      "red(x_new) & E(x_old, x_new)",
      "!red(x_new) & x_old != x_new",
      "x_old = x_new & red(x_old)",
      "E(x_old, x_old)",
      "!E(x_old, x_new) & !E(x_new, x_old)",
      "red(x_old) & !red(x_new)",
  };
  int states[] = {s0, s1, s2};
  const int num_rules = 3 + static_cast<int>(rng() % 3);
  for (int i = 0; i < num_rules; ++i) {
    system.AddRule(states[rng() % 3], states[rng() % 3],
                   guard_pool[rng() % 8]);
  }
  CheckDeterministicAcrossThreadCounts(system, cls);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelRandomDeterminism,
                         ::testing::Range(0, 10));

TEST(ParallelBuildTest, VerdictsMatchThroughEveryFrontDoor) {
  // Linear engine (eager strategy with worker threads).
  AllStructuresClass all(GraphZooSchema());
  for (const DdsSystem& system :
       {OddRedCycleSystem(), ReachRedSystem(), ContradictionSystem()}) {
    SolveOptions serial;
    serial.build_witness = false;
    serial.strategy = SolveStrategy::kEager;
    SolveOptions sharded = serial;
    sharded.num_threads = 4;
    EXPECT_EQ(SolveEmptiness(system, all, serial).nonempty,
              SolveEmptiness(system, all, sharded).nonempty);
  }

  // Word and tree front doors.
  DdsSystem zig = ZigZagSystem(1);
  Nfa nfa = NfaAPlusBPlus();
  EXPECT_EQ(
      SolveWordEmptiness(zig, nfa, false, SolveStrategy::kEager).nonempty,
      SolveWordEmptiness(zig, nfa, false, SolveStrategy::kEager, nullptr, 4)
          .nonempty);
  TreeAutomaton two = TaTwoLevel();
  DdsSystem descend = DescendSystem(two, 1);
  EXPECT_EQ(
      SolveTreeEmptiness(descend, two, 0, 3, SolveStrategy::kEager).nonempty,
      SolveTreeEmptiness(descend, two, 0, 3, SolveStrategy::kEager, nullptr,
                         4)
          .nonempty);

  // Branching solver.
  BranchingSystem branching(GraphZooSchema());
  int q0 = branching.AddState("q0", true);
  int q1 = branching.AddState("q1", false, true);
  branching.AddRegister("x");
  branching.AddRule(q0, {{"E(x_old, x_new)", q1},
                         {"E(x_new, x_old)", q1}});
  AllStructuresClass cls(GraphZooSchema());
  BranchingSolveResult serial = SolveBranchingEmptiness(branching, cls);
  BranchingSolveResult sharded =
      SolveBranchingEmptiness(branching, cls, nullptr, 4);
  EXPECT_EQ(serial.nonempty, sharded.nonempty);
  EXPECT_EQ(serial.stats.edges, sharded.stats.edges);
  EXPECT_EQ(serial.stats.configs, sharded.stats.configs);
}

TEST(ParallelBuildTest, ParallelBuiltCacheEntryServesSerialQueries) {
  // Determinism makes parallel-built and serial-built graphs
  // interchangeable cache values: a graph built by 4 workers must serve a
  // later single-threaded query as a plain hit.
  AllStructuresClass cls(GraphZooSchema());
  DdsSystem system = ReachRedSystem();
  GraphCache cache;

  SolveOptions sharded;
  sharded.cache = &cache;
  sharded.num_threads = 4;
  // kEager: the on-the-fly default would early-exit into a sequentially
  // built partial graph; the point here is a complete graph built by the
  // sharded sweep.
  sharded.strategy = SolveStrategy::kEager;
  SolveResult first = SolveEmptiness(system, cls, sharded);
  EXPECT_FALSE(first.stats.graph_from_cache);
  EXPECT_GT(first.stats.members_enumerated, 0u);
  EXPECT_EQ(cache.size(), 1u);

  SolveOptions serial;
  serial.cache = &cache;
  SolveResult second = SolveEmptiness(system, cls, serial);
  EXPECT_TRUE(second.stats.graph_from_cache);
  EXPECT_EQ(second.stats.members_enumerated, 0u);
  EXPECT_EQ(first.nonempty, second.nonempty);
  EXPECT_EQ(first.stats.edges, second.stats.edges);
  EXPECT_EQ(first.stats.configs, second.stats.configs);

  // And the converse: a serial-built entry serves a sharded query (the
  // hit path never spawns workers — nothing left to enumerate).
  GraphCache reverse_cache;
  SolveOptions serial_first;
  serial_first.cache = &reverse_cache;
  serial_first.strategy = SolveStrategy::kEager;
  SolveEmptiness(system, cls, serial_first);
  SolveOptions sharded_second;
  sharded_second.cache = &reverse_cache;
  sharded_second.num_threads = 4;
  SolveResult reused = SolveEmptiness(system, cls, sharded_second);
  EXPECT_TRUE(reused.stats.graph_from_cache);
  EXPECT_EQ(reused.stats.members_enumerated, 0u);
}

}  // namespace
}  // namespace amalgam
