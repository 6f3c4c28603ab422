// Differential tests for the exploration engine: the on-the-fly strategy
// must agree with the eager reference pipeline — verdict and witness
// validity — on every zoo system over every applicable backend, and must
// explore strictly fewer class members on nonempty instances (the whole
// point of the refactor).
#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "fraisse/data_class.h"
#include "fraisse/hom_class.h"
#include "fraisse/relational.h"
#include "solver/branching.h"
#include "solver/cache.h"
#include "solver/emptiness.h"
#include "solver/store.h"
#include "system/concrete.h"
#include "system/zoo.h"
#include "trees/solve.h"
#include "trees/zoo.h"
#include "words/solve.h"
#include "words/worddb.h"
#include "words/zoo.h"

namespace amalgam {
namespace {

// Runs both strategies and checks agreement; returns the two results.
std::pair<SolveResult, SolveResult> SolveBoth(const DdsSystem& system,
                                              const SolverBackend& backend,
                                              bool build_witness = true) {
  SolveOptions eager;
  eager.strategy = SolveStrategy::kEager;
  eager.build_witness = build_witness;
  SolveOptions lazy;
  lazy.strategy = SolveStrategy::kOnTheFly;
  lazy.build_witness = build_witness;
  SolveResult re = SolveEmptiness(system, backend, eager);
  SolveResult rl = SolveEmptiness(system, backend, lazy);
  EXPECT_EQ(re.nonempty, rl.nonempty) << "strategies disagree on the verdict";
  if (re.nonempty && build_witness) {
    if (re.witness_db.has_value()) {
      EXPECT_TRUE(ValidateAcceptingRun(system, *re.witness_db, *re.witness_run))
          << "eager witness failed to validate";
      EXPECT_TRUE(rl.witness_db.has_value())
          << "on-the-fly built no witness where eager did";
      if (rl.witness_db.has_value()) {
        EXPECT_TRUE(
            ValidateAcceptingRun(system, *rl.witness_db, *rl.witness_run))
            << "on-the-fly witness failed to validate";
      }
    }
    // Nonempty instances must exit early: the lazy sweep stops at the first
    // accepting configuration instead of exhausting the class.
    EXPECT_LE(rl.stats.members_enumerated, re.stats.members_enumerated);
  }
  return {std::move(re), std::move(rl)};
}

TEST(EngineDifferentialTest, SystemZooOverAllApplicableClasses) {
  AllStructuresClass all(GraphZooSchema());
  LiftedHomClass lifted(Example2Template());
  HomClass raw(Example2Template());
  for (const DdsSystem& system :
       {OddRedCycleSystem(), ReachRedSystem(), ContradictionSystem()}) {
    SolveBoth(system, all);
    SolveBoth(system, lifted);
    SolveBoth(system, raw, /*build_witness=*/false);
  }
}

TEST(EngineDifferentialTest, DataClassesAgree) {
  auto base = std::make_shared<AllStructuresClass>(GraphZooSchema());
  for (bool injective : {false, true}) {
    DataClass deq(base, DataDomain::kNaturalsWithEquality, injective);
    DdsSystem system(deq.schema());
    int a = system.AddState("a", true);
    int b = system.AddState("b", false, true);
    system.AddRegister("x");
    system.AddRule(a, b,
                   "E(x_old, x_new) & deq(x_old, x_new) & x_old != x_new");
    SolveBoth(system, deq);
  }
}

TEST(EngineDifferentialTest, LinearOrderAndEquivalenceAgree) {
  LinearOrderClass orders;
  DdsSystem chain(orders.schema());
  int s0 = chain.AddState("s0", true);
  int s1 = chain.AddState("s1");
  int s2 = chain.AddState("s2", false, true);
  chain.AddRegister("x");
  chain.AddRule(s0, s1, "lt(x_old, x_new)");
  chain.AddRule(s1, s2, "lt(x_old, x_new)");
  SolveBoth(chain, orders);

  EquivalenceClass eqv;
  DdsSystem pairs(eqv.schema());
  int a = pairs.AddState("a", true);
  int b = pairs.AddState("b", false, true);
  pairs.AddRegister("x");
  pairs.AddRegister("y");
  pairs.AddRule(a, b,
                "eqv(x_old, y_old) & x_old != y_old & x_new = x_old & "
                "y_new = y_old");
  SolveBoth(pairs, eqv);
}

TEST(EngineDifferentialTest, WordZooAgrees) {
  struct Case {
    DdsSystem system;
    Nfa nfa;
  };
  std::vector<Case> cases;
  cases.push_back({ZigZagSystem(2), NfaAlternatingAB()});
  cases.push_back({ZigZagSystem(1), NfaAPlusBPlus()});
  cases.push_back({ZigZagSystem(2), NfaAPlusBPlus()});  // empty
  cases.push_back({TwoMarkersSystem(), NfaAPlusBPlus()});
  cases.push_back({ZigZagSystem(1), NfaAllAB()});
  for (const Case& c : cases) {
    WordSolveResult eager = SolveWordEmptiness(c.system, c.nfa, true,
                                               SolveStrategy::kEager);
    WordSolveResult lazy = SolveWordEmptiness(c.system, c.nfa, true,
                                              SolveStrategy::kOnTheFly);
    EXPECT_EQ(eager.nonempty, lazy.nonempty);
    for (const WordSolveResult* r : {&eager, &lazy}) {
      if (!r->nonempty || !r->witness.has_value()) continue;
      EXPECT_TRUE(c.nfa.Accepts(r->witness->letters));
      Structure db = WorddbOf(r->witness->letters, c.system.schema_ref());
      EXPECT_TRUE(ValidateAcceptingRun(c.system, db, r->witness->system_run));
    }
    if (lazy.nonempty) {
      EXPECT_LE(lazy.stats.members_enumerated, eager.stats.members_enumerated);
    }
  }
}

TEST(EngineDifferentialTest, TreeZooAgrees) {
  TreeAutomaton chains = TaChains();
  TreeAutomaton two = TaTwoLevel();
  TreeAutomaton all = TaAllTrees();
  TreeAutomaton comb = TaComb();
  struct Case {
    DdsSystem system;
    const TreeAutomaton* automaton;
    int extra_cap;
  };
  std::vector<Case> cases;
  cases.push_back({DescendSystem(chains, 2), &chains, 3});
  cases.push_back({DescendSystem(two, 1), &two, 3});
  cases.push_back({DescendSystem(two, 2), &two, 3});  // empty
  cases.push_back({FindBBelowSystem(all), &all, 3});
  cases.push_back({FindBBelowSystem(comb), &comb, 3});
  for (const Case& c : cases) {
    TreeSolveResult eager = SolveTreeEmptiness(c.system, *c.automaton, 0,
                                               c.extra_cap,
                                               SolveStrategy::kEager);
    TreeSolveResult lazy = SolveTreeEmptiness(c.system, *c.automaton, 0,
                                              c.extra_cap,
                                              SolveStrategy::kOnTheFly);
    EXPECT_EQ(eager.nonempty, lazy.nonempty);
    if (lazy.nonempty) {
      EXPECT_LE(lazy.stats.members_enumerated, eager.stats.members_enumerated);
    }
  }
}

TEST(EngineTest, OnTheFlyExploresStrictlyFewerMembersWhenNonempty) {
  // The bench_e2_scaling chain instance: n states, one register walking E
  // edges. Nonempty over all graphs, so the lazy sweep must stop well
  // before the eager one exhausts the 2k-generated members.
  auto schema = GraphZooSchema();
  DdsSystem system(schema);
  system.AddRegister("x");
  int prev = system.AddState("s0", true, false);
  for (int i = 1; i < 4; ++i) {
    int next = system.AddState("s" + std::to_string(i), false, i == 3);
    system.AddRule(prev, next, "E(x_old, x_new)");
    prev = next;
  }
  AllStructuresClass cls(schema);
  auto [eager, lazy] = SolveBoth(system, cls);
  ASSERT_TRUE(eager.nonempty);
  EXPECT_LT(lazy.stats.members_enumerated, eager.stats.members_enumerated)
      << "on-the-fly failed to exit early on a nonempty instance";
}

TEST(EngineTest, StatsStillCountTheFullSweepWhenEmpty) {
  // Empty instances cannot exit early: both strategies sweep the same
  // class, so the member counts coincide.
  DdsSystem system = ContradictionSystem();
  AllStructuresClass cls(GraphZooSchema());
  auto [eager, lazy] = SolveBoth(system, cls);
  EXPECT_FALSE(eager.nonempty);
  EXPECT_EQ(eager.stats.members_enumerated, lazy.stats.members_enumerated);
}

// Random 1-register systems over the graph schema: the two strategies must
// agree everywhere, witnesses must validate.
class EngineRandomDifferential : public ::testing::TestWithParam<int> {};

TEST_P(EngineRandomDifferential, StrategiesAgree) {
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
  SolveBoth(system, cls);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineRandomDifferential,
                         ::testing::Range(0, 15));

// ---- Guard-set metamorphic relations. ----
//
// A graph depends on (class, k, *set* of guards), so no rule order, no
// duplicated guard and no re-spaced guard text may change its key, its
// bytes or a verdict.

enum Variation : unsigned {
  kPermute = 1,    // the rules in reverse order
  kDuplicate = 2,  // every even-indexed rule listed twice
  kRespace = 4,    // each guard reparsed from a re-spaced printed text
};

// Each rule's guard text gets its own padding, so every rule holds a
// formula object of its own with the same printed form.
std::string Respace(const std::string& text, std::size_t pad) {
  std::string out;
  for (char c : text) {
    if (c == ' ') continue;
    if (c == ')') out += ' ';
    out += c;
    if (c == '(') out += "  ";
  }
  return out + std::string(pad, ' ');
}

DdsSystem Vary(const DdsSystem& system, unsigned how) {
  DdsSystem out(system.schema_ref());
  for (int q = 0; q < system.num_states(); ++q) {
    out.AddState(system.state_name(q), system.is_initial(q),
                 system.is_accepting(q));
  }
  std::vector<std::string> names;
  for (int r = 0; r < system.num_registers(); ++r) {
    out.AddRegister(system.register_name(r));
    names.push_back(system.register_name(r) + "_old");
  }
  for (int r = 0; r < system.num_registers(); ++r) {
    names.push_back(system.register_name(r) + "_new");
  }
  std::vector<TransitionRule> rules = system.rules();
  if (how & kDuplicate) {
    const std::size_t n = rules.size();
    for (std::size_t i = 0; i < n; i += 2) rules.push_back(rules[i]);
  }
  if (how & kPermute) std::reverse(rules.begin(), rules.end());
  for (std::size_t i = 0; i < rules.size(); ++i) {
    if (how & kRespace) {
      out.AddRule(rules[i].from, rules[i].to,
                  Respace(rules[i].guard->ToString(system.schema(), names), i));
    } else {
      out.AddRule(rules[i].from, rules[i].to, rules[i].guard);
    }
  }
  return out;
}

struct GraphOutcome {
  std::string key;
  std::string bytes;  // SerializeGraph of the complete graph
  bool nonempty = false;
};

// An eager cached solve: the key, the complete graph it built, the
// verdict. A nonempty verdict's witness must validate when the backend
// reconstructs one.
GraphOutcome SolveAndSerialize(const DdsSystem& system,
                               std::shared_ptr<const SolverBackend> backend,
                               bool build_witness) {
  GraphCache cache;
  SolveOptions options;
  options.strategy = SolveStrategy::kEager;
  options.build_witness = build_witness;
  options.cache = &cache;
  const GraphSpec spec = GraphSpecFor(backend, system, /*keyed=*/true);
  const SolveResult r = ExplorationEngine(system, spec, options).Run();
  if (r.nonempty && r.witness_db.has_value()) {
    EXPECT_TRUE(ValidateAcceptingRun(system, *r.witness_db, *r.witness_run));
  }
  const std::shared_ptr<const SubTransitionGraph> graph =
      cache.Lookup(spec.key);
  EXPECT_NE(graph, nullptr);
  EXPECT_EQ(cache.size(), 1u);
  return {spec.key, graph ? SerializeGraph(*graph, spec.key) : "", r.nonempty};
}

// Every variation of `system` (each alone and all three at once) over the
// backend `backend_for` makes for it.
template <typename BackendFor>
void ExpectGuardSetInvariance(const DdsSystem& system,
                              const BackendFor& backend_for,
                              bool build_witness) {
  const GraphOutcome base =
      SolveAndSerialize(system, backend_for(system), build_witness);
  for (unsigned how : {unsigned{kPermute}, unsigned{kDuplicate},
                       unsigned{kRespace}, kPermute | kDuplicate | kRespace}) {
    SCOPED_TRACE("variation " + std::to_string(how));
    const DdsSystem variant = Vary(system, how);
    const GraphOutcome varied =
        SolveAndSerialize(variant, backend_for(variant), build_witness);
    EXPECT_EQ(varied.key, base.key);
    EXPECT_TRUE(varied.bytes == base.bytes) << "graph bytes differ";
    EXPECT_EQ(varied.nonempty, base.nonempty);
    SolveOptions lazy;
    lazy.build_witness = false;
    EXPECT_EQ(SolveEmptiness(variant, *backend_for(variant), lazy).nonempty,
              base.nonempty);
  }
}

TEST(GuardSetTest, SystemZooGraphsIgnoreRuleOrderDuplicatesAndSpacing) {
  auto all = std::make_shared<AllStructuresClass>(GraphZooSchema());
  auto lifted = std::make_shared<LiftedHomClass>(Example2Template());
  for (const DdsSystem& system :
       {OddRedCycleSystem(), ReachRedSystem(), ContradictionSystem()}) {
    ExpectGuardSetInvariance(
        system, [&](const DdsSystem&) { return all; }, true);
    ExpectGuardSetInvariance(
        system, [&](const DdsSystem&) { return lifted; }, true);
  }
}

TEST(GuardSetTest, WordAndTreeZooGraphsIgnoreRuleOrderDuplicatesAndSpacing) {
  const Nfa alternating = NfaAlternatingAB();
  const Nfa a_plus_b_plus = NfaAPlusBPlus();
  for (const auto& [system, nfa] :
       {std::pair{ZigZagSystem(2), &alternating},
        std::pair{TwoMarkersSystem(), &a_plus_b_plus}}) {
    ExpectGuardSetInvariance(
        system,
        [nfa](const DdsSystem& s) { return WordRunClassFor(s, *nfa); },
        false);
  }
  const TreeAutomaton two = TaTwoLevel();
  const TreeAutomaton comb = TaComb();
  for (const auto& [system, automaton] :
       {std::pair{DescendSystem(two, 2), &two},
        std::pair{FindBBelowSystem(comb), &comb}}) {
    ExpectGuardSetInvariance(
        system,
        [automaton](const DdsSystem& s) {
          return TreeRunClassFor(s, *automaton, 3);
        },
        false);
  }
}

TEST(GuardSetTest, RandomSystemGraphsIgnoreRuleOrderDuplicatesAndSpacing) {
  auto schema = GraphZooSchema();
  auto cls = std::make_shared<AllStructuresClass>(schema);
  const char* guard_pool[] = {
      "E(x_old, x_new)",
      "E(x_new, x_old)",
      "red(x_new) & E(x_old, x_new)",
      "!red(x_new) & x_old != x_new",
      "x_old = x_new & red(x_old)",
      "E(x_old, x_old)",
  };
  for (int seed = 0; seed < 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937 rng(seed);
    DdsSystem system(schema);
    const int num_states = 3 + static_cast<int>(rng() % 2);
    for (int q = 0; q < num_states; ++q) {
      system.AddState("q" + std::to_string(q), q == 0, q == num_states - 1);
    }
    system.AddRegister("x");
    const int num_rules = 3 + static_cast<int>(rng() % 4);
    for (int i = 0; i < num_rules; ++i) {
      system.AddRule(static_cast<int>(rng() % num_states),
                     static_cast<int>(rng() % num_states),
                     guard_pool[rng() % 6]);
    }
    ExpectGuardSetInvariance(
        system, [&](const DdsSystem&) { return cls; }, true);
  }
}

// The benchmark's chain: n states, every rule walking one E edge.
DdsSystem EdgeChain(int n) {
  DdsSystem system(GraphZooSchema());
  system.AddRegister("x0");
  int prev = system.AddState("s0", true);
  for (int i = 1; i < n; ++i) {
    const int next =
        system.AddState("s" + std::to_string(i), false, i == n - 1);
    system.AddRule(prev, next, "E(x0_old, x0_new)");
    prev = next;
  }
  return system;
}

TEST(GuardSetTest, ChainsOfAnyLengthShareOneGraph) {
  AllStructuresClass cls(GraphZooSchema());
  GraphCache cache;
  SolveOptions options;
  options.strategy = SolveStrategy::kEager;
  options.cache = &cache;
  const DdsSystem chain32 = EdgeChain(32);
  const DdsSystem chain64 = EdgeChain(64);
  const SolveResult first = SolveEmptiness(chain32, cls, options);
  EXPECT_FALSE(first.stats.graph_from_cache);
  const SolveResult second = SolveEmptiness(chain64, cls, options);
  EXPECT_TRUE(second.stats.graph_from_cache);
  EXPECT_EQ(second.stats.members_enumerated, 0u);
  EXPECT_EQ(second.stats.guard_evaluations, 0u);
  EXPECT_EQ(second.stats.edges, first.stats.edges);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  ASSERT_TRUE(second.nonempty);
  ASSERT_TRUE(second.witness_db.has_value());
  EXPECT_TRUE(
      ValidateAcceptingRun(chain64, *second.witness_db, *second.witness_run));
  EXPECT_EQ(second.witness_run->size(), 64u);
}

TEST(GuardSetTest, LinearAndBranchingQueriesOverOneGuardSetShareOneEntry) {
  AllStructuresClass cls(GraphZooSchema());
  GraphCache cache;
  DdsSystem linear(GraphZooSchema());
  linear.AddRegister("x");
  int a = linear.AddState("a", true);
  int b = linear.AddState("b");
  int c = linear.AddState("c", false, true);
  linear.AddRule(a, b, "red(x_new)");
  linear.AddRule(b, c, "E(x_old, x_new)");
  linear.AddRule(a, a, "E(x_old, x_new)");
  SolveOptions options;
  options.strategy = SolveStrategy::kEager;
  options.build_witness = false;
  options.cache = &cache;
  const SolveResult linear_result = SolveEmptiness(linear, cls, options);
  EXPECT_TRUE(linear_result.nonempty);

  // The same two guard texts, as branches, in another order and spacing.
  BranchingSystem branching(GraphZooSchema());
  branching.AddRegister("x");
  int start = branching.AddState("start", true);
  int done = branching.AddState("done", false, true);
  branching.AddRule(start, {{"E( x_old, x_new )", done},
                            {"red(x_new)", done},
                            {"E(x_old,x_new)", start}});
  const BranchingSolveResult branching_result =
      SolveBranchingEmptiness(branching, cls, &cache);
  EXPECT_TRUE(branching_result.stats.graph_from_cache);
  EXPECT_EQ(branching_result.stats.members_enumerated, 0u);
  EXPECT_EQ(branching_result.stats.edges, linear_result.stats.edges);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(GraphSpecFor(BorrowBackend(cls), branching, /*keyed=*/true).key,
            GraphSpecFor(BorrowBackend(cls), linear, /*keyed=*/true).key);
}

}  // namespace
}  // namespace amalgam
