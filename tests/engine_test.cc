// Differential tests for the exploration engine: the on-the-fly strategy
// must agree with the eager reference pipeline — verdict and witness
// validity — on every zoo system over every applicable backend, and must
// explore strictly fewer class members on nonempty instances (the whole
// point of the refactor).
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <tuple>

#include "fraisse/data_class.h"
#include "fraisse/hom_class.h"
#include "fraisse/relational.h"
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

// ---- Guard-read cross atoms. ----
//
// AllStructuresClass fixes every cross tuple no guard reads absent. Against
// the full grid, every sweep path must give the same (old shape, guard,
// new shape) triples and the same verdicts, and every witness must
// validate.

// Forwards to a backend with EnumControl::reads dropped: the
// read-everything sweep over the full grid.
class ReadEverything : public SolverBackend {
 public:
  explicit ReadEverything(std::shared_ptr<const SolverBackend> inner)
      : inner_(std::move(inner)) {}
  const SchemaRef& schema() const override { return inner_->schema(); }
  std::string Fingerprint() const override {
    return "read-everything|" + inner_->Fingerprint();
  }
  void EnumerateGeneratedUntil(int m, const StopCallback& cb) const override {
    inner_->EnumerateGeneratedUntil(m, cb);
  }
  CursorSupport cursor_support() const override {
    return inner_->cursor_support();
  }
  void EnumerateGeneratedShard(int m, int n_shards, int shard,
                               const ShardCallback& cb,
                               const EnumControl& ctl) const override {
    inner_->EnumerateGeneratedShard(m, n_shards, shard, cb, Full(ctl));
  }
  void EnumerateGeneratedFrom(int m, std::uint64_t start,
                              const ShardCallback& cb,
                              const EnumControl& ctl) const override {
    inner_->EnumerateGeneratedFrom(m, start, cb, Full(ctl));
  }
  void EnumerateExtensions(const Structure& old_structure,
                           std::span<const Elem> old_marks, int extra_marks,
                           const StopCallback& cb,
                           const EnumControl& ctl) const override {
    inner_->EnumerateExtensions(old_structure, old_marks, extra_marks, cb,
                                Full(ctl));
  }
  std::optional<AmalgamResult> Amalgamate(
      const Structure& a, const Structure& b,
      std::span<const Elem> b_to_a) const override {
    return inner_->Amalgamate(a, b, b_to_a);
  }

 private:
  static EnumControl Full(const EnumControl& ctl) {
    return EnumControl{ctl.generated, ctl.atom_cap, nullptr};
  }
  std::shared_ptr<const SolverBackend> inner_;
};

using Triples = std::set<std::tuple<std::string, int, std::string>>;

Triples TriplesOf(const SubTransitionGraph& graph) {
  Triples out;
  for (int s = 0; s < graph.num_shapes(); ++s) {
    for (const SubTransitionGraph::Edge& e : graph.edges_from(s)) {
      out.emplace(graph.interner().shape(s).key, e.guard,
                  graph.interner().shape(e.new_shape).key);
    }
  }
  return out;
}

// Interns the k-generated stream as initial shapes; returns its length.
std::uint64_t SweepInitial(const SolverBackend& backend,
                           SubTransitionGraph& graph) {
  std::uint64_t n = 0;
  backend.EnumerateGeneratedUntil(
      graph.k(), [&](const Structure& s, std::span<const Elem> marks) {
        graph.AddInitialMember(s, marks);
        ++n;
        return true;
      });
  graph.AdvanceCursorTo({kCursorPhaseJoint, 0});
  return n;
}

void ExpectValidWitness(const DdsSystem& system, const SolveResult& r) {
  if (!r.nonempty) return;
  ASSERT_TRUE(r.witness_db.has_value());
  EXPECT_TRUE(ValidateAcceptingRun(system, *r.witness_db, *r.witness_run));
}

// Returns the members the pruned and the full eager builds materialized.
std::pair<std::uint64_t, std::uint64_t> ExpectPrunedSweepsMatchTheFullGrid(
    const DdsSystem& system) {
  auto cls = std::make_shared<AllStructuresClass>(system.schema_ref());
  const ReadEverything full(cls);
  const GraphSpec spec = GraphSpecFor(cls, system, /*keyed=*/true);
  const int k = spec.k;

  SubTransitionGraph reference(spec.guards, k);
  SolveStats reference_stats;
  reference.BuildFull(full, reference_stats);
  const Triples expected = TriplesOf(reference);

  // Eager.
  SubTransitionGraph eager(spec.guards, k);
  const std::optional<ReadSet> reads = eager.reads();
  EXPECT_TRUE(reads.has_value());
  SolveStats eager_stats;
  eager.BuildFull(*cls, eager_stats);
  EXPECT_EQ(TriplesOf(eager), expected) << "eager";
  EXPECT_LE(eager_stats.members_generated, reference_stats.members_generated);
  const std::string bytes = SerializeGraph(eager, spec.key);

  // Sharded: bit-identical to the serial pruned build.
  for (int threads : {1, 2, 4, 8}) {
    SubTransitionGraph sharded(spec.guards, k);
    SolveStats stats;
    sharded.BuildFullParallel(*cls, threads, stats);
    EXPECT_TRUE(SerializeGraph(sharded, spec.key) == bytes)
        << threads << " threads";
    EXPECT_EQ(stats.members_generated, eager_stats.members_generated)
        << threads << " threads";
  }

  // Resumed from a cursor at 50% of the pruned joint stream.
  SubTransitionGraph partial(spec.guards, k);
  const std::uint64_t initial_total = SweepInitial(*cls, partial);
  const std::uint64_t joint_total =
      eager_stats.members_generated - initial_total;
  const std::uint64_t cutoff = joint_total / 2;
  SolveStats partial_stats;
  cls->EnumerateGeneratedFrom(
      2 * k, 0,
      [&](const Structure& s, std::span<const Elem> marks, std::uint64_t pos) {
        if (pos >= cutoff) return false;
        partial.ProcessJointMember(s, marks, partial_stats, nullptr);
        partial.AdvanceCursorTo({kCursorPhaseJoint, pos + 1});
        return true;
      },
      EnumControl{nullptr, 0, reads ? &*reads : nullptr});
  SolveStats resumed_stats;
  partial.BuildFull(*cls, resumed_stats);
  EXPECT_EQ(resumed_stats.members_generated, joint_total - cutoff);
  EXPECT_TRUE(SerializeGraph(partial, spec.key) == bytes) << "resumed";

  // Frontier: the extensions of every k-generated shape partition the
  // pruned joint stream.
  SubTransitionGraph frontier(spec.guards, k);
  SweepInitial(*cls, frontier);
  SolveStats frontier_stats;
  const int num_shapes = frontier.num_shapes();
  for (int shape = 0; shape < num_shapes; ++shape) {
    const CanonicalForm form = frontier.interner().shape(shape);
    cls->EnumerateExtensions(
        form.structure, form.marks, k,
        [&](const Structure& s, std::span<const Elem> marks) {
          frontier.ProcessJointMember(s, marks, frontier_stats, nullptr);
          return true;
        },
        EnumControl{&frontier_stats.members_generated, 0,
                    reads ? &*reads : nullptr});
  }
  EXPECT_EQ(TriplesOf(frontier), expected) << "frontier";
  EXPECT_EQ(frontier_stats.members_generated, joint_total);

  // Verdicts through the engine: eager, on the fly (the frontier sweep)
  // and on the fly behind a cache (the positioned stream sweep), against
  // the full grid's on-the-fly verdict.
  SolveOptions reference_options;
  reference_options.build_witness = false;
  const bool nonempty =
      SolveEmptiness(system, full, reference_options).nonempty;
  for (SolveStrategy strategy :
       {SolveStrategy::kEager, SolveStrategy::kOnTheFly}) {
    for (bool cached : {false, true}) {
      SCOPED_TRACE(std::string(strategy == SolveStrategy::kEager
                                   ? "eager"
                                   : "on the fly") +
                   (cached ? ", cached" : ""));
      GraphCache cache;
      SolveOptions options;
      options.strategy = strategy;
      if (cached) options.cache = &cache;
      const SolveResult r = SolveEmptiness(system, *cls, options);
      EXPECT_EQ(r.nonempty, nonempty);
      ExpectValidWitness(system, r);
      if (!cached) continue;
      const std::shared_ptr<const SubTransitionGraph> graph =
          cache.Lookup(spec.key);
      EXPECT_NE(graph, nullptr);
      if (graph && graph->complete()) {
        EXPECT_EQ(TriplesOf(*graph), expected);
      }
    }
  }
  return {eager_stats.members_generated, reference_stats.members_generated};
}

TEST(GuardReadTest, ZooSweepsMatchTheFullGrid) {
  const std::pair<const char*, DdsSystem> zoo[] = {
      {"reach_red", ReachRedSystem()},
      {"contradiction", ContradictionSystem()},
      {"odd_red_cycle", OddRedCycleSystem()}};
  for (const auto& [name, system] : zoo) {
    SCOPED_TRACE(name);
    const auto [pruned, full] = ExpectPrunedSweepsMatchTheFullGrid(system);
    // Each zoo guard set leaves some cross tuple unread.
    EXPECT_LT(pruned, full);
  }
}

TEST(GuardReadTest, SeededSystemSweepsMatchTheFullGrid) {
  // k = 1 over E and red; k = 2 over E alone, where the full grid stays
  // small enough to sweep per seed.
  const char* k1_pool[] = {
      "E(x_old, x_new)",
      "E(x_new, x_old)",
      "red(x_new) & E(x_old, x_new)",
      "!red(x_new) & x_old != x_new",
      "x_old = x_new & red(x_old)",
      "E(x_old, x_old) | !E(x_new, x_new)",
      "!E(x_old, x_new) & !E(x_new, x_old)",
  };
  const char* k2_pool[] = {
      "E(x_old, y_new)",
      "E(x_old, x_new) & E(y_new, y_old)",
      "!E(y_old, x_new) & x_old != y_new",
      "E(x_new, y_new) & E(x_old, y_old)",
      "x_new = y_old & E(y_new, x_old)",
      "!E(x_old, x_new) | E(y_new, x_new)",
      "x_old = x_new & y_old = y_new",
  };
  Schema edge;
  edge.AddRelation("E", 2);
  const SchemaRef edge_schema = MakeSchema(std::move(edge));
  for (int k : {1, 2}) {
    std::uint64_t pruned_total = 0;
    std::uint64_t full_total = 0;
    for (int seed = 0; seed < 6; ++seed) {
      SCOPED_TRACE("k " + std::to_string(k) + ", seed " +
                   std::to_string(seed));
      std::mt19937 rng(seed);
      DdsSystem system(k == 1 ? GraphZooSchema() : edge_schema);
      const int num_states = 3 + static_cast<int>(rng() % 2);
      for (int q = 0; q < num_states; ++q) {
        system.AddState("q" + std::to_string(q), q == 0, q == num_states - 1);
      }
      system.AddRegister("x");
      if (k == 2) system.AddRegister("y");
      const int num_rules = 3 + static_cast<int>(rng() % 4);
      for (int i = 0; i < num_rules; ++i) {
        system.AddRule(static_cast<int>(rng() % num_states),
                       static_cast<int>(rng() % num_states),
                       k == 1 ? k1_pool[rng() % 7] : k2_pool[rng() % 7]);
      }
      const auto [pruned, full] = ExpectPrunedSweepsMatchTheFullGrid(system);
      pruned_total += pruned;
      full_total += full;
    }
    EXPECT_LT(pruned_total, full_total) << "k " << k;
  }
}

// The members a complete build materializes when every tuple counts: the
// k- and 2k-generated streams in full.
std::uint64_t FullStreams(const SolverBackend& backend, int k) {
  std::uint64_t n = 0;
  for (int m : {k, 2 * k}) {
    backend.EnumerateGeneratedUntil(
        m, [&](const Structure&, std::span<const Elem>) {
          ++n;
          return true;
        });
  }
  return n;
}

TEST(GuardReadTest, QuantifiedGuardsAndOtherBackendsSweepTheFullStream) {
  // A quantified guard reads tuples no mark names: no read set, so the
  // full grid.
  auto all = std::make_shared<AllStructuresClass>(GraphZooSchema());
  const FormulaRef quantified = Formula::Exists(
      2, Formula::Rel(0, {Term::Var(0), Term::Var(2)}));
  SubTransitionGraph graph({quantified}, 1);
  EXPECT_FALSE(graph.reads().has_value());
  SolveStats stats;
  graph.BuildFull(*all, stats);
  EXPECT_EQ(stats.members_generated, FullStreams(*all, 1));

  // Backends that are not closed under deleting cross tuples, and
  // LiftedHomClass, ignore a read set: a guard over relation 0 on the old
  // and new first registers leaves their streams whole.
  static const TreeAutomaton automaton = TaTwoLevel();
  std::vector<std::pair<std::shared_ptr<const SolverBackend>, int>> backends =
      {{std::make_shared<LinearOrderClass>(), 2},
       {std::make_shared<EquivalenceClass>(), 2},
       {std::make_shared<WordRunClass>(NfaAPlusBPlus()), 1},
       {std::make_shared<TreeRunClass>(&automaton, 3), 1},
       {std::make_shared<LiftedHomClass>(Example2Template()), 1}};
  for (const auto& [backend, max_k] : backends) {
    for (int k = 1; k <= max_k; ++k) {
      SCOPED_TRACE(backend->Fingerprint() + ", k " + std::to_string(k));
      std::vector<Term> terms;
      const int arity = backend->schema()->relation(0).arity;
      for (int i = 0; i < arity; ++i) terms.push_back(Term::Var(i % 2 ? k : 0));
      SubTransitionGraph read({Formula::Rel(0, std::move(terms))}, k);
      ASSERT_TRUE(read.reads().has_value());
      SolveStats read_stats;
      read.BuildFull(*backend, read_stats);
      EXPECT_EQ(read_stats.members_generated, FullStreams(*backend, k));
    }
  }
}

}  // namespace
}  // namespace amalgam
