// Tests for the branching extension (paper §4.5): run *trees* of
// configurations over a shared database; emptiness via backward fixpoint
// over small configurations. Since the port onto the shared
// SubTransitionGraph, also: a regression for the one-byte raw-key
// truncation of the deleted private ShapeRegistry, a differential pin
// against the linear solver on single-branch systems, and the cross-query
// graph cache.
#include <gtest/gtest.h>

#include <initializer_list>
#include <memory>
#include <stdexcept>
#include <string>

#include "fraisse/hom_class.h"  // for LiftedHomClass in other cases
#include "fraisse/relational.h"
#include "solver/branching.h"
#include "solver/cache.h"
#include "system/zoo.h"

namespace amalgam {
namespace {

TEST(BranchingTest, LinearRulesMatchTheLinearSolver) {
  // A branching system whose rules all have one branch is an ordinary
  // system; verdicts must coincide on a battery of cases.
  AllStructuresClass cls(GraphZooSchema());
  for (bool satisfiable : {true, false}) {
    BranchingSystem bs(GraphZooSchema());
    DdsSystem ds(GraphZooSchema());
    bs.AddRegister("x");
    ds.AddRegister("x");
    int a_b = bs.AddState("a", true);
    int b_b = bs.AddState("b", false, true);
    int a_d = ds.AddState("a", true);
    int b_d = ds.AddState("b", false, true);
    const char* guard = satisfiable ? "E(x_old, x_new) & red(x_new)"
                                    : "x_old != x_old";
    bs.AddRule(a_b, {{guard, b_b}});
    ds.AddRule(a_d, b_d, guard);
    BranchingSolveResult rb = SolveBranchingEmptiness(bs, cls);
    SolveResult rd =
        SolveEmptiness(ds, cls, SolveOptions{.build_witness = false});
    EXPECT_EQ(rb.nonempty, rd.nonempty) << "satisfiable=" << satisfiable;
  }
}

TEST(BranchingTest, BothBranchesMustSucceed) {
  // From the start node, spawn two branches: one must reach a red node,
  // the other a non-red node, both along edges from the shared register.
  AllStructuresClass cls(GraphZooSchema());
  BranchingSystem bs(GraphZooSchema());
  bs.AddRegister("x");
  int start = bs.AddState("start", true);
  int red_found = bs.AddState("red_found", false, true);
  int white_found = bs.AddState("white_found", false, true);
  bs.AddRule(start, {{"E(x_old, x_new) & red(x_new)", red_found},
                     {"E(x_old, x_new) & !red(x_new)", white_found}});
  // Over all graphs: a node with a red and a white successor exists.
  EXPECT_TRUE(SolveBranchingEmptiness(bs, cls).nonempty);

  // Branches that disagree about the shared *old* value can never both
  // succeed: branch 1 needs red(x_old), branch 2 needs !red(x_old).
  BranchingSystem conflicted(GraphZooSchema());
  conflicted.AddRegister("x");
  int s2 = conflicted.AddState("start", true);
  int t2 = conflicted.AddState("done", false, true);
  conflicted.AddRule(s2,
                     {{"red(x_old) & E(x_old, x_new) & red(x_new)", t2},
                      {"!red(x_old) & E(x_old, x_new)", t2}});
  EXPECT_FALSE(SolveBranchingEmptiness(conflicted, cls).nonempty);

  // Each half alone is satisfiable — the conjunction is what fails.
  BranchingSystem half(GraphZooSchema());
  half.AddRegister("x");
  int s3 = half.AddState("start", true);
  int t3 = half.AddState("done", false, true);
  half.AddRule(s3, {{"red(x_old) & E(x_old, x_new) & red(x_new)", t3}});
  EXPECT_TRUE(SolveBranchingEmptiness(half, cls).nonempty);
}

TEST(BranchingTest, DeepAndWideRunTrees) {
  // Every node must branch twice more until depth 3 — a complete binary
  // run tree; satisfiable over all graphs (walk edges freely).
  AllStructuresClass cls(GraphZooSchema());
  BranchingSystem bs(GraphZooSchema());
  bs.AddRegister("x");
  int d0 = bs.AddState("d0", true);
  int d1 = bs.AddState("d1");
  int d2 = bs.AddState("d2");
  int leaf = bs.AddState("leaf", false, true);
  bs.AddRule(d0, {{"E(x_old, x_new)", d1}, {"E(x_new, x_old)", d1}});
  bs.AddRule(d1, {{"E(x_old, x_new)", d2}, {"E(x_new, x_old)", d2}});
  bs.AddRule(d2, {{"x_new = x_old", leaf}});
  EXPECT_TRUE(SolveBranchingEmptiness(bs, cls).nonempty);

  // Make the d2 level impossible: both a self-loop and no self-loop.
  BranchingSystem bad(GraphZooSchema());
  bad.AddRegister("x");
  int b0 = bad.AddState("d0", true);
  int bleaf = bad.AddState("leaf", false, true);
  bad.AddRule(b0, {{"E(x_old, x_old) & x_new = x_old", bleaf},
                   {"!E(x_old, x_old) & x_new = x_old", bleaf}});
  EXPECT_FALSE(SolveBranchingEmptiness(bad, cls).nonempty);
}

TEST(BranchingTest, AccountsForSharedDatabaseConsistency) {
  // Branch 1 requires the register's node to be red; branch 2 requires it
  // to be white. Both test the *old* value — contradictory on a shared
  // database, hence empty, even though each branch alone is satisfiable.
  AllStructuresClass cls(GraphZooSchema());
  BranchingSystem bs(GraphZooSchema());
  bs.AddRegister("x");
  int s = bs.AddState("s", true);
  int t = bs.AddState("t", false, true);
  bs.AddRule(s, {{"red(x_old) & x_new = x_old", t},
                 {"!red(x_old) & x_new = x_old", t}});
  EXPECT_FALSE(SolveBranchingEmptiness(bs, cls).nonempty);
}

// ---------------------------------------------------------------------------
// Regression: the branching solver's deleted private ShapeRegistry built raw
// memo keys with one byte per mark (branching.cc:28 before the port), so
// marks 1 and 257 on the same structure produced identical keys and the
// second member silently inherited the first member's shape id. This class
// reproduces that exact scenario with members of 258 elements.
// ---------------------------------------------------------------------------

// A class of marked structures over one 258-element rigid cycle: element i
// points to i+1 mod 258 via f, nine unary bit predicates make the structure
// rigid (and color refinement instantaneous), and "sel" (the only symbol
// visible to systems) holds on element 257 alone.
class BigElementIdClass : public FraisseClass {
 public:
  BigElementIdClass() {
    Schema full;
    full.AddRelation("sel", 1);
    for (int b = 0; b < 9; ++b) {
      full.AddRelation("b" + std::to_string(b), 1);
    }
    full.AddFunction("f", 1);
    schema_ = MakeSchema(std::move(full));

    member_ = std::make_unique<Structure>(schema_, kDomain);
    for (Elem e = 0; e < kDomain; ++e) {
      member_->SetFunction1(0, e, (e + 1) % kDomain);
      for (int b = 0; b < 9; ++b) {
        if ((e >> b) & 1) member_->SetHolds1(1 + b, e);
      }
    }
    member_->SetHolds1(0, kDomain - 1);  // sel(257)
  }

  const SchemaRef& schema() const override { return schema_; }
  std::string Fingerprint() const override { return "test-big-element-ids"; }
  bool Contains(const Structure& s) const override {
    return AreIsomorphic(s, *member_);
  }
  std::uint64_t Blowup(int) const override { return kDomain; }

  void EnumerateGeneratedUntil(int m, const StopCallback& cb) const override {
    // Every mark generates the whole cycle, so each mark tuple yields one
    // member. Two single-mark members whose marks differ by exactly 256 —
    // the one-byte aliasing distance — plus the joint member that puts both
    // registers on the sel element.
    if (m == 1) {
      if (!Emit(cb, {1})) return;
      Emit(cb, {kDomain - 1});
    } else if (m == 2) {
      Emit(cb, {kDomain - 1, kDomain - 1});
    }
  }

  static constexpr Elem kDomain = 258;

 private:
  bool Emit(const StopCallback& cb, std::vector<Elem> marks) const {
    return cb(*member_, marks);
  }

  SchemaRef schema_;
  std::unique_ptr<Structure> member_;
};

TEST(BranchingTest, ElementIdsPast256DoNotCollideRawKeys) {
  BigElementIdClass cls;
  Schema visible;
  visible.AddRelation("sel", 1);
  BranchingSystem bs(MakeSchema(std::move(visible)));
  bs.AddRegister("x");
  int init = bs.AddState("init", true);
  int acc = bs.AddState("acc", false, true);
  bs.AddRule(init, {{"sel(x_old) & sel(x_new)", acc}});

  BranchingSolveResult r = SolveBranchingEmptiness(bs, cls);
  // The member marked at the sel element (mark id 257) is initial and
  // steps to itself, so the system is nonempty. The old one-byte raw key
  // made (s, [257]) collide with the previously interned (s, [1]) — the
  // initial-shape set degenerated to the non-sel shape and the verdict
  // flipped to empty.
  EXPECT_TRUE(r.nonempty);
  // Both single-mark members must intern to distinct shapes (the collision
  // merged them into one).
  EXPECT_EQ(r.stats.configs, 2u * 2u);
}

// ---------------------------------------------------------------------------
// Differential: a branching system whose rules all have a single branch is
// an ordinary system, so the ported fixpoint must agree with the linear
// engine verdict-for-verdict across the system zoo.
// ---------------------------------------------------------------------------

BranchingSystem MirrorAsSingleBranch(const DdsSystem& system) {
  BranchingSystem mirrored(system.schema_ref());
  for (int r = 0; r < system.num_registers(); ++r) {
    mirrored.AddRegister(system.register_name(r));
  }
  for (int q = 0; q < system.num_states(); ++q) {
    mirrored.AddState(system.state_name(q), system.is_initial(q),
                      system.is_accepting(q));
  }
  for (const TransitionRule& rule : system.rules()) {
    mirrored.AddRule(rule.from, {Branch{rule.guard, rule.to}});
  }
  return mirrored;
}

TEST(BranchingTest, PortedFixpointMatchesTheLinearEngineOnTheZoo) {
  AllStructuresClass all(GraphZooSchema());
  LiftedHomClass lifted(Example2Template());
  for (const DdsSystem& system :
       {OddRedCycleSystem(), ReachRedSystem(), ContradictionSystem()}) {
    BranchingSystem mirrored = MirrorAsSingleBranch(system);
    for (const FraisseClass* cls :
         std::initializer_list<const FraisseClass*>{&all, &lifted}) {
      const bool linear =
          SolveEmptiness(system, *cls, SolveOptions{.build_witness = false})
              .nonempty;
      EXPECT_EQ(SolveBranchingEmptiness(mirrored, *cls).nonempty, linear)
          << "verdicts diverged over " << cls->Fingerprint();
    }
  }
}

TEST(BranchingTest, SecondQueryIsServedFromTheGraphCache) {
  AllStructuresClass cls(GraphZooSchema());
  BranchingSystem bs(GraphZooSchema());
  bs.AddRegister("x");
  int start = bs.AddState("start", true);
  int red_found = bs.AddState("red_found", false, true);
  int white_found = bs.AddState("white_found", false, true);
  bs.AddRule(start, {{"E(x_old, x_new) & red(x_new)", red_found},
                     {"E(x_old, x_new) & !red(x_new)", white_found}});

  GraphCache cache;
  BranchingSolveResult first = SolveBranchingEmptiness(bs, cls, &cache);
  EXPECT_FALSE(first.stats.graph_from_cache);
  EXPECT_GT(first.stats.members_enumerated, 0u);

  BranchingSolveResult second = SolveBranchingEmptiness(bs, cls, &cache);
  EXPECT_TRUE(second.stats.graph_from_cache);
  EXPECT_EQ(second.stats.members_enumerated, 0u);
  EXPECT_EQ(second.nonempty, first.nonempty);
  EXPECT_EQ(second.stats.edges, first.stats.edges);
  EXPECT_EQ(second.stats.configs, first.stats.configs);
}

TEST(BranchingTest, BuildHonoursTheEngineCaps) {
  // The branching build runs on the engine's acquisition path, so the
  // SolveOptions caps bind it exactly as they bind a linear query.
  AllStructuresClass cls(GraphZooSchema());
  BranchingSystem bs(GraphZooSchema());
  bs.AddRegister("x");
  int a = bs.AddState("a", true);
  int b = bs.AddState("b", false, true);
  bs.AddRule(a, {{"E(x_old, x_new)", b}, {"red(x_new)", b}});
  const GraphSpec spec = GraphSpecFor(BorrowBackend(cls), bs, /*keyed=*/false);

  const BranchingSolveResult uncapped =
      SolveBranchingEmptiness(bs, spec, SolveOptions{});
  ASSERT_GT(uncapped.stats.configs, 4u);

  SolveOptions few_configs;
  few_configs.max_configs = 4;
  try {
    SolveBranchingEmptiness(bs, spec, few_configs);
    FAIL() << "expected the configuration cap";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("configuration cap"),
              std::string::npos)
        << e.what();
  }

  SolveOptions one_atom;
  one_atom.relational_atom_cap = 1;
  EXPECT_THROW(SolveBranchingEmptiness(bs, spec, one_atom),
               EnumerationCapError);
}

}  // namespace
}  // namespace amalgam
