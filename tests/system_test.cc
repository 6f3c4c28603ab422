// Unit tests for src/system: system construction, guard sharing, concrete
// run semantics, the paper's Example 1, and the Fact 2 existential
// elimination pass.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "solver/branching.h"
#include "system/concrete.h"
#include "system/dds.h"
#include "system/zoo.h"

namespace amalgam {
namespace {

TEST(DdsSystemTest, BuildAndQuery) {
  DdsSystem s = OddRedCycleSystem();
  EXPECT_EQ(s.num_states(), 4);
  EXPECT_EQ(s.num_registers(), 2);
  EXPECT_EQ(s.rules().size(), 4u);
  EXPECT_TRUE(s.is_initial(0));
  EXPECT_FALSE(s.is_accepting(0));
  EXPECT_TRUE(s.is_accepting(3));
  EXPECT_TRUE(s.AllGuardsQuantifierFree());
  EXPECT_EQ(s.OldVar(1), 1);
  EXPECT_EQ(s.NewVar(1), 3);
}

TEST(DdsSystemTest, IdenticalQuantifierFreeGuardTextsShareOneFormula) {
  DdsSystem s(GraphZooSchema());
  s.AddRegister("x");
  int a = s.AddState("a", true);
  int b = s.AddState("b", false, true);
  s.AddRule(a, b, "E(x_old, x_new)");
  s.AddRule(b, b, "red(x_new)");
  s.AddRule(b, a, "E(x_old, x_new)");
  s.AddRule(a, a, "E(x_old,x_new)");  // respaced: a different text
  const std::vector<TransitionRule>& rules = s.rules();
  EXPECT_EQ(rules[0].guard, rules[2].guard);
  EXPECT_NE(rules[0].guard, rules[1].guard);
  EXPECT_NE(rules[0].guard, rules[3].guard);
  // ParseGuard and AddRule draw from the same parses.
  EXPECT_EQ(s.ParseGuard("E(x_old, x_new)"), rules[0].guard);
  EXPECT_EQ(s.ParseGuard("red(x_new)"), rules[1].guard);
}

TEST(DdsSystemTest, QuantifiedGuardsAreNeverShared) {
  DdsSystem s(GraphZooSchema());
  s.AddRegister("x");
  int a = s.AddState("a", true);
  const std::string text = "exists z: (E(x_new, z) & red(z))";
  s.AddRule(a, a, text);
  s.AddRule(a, a, text);
  EXPECT_NE(s.rules()[0].guard, s.rules()[1].guard);
  // Each parse binds its own fresh variable.
  EXPECT_NE(s.rules()[0].guard->exists_var(),
            s.rules()[1].guard->exists_var());
  EXPECT_NE(s.ParseGuard(text), s.ParseGuard(text));
}

TEST(DdsSystemTest, BranchingSkeletonSharesGuardsAcrossRulesAndBranches) {
  BranchingSystem s(GraphZooSchema());
  s.AddRegister("x");
  int a = s.AddState("a", true);
  int b = s.AddState("b", false, true);
  s.AddRule(a, {{"E(x_old, x_new)", b}, {"red(x_new)", b}});
  s.AddRule(b, {{"red(x_new)", a}, {"E(x_old, x_new)", b}});
  const std::vector<BranchingRule>& rules = s.rules();
  EXPECT_EQ(rules[0].branches[0].guard, rules[1].branches[1].guard);
  EXPECT_EQ(rules[0].branches[1].guard, rules[1].branches[0].guard);
  EXPECT_NE(rules[0].branches[0].guard, rules[0].branches[1].guard);
}

TEST(ConcreteTest, Example1RunFromThePaper) {
  // The run printed in the paper: registers [x, y] walk the red 5-cycle.
  DdsSystem s = OddRedCycleSystem();
  Structure g = Example1Graph();
  ConcreteRun run = {
      {0, {0, 0}},  // (start, [1,1]) in the paper's 1-based numbering
      {1, {0, 0}}, {2, {0, 1}}, {1, {0, 2}}, {2, {0, 3}},
      {1, {0, 4}}, {2, {0, 0}}, {3, {0, 0}},
  };
  EXPECT_TRUE(ValidateAcceptingRun(s, g, run));
}

TEST(ConcreteTest, ValidateRejectsBadRuns) {
  DdsSystem s = OddRedCycleSystem();
  Structure g = Example1Graph();
  // Not starting in an initial state.
  EXPECT_FALSE(ValidateAcceptingRun(s, g, {{1, {0, 0}}, {2, {0, 1}}}));
  // Not ending in an accepting state.
  EXPECT_FALSE(ValidateAcceptingRun(s, g, {{0, {0, 0}}, {1, {0, 0}}}));
  // Disconnected step (x must stay put).
  ConcreteRun bad = {{0, {0, 0}}, {1, {0, 0}}, {2, {1, 1}}};
  EXPECT_FALSE(ValidateAcceptingRun(s, g, bad));
  // Empty run.
  EXPECT_FALSE(ValidateAcceptingRun(s, g, {}));
}

TEST(ConcreteTest, FindAcceptingRunOnOddCycle) {
  DdsSystem s = OddRedCycleSystem();
  Structure g = Example1Graph();
  auto run = FindAcceptingRun(s, g);
  ASSERT_TRUE(run.has_value());
  EXPECT_TRUE(ValidateAcceptingRun(s, g, *run));
}

TEST(ConcreteTest, NoRunWithoutOddRedCycle) {
  DdsSystem s = OddRedCycleSystem();
  // Even red cycle: 4-cycle, all red.
  Structure g(GraphZooSchema(), 4);
  for (Elem i = 0; i < 4; ++i) {
    g.SetHolds2(0, i, (i + 1) % 4);
    g.SetHolds1(1, i);
  }
  EXPECT_FALSE(FindAcceptingRun(s, g).has_value());
  // Odd cycle but one node white: no all-red odd cycle.
  Structure h(GraphZooSchema(), 3);
  for (Elem i = 0; i < 3; ++i) {
    h.SetHolds2(0, i, (i + 1) % 3);
    if (i != 0) h.SetHolds1(1, i);
  }
  EXPECT_FALSE(FindAcceptingRun(s, h).has_value());
}

TEST(ConcreteTest, EmptyDatabaseHasNoRuns) {
  DdsSystem s = ReachRedSystem();
  Structure g(GraphZooSchema(), 0);
  EXPECT_FALSE(FindAcceptingRun(s, g).has_value());
}

TEST(ConcreteTest, ContradictionSystemNeverAccepts) {
  DdsSystem s = ContradictionSystem();
  Structure g = Example1Graph();
  EXPECT_FALSE(FindAcceptingRun(s, g).has_value());
}

TEST(ExistentialTest, EliminationPreservesEmptinessOverFixedDatabases) {
  // System: move x along an edge to a node that has *some* red successor.
  DdsSystem s(GraphZooSchema());
  int a = s.AddState("a", true);
  int b = s.AddState("b", false, true);
  s.AddRegister("x");
  s.AddRule(a, b, "E(x_old, x_new) & exists z: (E(x_new, z) & red(z))");
  ASSERT_FALSE(s.AllGuardsQuantifierFree());

  DdsSystem qf = EliminateExistentials(s);
  EXPECT_TRUE(qf.AllGuardsQuantifierFree());
  EXPECT_EQ(qf.num_registers(), 2);  // x plus one witness register
  EXPECT_EQ(qf.num_states(), s.num_states());

  // Database where it works: 0 -> 1 -> 2(red).
  Structure g(GraphZooSchema(), 3);
  g.SetHolds2(0, 0, 1);
  g.SetHolds2(0, 1, 2);
  g.SetHolds1(1, 2);
  EXPECT_TRUE(FindAcceptingRun(qf, g).has_value());

  // Database where it fails: 0 -> 1, no red successor of 1.
  Structure h(GraphZooSchema(), 2);
  h.SetHolds2(0, 0, 1);
  EXPECT_FALSE(FindAcceptingRun(qf, h).has_value());
}

TEST(ExistentialTest, SharedAuxRegistersAcrossRules) {
  DdsSystem s(GraphZooSchema());
  int a = s.AddState("a", true);
  int b = s.AddState("b", false, true);
  s.AddRegister("x");
  s.AddRule(a, a, "exists z: E(x_old, z) & x_new = x_old");
  s.AddRule(a, b, "exists u, v: (E(u, v) & red(v)) & x_new = x_old");
  DdsSystem qf = EliminateExistentials(s);
  EXPECT_TRUE(qf.AllGuardsQuantifierFree());
  // max(1, 2) = 2 auxiliary registers, shared.
  EXPECT_EQ(qf.num_registers(), 3);
}

TEST(ExistentialTest, QuantifierFreeSystemsPassThrough) {
  DdsSystem s = OddRedCycleSystem();
  DdsSystem qf = EliminateExistentials(s);
  EXPECT_EQ(qf.num_registers(), s.num_registers());
  EXPECT_EQ(qf.rules().size(), s.rules().size());
  Structure g = Example1Graph();
  EXPECT_TRUE(FindAcceptingRun(qf, g).has_value());
}

TEST(ExistentialTest, EliminationPrintsTheSameOverSharedGuards) {
  // Two rules share one quantifier-free guard object and two carry the
  // same quantified text (parsed twice). The eliminated guards must print
  // exactly as they did when every rule parsed its own copy.
  DdsSystem s(GraphZooSchema());
  s.AddRegister("x");
  int a = s.AddState("a", true);
  int b = s.AddState("b", false, true);
  s.AddRule(a, a, "E(x_old, x_new)");
  s.AddRule(a, b, "exists z: (E(x_new, z) & red(z))");
  s.AddRule(a, b, "exists z: (E(x_new, z) & red(z))");
  s.AddRule(b, b, "E(x_old, x_new)");
  ASSERT_EQ(s.rules()[0].guard, s.rules()[3].guard);

  DdsSystem qf = EliminateExistentials(s);
  ASSERT_EQ(qf.num_registers(), 2);
  const std::vector<std::string> named = {
      "E(x_old, x_new)", "(E(x_new, _aux0_new) & red(_aux0_new))",
      "(E(x_new, _aux0_new) & red(_aux0_new))", "E(x_old, x_new)"};
  const std::vector<std::string> bare = {"E(v0, v2)", "(E(v2, v3) & red(v3))",
                                         "(E(v2, v3) & red(v3))",
                                         "E(v0, v2)"};
  ASSERT_EQ(qf.rules().size(), named.size());
  for (std::size_t i = 0; i < named.size(); ++i) {
    const Formula& guard = *qf.rules()[i].guard;
    EXPECT_EQ(guard.ToString(qf.schema(), qf.var_table().names()), named[i]);
    EXPECT_EQ(guard.ToString(qf.schema()), bare[i]);
  }
}

TEST(ExistentialTest, DifferentialAgainstNativeExistentialEvaluation) {
  // For a battery of small graphs, the eliminated system accepts iff the
  // original does (the original is checked by evaluating the existential
  // guard directly, which EvalFormula supports).
  DdsSystem s(GraphZooSchema());
  int a = s.AddState("a", true);
  int b = s.AddState("b", false, true);
  s.AddRegister("x");
  s.AddRule(a, b,
            "x_new = x_old & exists z: (E(x_old, z) & !red(z) & z != x_old)");
  DdsSystem qf = EliminateExistentials(s);

  for (unsigned mask = 0; mask < 64; ++mask) {
    // 3-node graphs: bits choose a subset of off-diagonal edges + red(0).
    Structure g(GraphZooSchema(), 3);
    int bit = 0;
    for (Elem i = 0; i < 3; ++i) {
      for (Elem j = 0; j < 3; ++j) {
        if (i == j) continue;
        if (bit < 5 && (mask >> bit) & 1) g.SetHolds2(0, i, j);
        ++bit;
      }
    }
    if (mask & 32) g.SetHolds1(1, 0);
    EXPECT_EQ(FindAcceptingRun(s, g).has_value(),
              FindAcceptingRun(qf, g).has_value())
        << "mask=" << mask;
  }
}

}  // namespace
}  // namespace amalgam
