/**
 * @file
 * Tests for the LP simplex: textbook problems, degeneracy, bounds,
 * infeasibility, unboundedness.
 */

#include <gtest/gtest.h>

#include <limits>

#include "ilp/simplex.hh"

namespace
{

using namespace smart::ilp;

TEST(Simplex, TextbookMaximization)
{
    // max x + y s.t. x + 2y <= 4, 3x + y <= 6 -> (1.6, 1.2), obj 2.8.
    Model m;
    Var x = m.addVar(0, 1e30, VarType::Continuous);
    Var y = m.addVar(0, 1e30, VarType::Continuous);
    m.addConstr(LinExpr().add(x, 1).add(y, 2), Sense::Le, 4);
    m.addConstr(LinExpr().add(x, 3).add(y, 1), Sense::Le, 6);
    m.setObjective(LinExpr().add(x, 1).add(y, 1), true);

    Solution s = solveLp(m);
    ASSERT_EQ(s.status, SolveStatus::Optimal);
    EXPECT_NEAR(s.objective, 2.8, 1e-9);
    EXPECT_NEAR(s.value(x), 1.6, 1e-9);
    EXPECT_NEAR(s.value(y), 1.2, 1e-9);
}

TEST(Simplex, MinimizationWithEquality)
{
    // min 2x + 3y s.t. x + y == 10, x <= 6 -> (6, 4), obj 24.
    Model m;
    Var x = m.addVar(0, 6, VarType::Continuous);
    Var y = m.addVar(0, 1e30, VarType::Continuous);
    m.addConstr(LinExpr().add(x, 1).add(y, 1), Sense::Eq, 10);
    m.setObjective(LinExpr().add(x, 2).add(y, 3), false);

    Solution s = solveLp(m);
    ASSERT_EQ(s.status, SolveStatus::Optimal);
    EXPECT_NEAR(s.objective, 24.0, 1e-9);
}

TEST(Simplex, GreaterThanConstraints)
{
    // min x s.t. x >= 3.5 -> 3.5.
    Model m;
    Var x = m.addVar(0, 100, VarType::Continuous);
    m.addConstr(LinExpr(x), Sense::Ge, 3.5);
    m.setObjective(LinExpr(x), false);
    Solution s = solveLp(m);
    ASSERT_EQ(s.status, SolveStatus::Optimal);
    EXPECT_NEAR(s.value(x), 3.5, 1e-9);
}

TEST(Simplex, DetectsInfeasible)
{
    Model m;
    Var x = m.addVar(0, 1, VarType::Continuous);
    m.addConstr(LinExpr(x), Sense::Ge, 2);
    m.setObjective(LinExpr(x), true);
    EXPECT_EQ(solveLp(m).status, SolveStatus::Infeasible);
}

TEST(Simplex, DetectsUnbounded)
{
    Model m;
    Var x = m.addVar(0, std::numeric_limits<double>::infinity(),
                     VarType::Continuous);
    m.addConstr(LinExpr(x), Sense::Ge, 1);
    m.setObjective(LinExpr(x), true);
    EXPECT_EQ(solveLp(m).status, SolveStatus::Unbounded);
}

TEST(Simplex, ShiftedLowerBounds)
{
    // Variables with nonzero lower bounds are handled by shifting.
    Model m;
    Var x = m.addVar(2, 10, VarType::Continuous);
    Var y = m.addVar(-5, 5, VarType::Continuous);
    m.addConstr(LinExpr().add(x, 1).add(y, 1), Sense::Le, 6);
    m.setObjective(LinExpr().add(x, 1).add(y, 2), true);
    Solution s = solveLp(m);
    ASSERT_EQ(s.status, SolveStatus::Optimal);
    // Best: y at its cap contribution... x + y <= 6, max x + 2y ->
    // y = 4? y <= 5 and x >= 2: x=2, y=4 -> 10.
    EXPECT_NEAR(s.objective, 10.0, 1e-9);
    EXPECT_NEAR(s.value(x), 2.0, 1e-9);
    EXPECT_NEAR(s.value(y), 4.0, 1e-9);
}

TEST(Simplex, NegativeRhsNormalized)
{
    // x - y <= -1 with x, y in [0, 10]: feasible (y >= x + 1).
    Model m;
    Var x = m.addVar(0, 10, VarType::Continuous);
    Var y = m.addVar(0, 10, VarType::Continuous);
    m.addConstr(LinExpr().add(x, 1).add(y, -1), Sense::Le, -1);
    m.setObjective(LinExpr().add(x, 1), true);
    Solution s = solveLp(m);
    ASSERT_EQ(s.status, SolveStatus::Optimal);
    EXPECT_NEAR(s.value(x), 9.0, 1e-9);
}

TEST(Simplex, DuplicateTermsAccumulate)
{
    // 2x expressed as x + x.
    Model m;
    Var x = m.addVar(0, 10, VarType::Continuous);
    LinExpr e;
    e.add(x, 1).add(x, 1);
    m.addConstr(e, Sense::Le, 6);
    m.setObjective(LinExpr(x), true);
    Solution s = solveLp(m);
    ASSERT_EQ(s.status, SolveStatus::Optimal);
    EXPECT_NEAR(s.value(x), 3.0, 1e-9);
}

TEST(Simplex, OperatorSyntax)
{
    Model m;
    Var x = m.addVar(0, 4, VarType::Continuous);
    Var y = m.addVar(0, 4, VarType::Continuous);
    LinExpr e = 3.0 * x + 2.0 * LinExpr(y) - 1.0 * x;
    m.addConstr(e, Sense::Le, 10); // 2x + 2y <= 10
    m.setObjective(LinExpr(x) + LinExpr(y), true);
    Solution s = solveLp(m);
    ASSERT_EQ(s.status, SolveStatus::Optimal);
    EXPECT_NEAR(s.objective, 5.0, 1e-9);
}

TEST(Simplex, DegenerateProblemTerminates)
{
    // Classic cycling-prone structure; Bland fallback must terminate.
    Model m;
    Var x1 = m.addVar(0, 1e30, VarType::Continuous);
    Var x2 = m.addVar(0, 1e30, VarType::Continuous);
    Var x3 = m.addVar(0, 1e30, VarType::Continuous);
    m.addConstr(LinExpr().add(x1, 0.5).add(x2, -5.5).add(x3, -2.5),
                Sense::Le, 0);
    m.addConstr(LinExpr().add(x1, 0.5).add(x2, -1.5).add(x3, -0.5),
                Sense::Le, 0);
    m.addConstr(LinExpr().add(x1, 1.0), Sense::Le, 1);
    m.setObjective(
        LinExpr().add(x1, 10).add(x2, -57).add(x3, -9), true);
    Solution s = solveLp(m);
    EXPECT_EQ(s.status, SolveStatus::Optimal);
    EXPECT_NEAR(s.objective, 1.0, 1e-6);
}

TEST(Simplex, DuplicateTermsCancellingToZeroMidExpression)
{
    // Regression: 2x - 2x + 3x <= 6 accumulates through exactly 0.0;
    // the row assembly must still record the net 3.0 coefficient
    // rather than dropping the constraint.
    Model m;
    Var x = m.addVar(0, 100, VarType::Continuous);
    LinExpr e;
    e.add(x, 2.0).add(x, -2.0).add(x, 3.0);
    m.addConstr(e, Sense::Le, 6.0);
    m.setObjective(LinExpr(x), true);
    Solution s = solveLp(m);
    ASSERT_EQ(s.status, SolveStatus::Optimal);
    EXPECT_NEAR(s.objective, 2.0, 1e-9);
}

TEST(Simplex, DuplicateTermsWithShiftedLowerBound)
{
    // Same cancellation pattern with a nonzero lower bound: the rhs
    // shift adjustment must use the net coefficient exactly once.
    Model m;
    Var x = m.addVar(1, 100, VarType::Continuous);
    LinExpr e;
    e.add(x, 5.0).add(x, -5.0).add(x, 2.0);
    m.addConstr(e, Sense::Le, 10.0);
    m.setObjective(LinExpr(x), true);
    Solution s = solveLp(m);
    ASSERT_EQ(s.status, SolveStatus::Optimal);
    EXPECT_NEAR(s.objective, 5.0, 1e-9);
}

} // namespace
