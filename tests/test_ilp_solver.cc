/**
 * @file
 * Tests for branch & bound: knapsacks, assignment, and a property sweep
 * against brute-force enumeration on random 0/1 programs.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hh"
#include "ilp/solver.hh"

namespace
{

using namespace smart;
using namespace smart::ilp;

TEST(Bnb, SmallKnapsack)
{
    // max 10a + 6b + 4c s.t. 5a + 4b + 3c <= 10 -> a=b=1, obj 16.
    Model m;
    Var a = m.addBinary();
    Var b = m.addBinary();
    Var c = m.addBinary();
    m.addConstr(LinExpr().add(a, 5).add(b, 4).add(c, 3), Sense::Le, 10);
    m.setObjective(LinExpr().add(a, 10).add(b, 6).add(c, 4), true);
    Solution s = solve(m);
    ASSERT_EQ(s.status, SolveStatus::Optimal);
    EXPECT_NEAR(s.objective, 16.0, 1e-9);
    EXPECT_NEAR(s.value(a), 1.0, 1e-6);
    EXPECT_NEAR(s.value(b), 1.0, 1e-6);
    EXPECT_NEAR(s.value(c), 0.0, 1e-6);
}

TEST(Bnb, IntegerVariables)
{
    // max 3x + 2y s.t. x + y <= 4.5, x,y integer in [0,4].
    Model m;
    Var x = m.addVar(0, 4, VarType::Integer);
    Var y = m.addVar(0, 4, VarType::Integer);
    m.addConstr(LinExpr().add(x, 1).add(y, 1), Sense::Le, 4.5);
    m.setObjective(LinExpr().add(x, 3).add(y, 2), true);
    Solution s = solve(m);
    ASSERT_EQ(s.status, SolveStatus::Optimal);
    EXPECT_NEAR(s.objective, 12.0, 1e-9); // x=4, y=0
}

TEST(Bnb, ContinuousFallsThroughToLp)
{
    Model m;
    Var x = m.addVar(0, 10, VarType::Continuous);
    m.setObjective(LinExpr(x), true);
    Solution s = solve(m);
    ASSERT_EQ(s.status, SolveStatus::Optimal);
    EXPECT_EQ(s.bnbNodes, 0);
    EXPECT_NEAR(s.value(x), 10.0, 1e-9);
}

TEST(Bnb, InfeasibleInteger)
{
    // x binary with 0.3 <= x <= 0.7 has no integral point.
    Model m;
    Var x = m.addBinary();
    m.addConstr(LinExpr(x), Sense::Ge, 0.3);
    m.addConstr(LinExpr(x), Sense::Le, 0.7);
    m.setObjective(LinExpr(x), true);
    EXPECT_EQ(solve(m).status, SolveStatus::Infeasible);
}

TEST(Bnb, AssignmentProblem)
{
    // 3x3 assignment: cost matrix with the obvious diagonal optimum.
    const double cost[3][3] = {
        {1, 9, 9},
        {9, 1, 9},
        {9, 9, 1},
    };
    Model m;
    Var x[3][3];
    for (int i = 0; i < 3; ++i)
        for (int j = 0; j < 3; ++j)
            x[i][j] = m.addBinary();
    for (int i = 0; i < 3; ++i) {
        LinExpr row, col;
        for (int j = 0; j < 3; ++j) {
            row.add(x[i][j], 1);
            col.add(x[j][i], 1);
        }
        m.addConstr(row, Sense::Eq, 1);
        m.addConstr(col, Sense::Eq, 1);
    }
    LinExpr obj;
    for (int i = 0; i < 3; ++i)
        for (int j = 0; j < 3; ++j)
            obj.add(x[i][j], cost[i][j]);
    m.setObjective(obj, false);

    Solution s = solve(m);
    ASSERT_EQ(s.status, SolveStatus::Optimal);
    EXPECT_NEAR(s.objective, 3.0, 1e-6);
}

TEST(Bnb, GapToleranceAcceptsEarly)
{
    Model m;
    std::vector<Var> xs;
    Rng rng(11);
    LinExpr w, obj;
    for (int i = 0; i < 12; ++i) {
        xs.push_back(m.addBinary());
        w.add(xs.back(), 1.0 + rng.uniform());
        obj.add(xs.back(), 1.0 + rng.uniform());
    }
    m.addConstr(w, Sense::Le, 8.0);
    m.setObjective(obj, true);

    SolverOptions exact;
    Solution s_exact = solve(m, exact);
    SolverOptions loose;
    loose.gapTol = 0.05;
    Solution s_loose = solve(m, loose);
    ASSERT_TRUE(s_loose.feasible());
    EXPECT_GE(s_loose.objective, s_exact.objective * 0.95 - 1e-9);
    EXPECT_LE(s_loose.bnbNodes, s_exact.bnbNodes);
}

TEST(Bnb, NodeCapWithoutIncumbentIsNodeLimit)
{
    // max x + y + z s.t. 2x + 2y + 2z <= 3: the root LP is fractional
    // (x = 1, y = 0.5) and rounds to an infeasible point, so one node
    // ends the search with no incumbent.
    Model m;
    Var x = m.addBinary();
    Var y = m.addBinary();
    Var z = m.addBinary();
    m.addConstr(LinExpr().add(x, 2).add(y, 2).add(z, 2), Sense::Le, 3);
    m.setObjective(LinExpr().add(x, 1).add(y, 1).add(z, 1), true);
    SolverOptions capped;
    capped.maxBnbNodes = 1;
    const Solution s = solve(m, capped);
    EXPECT_EQ(s.status, SolveStatus::NodeLimit);
    EXPECT_EQ(s.bnbNodes, 1);
    EXPECT_TRUE(s.values.empty());
    EXPECT_FALSE(s.feasible());
    // Uncapped, the same model has an optimum.
    const Solution full = solve(m);
    ASSERT_EQ(full.status, SolveStatus::Optimal);
    EXPECT_EQ(full.objective, 1.0);
}

/**
 * Property test: random 0/1 knapsacks with two constraints, checked
 * against brute-force enumeration.
 */
class RandomIlpSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(RandomIlpSweep, MatchesBruteForce)
{
    Rng rng(1000 + GetParam());
    const int n = 8;
    std::vector<double> value(n), w1(n), w2(n);
    for (int i = 0; i < n; ++i) {
        value[i] = 1.0 + rng.uniform() * 9.0;
        w1[i] = 1.0 + rng.uniform() * 4.0;
        w2[i] = 1.0 + rng.uniform() * 4.0;
    }
    const double cap1 = 10.0, cap2 = 8.0;

    Model m;
    std::vector<Var> xs;
    LinExpr c1, c2, obj;
    for (int i = 0; i < n; ++i) {
        xs.push_back(m.addBinary());
        c1.add(xs[i], w1[i]);
        c2.add(xs[i], w2[i]);
        obj.add(xs[i], value[i]);
    }
    m.addConstr(c1, Sense::Le, cap1);
    m.addConstr(c2, Sense::Le, cap2);
    m.setObjective(obj, true);
    Solution s = solve(m);
    ASSERT_EQ(s.status, SolveStatus::Optimal);

    double best = 0.0;
    for (int mask = 0; mask < (1 << n); ++mask) {
        double v = 0, a = 0, b = 0;
        for (int i = 0; i < n; ++i) {
            if (mask & (1 << i)) {
                v += value[i];
                a += w1[i];
                b += w2[i];
            }
        }
        if (a <= cap1 && b <= cap2)
            best = std::max(best, v);
    }
    EXPECT_NEAR(s.objective, best, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomIlpSweep, ::testing::Range(0, 12));

} // namespace
