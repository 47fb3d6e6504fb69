/**
 * @file
 * Golden pivot test for the simplex and branch-and-bound solver.
 *
 * Seeded random LPs and 0/1 programs — Le/Ge/Eq rows, negative
 * right-hand sides, shifted and fixed (lb == ub) bounds, duplicate and
 * cancelling terms, and scaled row copies whose ratio tests tie — plus
 * three real scheduleIlp layer models (AlexNet and ResNet-50) are
 * solved, and each solve's status, objective (exact hexfloat), pivot
 * count and B&B node count are pinned.
 *
 * The LP rows were captured from the dense-tableau simplex, before the
 * tableau became pattern-driven. The cold simplex promises the same
 * pivots in the same order, so every LP row must stay exactly equal: a
 * pricing, ratio-test or tie-break change shows up as a different
 * iteration count or objective long before it moves a figure. The B&B
 * rows were re-pinned when node LPs became warm-started: their
 * statuses and objectives are the dense solver's (the 0/1 programs'
 * up to the snapping of incumbents to exact integers), except the
 * node-capped conv2 row, whose cap rose from 200 to 250 nodes.
 *
 * A mismatch prints the solve's row in source form.
 *
 * LpWorkspace.ReuseMatchesFreshSolves drives one workspace through
 * tableaus of different heights, widths and slack/artificial counts
 * and holds every result bit-equal to a fresh-workspace solve, so a
 * stale cell left by an earlier layout cannot go unnoticed.
 *
 * The WarmStart tests hold every warm-started node LP of those B&B
 * solves, and a long chain of random bound flips through one
 * workspace, to a cold solve's status and objective.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "cnn/models.hh"
#include "common/rng.hh"
#include "compiler/dag.hh"
#include "compiler/ilpsched.hh"
#include "ilp/solver.hh"
#include "systolic/trace.hh"

namespace
{

using namespace smart;
using namespace smart::ilp;

constexpr double kInf = std::numeric_limits<double>::infinity();

/** One pinned solve. */
struct Golden
{
    SolveStatus status;
    double objective;
    int iters;
    int nodes;
};

const char *
statusEnumerator(SolveStatus s)
{
    switch (s) {
      case SolveStatus::Optimal:
        return "Optimal";
      case SolveStatus::Infeasible:
        return "Infeasible";
      case SolveStatus::Unbounded:
        return "Unbounded";
      case SolveStatus::IterLimit:
        return "IterLimit";
      case SolveStatus::NodeLimit:
        return "NodeLimit";
    }
    return "?";
}

/** @p s as a golden-table row, for pasting into the tables below. */
std::string
row(const Solution &s)
{
    char buf[128];
    std::snprintf(buf, sizeof buf, "{SolveStatus::%s, %a, %d, %d},",
                  statusEnumerator(s.status), s.objective,
                  s.simplexIters, s.bnbNodes);
    return buf;
}

void
expectGolden(const Solution &s, const std::vector<Golden> &golden,
             std::size_t i, const std::string &label)
{
    if (i >= golden.size()) {
        ADD_FAILURE() << label << ": no golden row; got " << row(s);
        return;
    }
    const Golden &g = golden[i];
    if (s.status != g.status || s.objective != g.objective ||
        s.simplexIters != g.iters || s.bnbNodes != g.nodes)
        ADD_FAILURE() << label << ": got " << row(s);
}

int
pick(Rng &rng, int lo, int hi)
{
    return lo + static_cast<int>(rng.range(hi - lo + 1));
}

Sense
pickSense(Rng &rng)
{
    const auto r = rng.range(8);
    return r < 4 ? Sense::Le : (r < 6 ? Sense::Ge : Sense::Eq);
}

/**
 * A seeded random LP, or 0/1 program when @p binary. Rows are built
 * around a random point inside the bounds, with slack 0 (a degenerate
 * vertex) as often as not, so most models are feasible; one row in
 * twelve is pushed past that point and may make the model infeasible.
 * Coefficients are small integers (zero included) so ratio ties are
 * common; about a third of the rows after the second repeat an earlier
 * row scaled by 2, whose ratios tie with it exactly.
 */
Model
randomModel(std::uint64_t seed, bool binary)
{
    Rng rng(seed);
    Model m;
    const int n = binary ? pick(rng, 6, 16) : pick(rng, 3, 12);
    std::vector<double> point(n);
    for (int j = 0; j < n; ++j) {
        if (binary) {
            const Var v = m.addBinary();
            point[j] = static_cast<double>(rng.range(2));
            if (rng.range(8) == 0)
                m.setBounds(v.id, point[j], point[j]);
            continue;
        }
        double lb = 0.0;
        double ub = kInf;
        switch (rng.range(4)) {
          case 0: // [0, inf)
            point[j] = pick(rng, 0, 3);
            break;
          case 1: // shifted
            lb = pick(rng, -4, 4);
            ub = lb + pick(rng, 1, 8);
            point[j] = lb + pick(rng, 0, static_cast<int>(ub - lb));
            break;
          case 2: // fixed
            lb = ub = point[j] = pick(rng, -2, 3);
            break;
          default:
            ub = pick(rng, 1, 10);
            point[j] = pick(rng, 0, static_cast<int>(ub));
            break;
        }
        m.addVar(lb, ub, VarType::Continuous);
    }

    struct Row
    {
        LinExpr expr;
        Sense sense;
        double rhs;
    };
    std::vector<Row> rows;
    const int num_rows = binary ? pick(rng, 3, 10) : pick(rng, 2, 10);
    for (int i = 0; i < num_rows; ++i) {
        if (i >= 2 && rng.range(3) == 0) {
            const Row &k = rows[rng.range(rows.size())];
            rows.push_back({2.0 * k.expr, k.sense, 2.0 * k.rhs});
            continue;
        }
        LinExpr e;
        const int terms = pick(rng, 1, n);
        for (int t = 0; t < terms; ++t) {
            const Var v{static_cast<int>(rng.range(n))};
            const double c = pick(rng, -3, 4);
            e.add(v, c);
            switch (rng.range(6)) {
              case 0: // duplicate
                e.add(v, c);
                break;
              case 1: // cancels to zero
                e.add(v, -c);
                break;
              default:
                break;
            }
        }
        double lhs = 0.0;
        for (const auto &[id, c] : e.terms())
            lhs += c * point[id];
        const Sense sense = pickSense(rng);
        double slack = rng.range(2) ? 0.0 : pick(rng, 1, 4);
        if (rng.range(12) == 0)
            slack = -1.0 - slack; // past the point
        double rhs = lhs;
        if (sense == Sense::Le)
            rhs += slack;
        else if (sense == Sense::Ge)
            rhs -= slack;
        else if (slack < 0)
            rhs += slack;
        rows.push_back({e, sense, rhs});
    }
    for (const Row &r : rows)
        m.addConstr(r.expr, r.sense, r.rhs);

    LinExpr obj;
    for (int j = 0; j < n; ++j)
        obj.add(Var{j}, pick(rng, -3, 5));
    m.setObjective(obj, rng.range(2) == 0);
    return m;
}

constexpr int kRandomLps = 64;
constexpr int kRandomBinaries = 32;

/** Seeded random LPs, solved with solveLp. */
const std::vector<Golden> kLpGolden = {
    {SolveStatus::Unbounded, 0x0p+0, 3, 0},
    {SolveStatus::Infeasible, 0x0p+0, 2, 0},
    {SolveStatus::Optimal, 0x1.ap+3, 0, 0},
    {SolveStatus::Optimal, -0x1p+3, 1, 0},
    {SolveStatus::Optimal, 0x1.0255555555556p+7, 9, 0},
    {SolveStatus::Optimal, 0x1.8p+3, 5, 0},
    {SolveStatus::Optimal, -0x1.d99999999999bp+2, 4, 0},
    {SolveStatus::Optimal, 0x1.8p+1, 2, 0},
    {SolveStatus::Infeasible, 0x0p+0, 3, 0},
    {SolveStatus::Optimal, 0x1.c555555555556p+5, 7, 0},
    {SolveStatus::Optimal, 0x1.5p+5, 7, 0},
    {SolveStatus::Infeasible, 0x0p+0, 0, 0},
    {SolveStatus::Infeasible, 0x0p+0, 6, 0},
    {SolveStatus::Unbounded, 0x0p+0, 4, 0},
    {SolveStatus::Unbounded, 0x0p+0, 8, 0},
    {SolveStatus::Optimal, 0x1.2cp+5, 11, 0},
    {SolveStatus::Optimal, 0x1.1600000000001p+6, 11, 0},
    {SolveStatus::Infeasible, 0x0p+0, 3, 0},
    {SolveStatus::Optimal, 0x1.18p+5, 10, 0},
    {SolveStatus::Optimal, 0x1.2p+3, 0, 0},
    {SolveStatus::Optimal, -0x1.9a49249249248p+3, 3, 0},
    {SolveStatus::Optimal, -0x1.f4p+5, 14, 0},
    {SolveStatus::Unbounded, 0x0p+0, 2, 0},
    {SolveStatus::Optimal, 0x0p+0, 2, 0},
    {SolveStatus::Unbounded, 0x0p+0, 2, 0},
    {SolveStatus::Unbounded, 0x0p+0, 5, 0},
    {SolveStatus::Optimal, 0x1.cp+5, 6, 0},
    {SolveStatus::Unbounded, 0x0p+0, 7, 0},
    {SolveStatus::Optimal, -0x1.2000000000004p+2, 6, 0},
    {SolveStatus::Optimal, -0x1.4p+2, 1, 0},
    {SolveStatus::Infeasible, 0x0p+0, 2, 0},
    {SolveStatus::Infeasible, 0x0p+0, 5, 0},
    {SolveStatus::Optimal, 0x1.3p+4, 10, 0},
    {SolveStatus::Unbounded, 0x0p+0, 10, 0},
    {SolveStatus::Optimal, -0x1.e000000000004p+2, 10, 0},
    {SolveStatus::Optimal, 0x1.b8p+5, 8, 0},
    {SolveStatus::Optimal, -0x1.cp+1, 9, 0},
    {SolveStatus::Optimal, 0x1.2e00000000001p+6, 12, 0},
    {SolveStatus::Optimal, -0x1p+4, 2, 0},
    {SolveStatus::Unbounded, 0x0p+0, 1, 0},
    {SolveStatus::Unbounded, 0x0p+0, 2, 0},
    {SolveStatus::Optimal, -0x1.5p+5, 3, 0},
    {SolveStatus::Optimal, 0x1.ap+1, 1, 0},
    {SolveStatus::Optimal, 0x1.8p+3, 6, 0},
    {SolveStatus::Infeasible, 0x0p+0, 6, 0},
    {SolveStatus::Optimal, 0x1.44p+4, 2, 0},
    {SolveStatus::Infeasible, 0x0p+0, 0, 0},
    {SolveStatus::Optimal, 0x1.b8e38e38e38e4p+2, 5, 0},
    {SolveStatus::Optimal, -0x1.5cp+5, 3, 0},
    {SolveStatus::Unbounded, 0x0p+0, 3, 0},
    {SolveStatus::Optimal, -0x1.80dd67c8a60ddp+3, 5, 0},
    {SolveStatus::Optimal, 0x1.b155555555554p+5, 11, 0},
    {SolveStatus::Infeasible, 0x0p+0, 0, 0},
    {SolveStatus::Unbounded, 0x0p+0, 4, 0},
    {SolveStatus::Optimal, 0x1.b06p+5, 9, 0},
    {SolveStatus::Optimal, 0x1.14aaaaaaaaaaap+4, 7, 0},
    {SolveStatus::Optimal, -0x1.fcp+4, 4, 0},
    {SolveStatus::Optimal, 0x1.9p+4, 3, 0},
    {SolveStatus::Optimal, 0x1.6p+4, 11, 0},
    {SolveStatus::Optimal, 0x1.dp+3, 8, 0},
    {SolveStatus::Unbounded, 0x0p+0, 1, 0},
    {SolveStatus::Optimal, 0x1p+4, 5, 0},
    {SolveStatus::Unbounded, 0x0p+0, 7, 0},
    {SolveStatus::Infeasible, 0x0p+0, 3, 0},
};

/** Seeded random 0/1 programs, solved with solve. */
const std::vector<Golden> kBinaryGolden = {
    {SolveStatus::Optimal, 0x1.8p+1, 6, 1},
    {SolveStatus::Optimal, 0x0p+0, 13, 3},
    {SolveStatus::Optimal, -0x1.1p+4, 6, 1},
    {SolveStatus::Optimal, 0x1.6p+3, 36, 11},
    {SolveStatus::Optimal, 0x1.4p+3, 13, 3},
    {SolveStatus::Optimal, 0x1.8p+4, 14, 3},
    {SolveStatus::Infeasible, 0x0p+0, 8, 1},
    {SolveStatus::Optimal, 0x1p+4, 10, 1},
    {SolveStatus::Optimal, -0x1.8p+1, 15, 7},
    {SolveStatus::Optimal, 0x1.3p+4, 11, 1},
    {SolveStatus::Optimal, -0x1p+0, 5, 1},
    {SolveStatus::Infeasible, 0x0p+0, 4, 1},
    {SolveStatus::Infeasible, 0x0p+0, 3, 1},
    {SolveStatus::Optimal, -0x1.8p+1, 7, 1},
    {SolveStatus::Optimal, -0x1.4p+2, 7, 1},
    {SolveStatus::Optimal, -0x1.4p+3, 34, 9},
    {SolveStatus::Infeasible, 0x0p+0, 35, 5},
    {SolveStatus::Optimal, -0x1p+1, 33, 9},
    {SolveStatus::Optimal, 0x1.4p+2, 7, 1},
    {SolveStatus::Infeasible, 0x0p+0, 10, 1},
    {SolveStatus::Optimal, 0x1p+4, 7, 1},
    {SolveStatus::Optimal, 0x1.8p+2, 5, 1},
    {SolveStatus::Optimal, -0x1.cp+2, 34, 9},
    {SolveStatus::Optimal, 0x1.6p+3, 4, 1},
    {SolveStatus::Optimal, -0x1.8p+2, 3, 1},
    {SolveStatus::Optimal, -0x1.6p+3, 9, 1},
    {SolveStatus::Infeasible, 0x0p+0, 26, 7},
    {SolveStatus::Optimal, 0x1.8p+1, 9, 3},
    {SolveStatus::Optimal, -0x1p+0, 10, 3},
    {SolveStatus::Optimal, 0x1p+3, 10, 1},
    {SolveStatus::Optimal, 0x0p+0, 5, 1},
    {SolveStatus::Infeasible, 0x0p+0, 39, 5},
};

/** The scheduleIlp models of the layers in kLayers. */
const std::vector<Golden> kLayerGolden = {
    {SolveStatus::NodeLimit, 0x1.4f8fc42d05547p+27, 1333, 250},
    {SolveStatus::Optimal, 0x1.902ea211fb0d4p+25, 313, 77},
    {SolveStatus::Optimal, 0x1.3b96e2c4ef053p+25, 173, 49},
};

struct LayerCase
{
    const char *model;
    const char *layer;
};

/**
 * One AlexNet layer that stops at the node cap and two ResNet-50
 * layers the search closes, on the SMART PE array with the default
 * scheduler parameters.
 */
const LayerCase kLayers[] = {
    {"AlexNet", "conv2"},
    {"ResNet50", "res3_1/3x3"},
    {"ResNet50", "res4_1/proj"},
};

compiler::LayerDag
layerDag(const LayerCase &c)
{
    for (const auto &l : cnn::makeModel(c.model).layers) {
        if (l.name == c.layer) {
            return compiler::buildLayerDag(
                l, systolic::analyzeDemand(l, {64, 256}));
        }
    }
    ADD_FAILURE() << "no layer " << c.model << "/" << c.layer;
    return {};
}

TEST(IlpGolden, RandomLpsPivotForPivot)
{
    for (int i = 0; i < kRandomLps; ++i) {
        const Solution s = solveLp(randomModel(1000 + i, false));
        expectGolden(s, kLpGolden, i, "lp " + std::to_string(i));
    }
    EXPECT_EQ(kLpGolden.size(), static_cast<std::size_t>(kRandomLps));
}

TEST(IlpGolden, RandomBinaryProgramsNodeForNode)
{
    for (int i = 0; i < kRandomBinaries; ++i) {
        const Solution s = solve(randomModel(5000 + i, true));
        expectGolden(s, kBinaryGolden, i, "binary " + std::to_string(i));
    }
    EXPECT_EQ(kBinaryGolden.size(),
              static_cast<std::size_t>(kRandomBinaries));
}

TEST(IlpGolden, LayerModelsNodeForNode)
{
    const SolverOptions opts = compiler::ilpSolverOptions();
    const compiler::SchedParams params;
    for (std::size_t i = 0; i < std::size(kLayers); ++i) {
        const compiler::LayerDag dag = layerDag(kLayers[i]);
        const Solution s =
            solve(compiler::buildIlpModel(dag, params), opts);
        expectGolden(s, kLayerGolden, i, kLayers[i].layer);
        // scheduleIlp solves exactly this model.
        const compiler::Schedule sched = compiler::scheduleIlp(dag, params);
        EXPECT_EQ(sched.objective, s.objective);
        EXPECT_EQ(sched.bnbNodes, s.bnbNodes);
    }
    EXPECT_EQ(kLayerGolden.size(), std::size(kLayers));
}

/** Bit pattern of @p x, so equal means bit-equal. */
std::uint64_t
bits(double x)
{
    std::uint64_t b;
    std::memcpy(&b, &x, sizeof b);
    return b;
}

/**
 * Many columns over three rows: a wider tableau than the layer
 * model's, with each upper bound adding a row and a slack column.
 */
Model
wideModel()
{
    Model m;
    LinExpr weighted;
    LinExpr alternating;
    LinExpr obj;
    for (int j = 0; j < 300; ++j) {
        const Var v = m.addVar(0, 1 + j % 3, VarType::Continuous);
        weighted.add(v, 1 + j % 5);
        alternating.add(v, j % 2 ? 1.0 : -1.0);
        obj.add(v, j % 7 - 2);
    }
    m.addConstr(weighted, Sense::Le, 150);
    m.addConstr(alternating, Sense::Ge, -20);
    m.addConstr(alternating, Sense::Le, 20);
    m.setObjective(obj, true);
    return m;
}

TEST(LpWorkspace, ReuseMatchesFreshSolves)
{
    Model large =
        compiler::buildIlpModel(layerDag(kLayers[0]), {});
    const Model smaller = randomModel(1004, false);
    const Model wider = wideModel();
    // Fixing h and p of an object to 1 turns its hp = AND(h, p) row
    // hp - h - p >= -1 from a normalized Le row into a Ge row, so the
    // slack and artificial column counts change with the bounds. Where
    // the root LP already has both at 1 the model stays feasible;
    // fixing the first twelve objects makes it infeasible in phase 1.
    const Solution root = solveLp(large);
    ASSERT_EQ(root.status, SolveStatus::Optimal);
    Model pinned = large;
    Model overfixed = large;
    for (int obj = 0; 4 * obj < large.numVars(); ++obj) {
        if (root.values[4 * obj] == 1.0 && root.values[4 * obj + 2] == 1.0) {
            pinned.setBounds(4 * obj, 1, 1);
            pinned.setBounds(4 * obj + 2, 1, 1);
        }
        if (obj < 12) {
            overfixed.setBounds(4 * obj, 1, 1);
            overfixed.setBounds(4 * obj + 2, 1, 1);
        }
    }
    ASSERT_EQ(solveLp(pinned).status, SolveStatus::Optimal);
    ASSERT_EQ(solveLp(overfixed).status, SolveStatus::Infeasible);
    // Shifting every bound by 5 flips the sign of most normalized
    // right-hand sides.
    Model shifted = smaller;
    for (int j = 0; j < shifted.numVars(); ++j)
        shifted.setBounds(j, shifted.lb(j) + 5, shifted.ub(j) + 5);

    const Model *sequence[] = {&large,   &smaller, &wider,  &large,
                               &pinned,  &smaller, &large,  &overfixed,
                               &shifted, &wider,   &pinned, &shifted};
    const SolverOptions opts;
    LpWorkspace ws;
    for (std::size_t k = 0; k < std::size(sequence); ++k) {
        SCOPED_TRACE("step " + std::to_string(k));
        const Solution got = solveLp(*sequence[k], opts, ws);
        const Solution fresh = solveLp(*sequence[k], opts);
        EXPECT_EQ(got.status, fresh.status);
        EXPECT_EQ(bits(got.objective), bits(fresh.objective));
        EXPECT_EQ(got.simplexIters, fresh.simplexIters);
        ASSERT_EQ(got.values.size(), fresh.values.size());
        for (std::size_t j = 0; j < got.values.size(); ++j)
            EXPECT_EQ(bits(got.values[j]), bits(fresh.values[j])) << j;
    }
}

/** @p got agrees with the cold solve @p cold: status and objective. */
void
expectSameLp(const Solution &got, const Solution &cold)
{
    ASSERT_EQ(got.status, cold.status);
    if (cold.status == SolveStatus::Optimal) {
        EXPECT_NEAR(got.objective, cold.objective,
                    1e-9 * std::max(1.0, std::fabs(cold.objective)));
    }
}

TEST(WarmStart, WarmMatchesCold)
{
    int nodes = 0;
    const NodeHook check = [&](const Model &node, const Solution &relax) {
        SCOPED_TRACE("node " + std::to_string(nodes));
        ++nodes;
        expectSameLp(relax, solveLp(node));
    };
    for (const LayerCase &c : kLayers) {
        SCOPED_TRACE(c.layer);
        const Model m = compiler::buildIlpModel(layerDag(c), {});
        EXPECT_EQ(solve(m, compiler::ilpSolverOptions(), check).bnbNodes,
                  nodes);
        nodes = 0;
    }
    for (int i = 0; i < kRandomBinaries; ++i) {
        SCOPED_TRACE("binary " + std::to_string(i));
        EXPECT_EQ(solve(randomModel(5000 + i, true), {}, check).bnbNodes,
                  nodes);
        nodes = 0;
    }
}

/**
 * 2,000 seeded bound flips of the conv2 model's binaries, re-solved
 * warm through one workspace and cold in a fresh one. Rounding residue
 * that built up along the chain would show as a drifting objective or
 * a wrong status. While the LP is feasible a flip fixes a random free
 * binary to 0 or 1; once it is infeasible a flip frees a random fixed
 * one, so the chain walks along the edge of feasibility.
 */
TEST(WarmStart, DriftChainMatchesCold)
{
    Model m = compiler::buildIlpModel(layerDag(kLayers[0]), {});
    std::vector<int> free_binaries;
    for (int j = 0; j < m.numVars(); ++j)
        if (m.type(j) == VarType::Binary && m.ub(j) > m.lb(j))
            free_binaries.push_back(j);
    ASSERT_FALSE(free_binaries.empty());

    const SolverOptions opts;
    LpWorkspace ws;
    ASSERT_EQ(solveLp(m, opts, ws).status, SolveStatus::Optimal);
    Rng rng(77);
    std::vector<int> fixed;
    bool feasible = true;
    int optimal = 0;
    for (int step = 0; step < 2000; ++step) {
        SCOPED_TRACE("step " + std::to_string(step));
        if (feasible || fixed.empty()) {
            const std::size_t k = rng.range(free_binaries.size());
            const int j = free_binaries[k];
            const double v = static_cast<double>(rng.range(2));
            m.setBounds(j, v, v);
            free_binaries[k] = free_binaries.back();
            free_binaries.pop_back();
            fixed.push_back(j);
        } else {
            const std::size_t k = rng.range(fixed.size());
            m.setBounds(fixed[k], 0, 1);
            free_binaries.push_back(fixed[k]);
            fixed[k] = fixed.back();
            fixed.pop_back();
        }
        const Solution warm = resolveLp(m, opts, ws);
        const Solution cold = solveLp(m, opts);
        expectSameLp(warm, cold);
        feasible = cold.status == SolveStatus::Optimal;
        optimal += feasible;
    }
    // The chain must visit feasible LPs, not only infeasible ones.
    EXPECT_GT(optimal, 500);
}

/**
 * A model of the same shape as the workspace's tableau but another
 * objective or other constraints is not a bound change: resolveLp must
 * solve it cold, not re-optimize the old tableau.
 */
TEST(WarmStart, OtherModelOfSameShapeSolvesCold)
{
    const Model conv2 = compiler::buildIlpModel(layerDag(kLayers[0]), {});
    Model flipped = conv2;
    flipped.setObjective(conv2.objective(), !conv2.maximize());
    // The same variables and rows with every right-hand side halved.
    Model halved;
    for (int j = 0; j < conv2.numVars(); ++j)
        halved.addVar(conv2.lb(j), conv2.ub(j), conv2.type(j));
    for (const auto &c : conv2.constraints())
        halved.addConstr(c.expr, c.sense, c.rhs / 2);
    halved.setObjective(conv2.objective(), conv2.maximize());

    const SolverOptions opts;
    LpWorkspace ws;
    const Solution first = solveLp(conv2, opts, ws);
    ASSERT_EQ(first.status, SolveStatus::Optimal);
    const Model *sequence[] = {&flipped, &conv2, &halved, &flipped};
    for (std::size_t k = 0; k < std::size(sequence); ++k) {
        SCOPED_TRACE("step " + std::to_string(k));
        const Solution cold = solveLp(*sequence[k], opts);
        ASSERT_EQ(cold.status, SolveStatus::Optimal);
        if (sequence[k] != &conv2) {
            EXPECT_NE(cold.objective, first.objective);
        }
        expectSameLp(resolveLp(*sequence[k], opts, ws), cold);
    }
}

/**
 * hp = AND(h, p) is a continuous variable: for each integral (h, p)
 * of an object that may be prefetched, the AND rows pin hp to h * p,
 * whether the LP pushes hp up or down.
 */
TEST(WarmStart, AndRowsForceHpToProduct)
{
    const Model base = compiler::buildIlpModel(layerDag(kLayers[0]), {});
    // The first object that may be prefetched and fits SHIFT alone.
    int obj = 0;
    for (; 4 * obj < base.numVars(); ++obj) {
        Model both = base;
        both.setBounds(4 * obj, 1, 1);
        both.setBounds(4 * obj + 2, 1, 1);
        if (solveLp(both).status == SolveStatus::Optimal)
            break;
    }
    ASSERT_LT(4 * obj, base.numVars()) << "no object takes h = p = 1";
    Model m = base;
    const Var h{4 * obj};
    const Var p{4 * obj + 2};
    const Var hp{4 * obj + 3};
    EXPECT_EQ(m.type(hp.id), VarType::Continuous);
    EXPECT_EQ(m.lb(hp.id), 0.0);
    EXPECT_EQ(m.ub(hp.id), 1.0);
    for (int hv = 0; hv <= 1; ++hv) {
        for (int pv = 0; pv <= 1; ++pv) {
            SCOPED_TRACE("h=" + std::to_string(hv) +
                         " p=" + std::to_string(pv));
            m.setBounds(h.id, hv, hv);
            m.setBounds(p.id, pv, pv);
            for (bool up : {true, false}) {
                m.setObjective(LinExpr(hp), up);
                const Solution s = solveLp(m);
                ASSERT_EQ(s.status, SolveStatus::Optimal);
                EXPECT_NEAR(s.value(hp), hv * pv, 1e-9);
            }
        }
    }
}

} // namespace
