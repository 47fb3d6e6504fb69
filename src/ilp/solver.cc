#include "ilp/solver.hh"

#include <cmath>
#include <limits>
#include <queue>
#include <utility>
#include <vector>

#include "common/logging.hh"

namespace smart::ilp
{

namespace
{

/** Indices of integer-constrained variables. */
std::vector<int>
integerVars(const Model &model)
{
    std::vector<int> ids;
    for (int j = 0; j < model.numVars(); ++j)
        if (model.type(j) != VarType::Continuous)
            ids.push_back(j);
    return ids;
}

/** Most-fractional integer variable in @p values, or -1 if integral. */
int
pickBranchVar(const std::vector<int> &int_vars,
              const std::vector<double> &values, double tol)
{
    int best = -1;
    double best_frac = tol;
    for (int j : int_vars) {
        const double f = values[j] - std::floor(values[j]);
        const double frac = std::min(f, 1.0 - f);
        if (frac > best_frac) {
            best_frac = frac;
            best = j;
        }
    }
    return best;
}

/**
 * Try rounding an LP solution to an integral assignment and verify
 * feasibility; used to seed the incumbent early.
 */
bool
roundedFeasible(const Model &model, std::vector<double> &values,
                double eps)
{
    for (int j = 0; j < model.numVars(); ++j) {
        if (model.type(j) == VarType::Continuous)
            continue;
        values[j] = std::round(values[j]);
        if (values[j] < model.lb(j) || values[j] > model.ub(j))
            return false;
    }
    for (const auto &c : model.constraints()) {
        double lhs = 0.0;
        for (const auto &[id, coeff] : c.expr.terms())
            lhs += coeff * values[id];
        switch (c.sense) {
          case Sense::Le:
            if (lhs > c.rhs + eps)
                return false;
            break;
          case Sense::Ge:
            if (lhs < c.rhs - eps)
                return false;
            break;
          case Sense::Eq:
            if (std::fabs(lhs - c.rhs) > eps)
                return false;
            break;
        }
    }
    return true;
}

double
objectiveOf(const Model &model, const std::vector<double> &values)
{
    double obj = 0.0;
    for (const auto &[id, c] : model.objective().terms())
        obj += c * values[id];
    return obj;
}

/** One bound override relative to the root model. */
struct BoundOverride
{
    int var;
    double lb;
    double ub;
};

/**
 * Open node: its bound overrides vs the root, the parent's LP bound
 * (in maximize direction, an upper bound on anything below it), and a
 * creation sequence number for deterministic ordering.
 */
struct Node
{
    std::vector<BoundOverride> bounds;
    double parentBound;
    long seq;
};

/**
 * Best-bound ordering for the improvement phase: pop the node with the
 * most promising parent relaxation first; ties break toward the most
 * recently created (deepest) node.
 */
struct NodeOrder
{
    bool operator()(const Node &a, const Node &b) const
    {
        if (a.parentBound != b.parentBound)
            return a.parentBound < b.parentBound;
        return a.seq < b.seq;
    }
};

} // namespace

/*
 * Two-phase search. Until the first incumbent exists, nodes follow
 * depth-first order diving into the rounding-closest child — the
 * fastest route to an integral leaf on the near-symmetric scheduling
 * models. Once an incumbent is known, remaining open nodes are drawn
 * in best-bound order, so the search proves optimality (or closes the
 * gap) with the fewest LP solves, and the heap top doubles as a global
 * bound: when it cannot beat the incumbent, the search is done. All
 * node LPs run through one reusable workspace; each node stores only
 * its bound overrides vs the root model, applied and rolled back
 * incrementally.
 */
Solution
solve(const Model &model, const SolverOptions &opts,
      const NodeHook &onNode)
{
    const std::vector<int> int_vars = integerVars(model);
    if (int_vars.empty()) {
        Solution lp = solveLp(model, opts);
        if (lp.status == SolveStatus::Optimal) {
            lp.bestBound = lp.objective;
            lp.hasBestBound = true;
        }
        return lp;
    }

    Model work = model; // mutable copy for bound overrides
    LpWorkspace ws;     // reused across every node's LP solve

    Solution best;
    best.status = SolveStatus::Infeasible;
    bool have_incumbent = false;
    const double dir = model.maximize() ? 1.0 : -1.0;
    constexpr double kInf = std::numeric_limits<double>::infinity();

    int nodes = 0;
    int total_iters = 0;
    long next_seq = 0;
    std::vector<Node> stack;                                // DFS phase
    std::priority_queue<Node, std::vector<Node>, NodeOrder> open;
    stack.push_back(Node{{}, kInf, next_seq++});
    bool node_limit_hit = false;
    double root_bound = 0.0;
    bool have_root_bound = false;
    std::vector<BoundOverride> saved;

    while (!stack.empty() || !open.empty()) {
        if (nodes >= opts.maxBnbNodes) {
            node_limit_hit = true;
            break;
        }
        // Gap-based early acceptance against the root relaxation.
        if (have_incumbent && have_root_bound && opts.gapTol > 0.0) {
            const double gap =
                std::fabs(root_bound - dir * best.objective) /
                (std::fabs(root_bound) + 1e-12);
            if (gap <= opts.gapTol)
                break;
        }
        Node node{{}, kInf, 0};
        if (!stack.empty()) {
            node = std::move(stack.back());
            stack.pop_back();
            // Dive leftovers that cannot beat the incumbent are
            // skipped without an LP solve.
            if (have_incumbent &&
                node.parentBound <= dir * best.objective + 1e-9)
                continue;
        } else {
            node = open.top();
            open.pop();
            // Best-bound ordering: once the top of the heap cannot
            // beat the incumbent, no open node can — proven optimal.
            if (have_incumbent &&
                node.parentBound <= dir * best.objective + 1e-9)
                break;
        }
        ++nodes;

        // Apply this node's bound overrides (incremental vs the root).
        saved.clear();
        for (const auto &b : node.bounds) {
            saved.push_back({b.var, work.lb(b.var), work.ub(b.var)});
            work.setBounds(b.var, b.lb, b.ub);
        }

        // The root solves cold; every later node re-optimizes the
        // tableau the previous node left.
        Solution relax = resolveLp(work, opts, ws);
        total_iters += relax.simplexIters;
        int branch = -1;
        if (relax.status == SolveStatus::Optimal) {
            branch = pickBranchVar(int_vars, relax.values, opts.intTol);
            // An integral vertex becomes an incumbent only once its
            // snapped values pass the node's model. A warm vertex that
            // fails is re-solved cold, whose vertex is taken as is.
            if (branch < 0 && nodes > 1 &&
                !roundedFeasible(work, relax.values, 1e-6)) {
                relax = solveLp(work, opts, ws);
                total_iters += relax.simplexIters;
                if (relax.status == SolveStatus::Optimal)
                    branch =
                        pickBranchVar(int_vars, relax.values, opts.intTol);
            }
        }
        if (onNode)
            onNode(work, relax);
        if (!have_root_bound && relax.status == SolveStatus::Optimal) {
            root_bound = dir * relax.objective;
            have_root_bound = true;
        }

        bool prune = relax.status != SolveStatus::Optimal;
        if (!prune && have_incumbent &&
            dir * relax.objective <= dir * best.objective + 1e-9)
            prune = true; // bound: cannot beat the incumbent

        if (!prune) {
            if (branch < 0) {
                // Integral solution: snap the integer variables to
                // exact integers and price the snapped point, so the
                // incumbent carries no LP rounding residue.
                for (int j : int_vars)
                    relax.values[j] = std::round(relax.values[j]);
                relax.objective = objectiveOf(model, relax.values);
                if (!have_incumbent ||
                    dir * relax.objective > dir * best.objective) {
                    best = std::move(relax);
                    have_incumbent = true;
                }
            } else {
                // Incumbent heuristic: rounded LP solution.
                std::vector<double> rounded = relax.values;
                if (roundedFeasible(work, rounded, 1e-6)) {
                    const double obj = objectiveOf(model, rounded);
                    if (!have_incumbent ||
                        dir * obj > dir * best.objective) {
                        best.status = SolveStatus::Optimal;
                        best.objective = obj;
                        best.values = rounded;
                        have_incumbent = true;
                    }
                }
                const double bound = dir * relax.objective;
                const double v = relax.values[branch];
                Node down{node.bounds, bound, next_seq++};
                down.bounds.push_back(
                    {branch, work.lb(branch), std::floor(v)});
                Node up{std::move(node.bounds), bound, next_seq++};
                up.bounds.push_back(
                    {branch, std::ceil(v), work.ub(branch)});
                const bool down_first = v - std::floor(v) < 0.5;
                if (!have_incumbent) {
                    // DFS: push the rounding-closest side last so it
                    // is explored first.
                    if (down_first) {
                        stack.push_back(std::move(up));
                        stack.push_back(std::move(down));
                    } else {
                        stack.push_back(std::move(down));
                        stack.push_back(std::move(up));
                    }
                } else {
                    open.push(std::move(down));
                    open.push(std::move(up));
                }
            }
        }

        // Restore bounds for the next node.
        for (auto it = saved.rbegin(); it != saved.rend(); ++it)
            work.setBounds(it->var, it->lb, it->ub);
    }

    best.bnbNodes = nodes;
    best.simplexIters = total_iters;
    // A capped search is NodeLimit with or without an incumbent; only
    // an exhausted one proves infeasibility.
    if (node_limit_hit)
        best.status = SolveStatus::NodeLimit;
    // Report the root relaxation back in the model's direction so
    // callers can bound the gap of gapTol / node-limit incumbents.
    best.bestBound = dir > 0.0 ? root_bound : -root_bound;
    best.hasBestBound = have_root_bound;
    return best;
}

} // namespace smart::ilp
