/**
 * @file
 * Two-phase primal simplex for the LP relaxations used by the
 * branch-and-bound ILP solver. Dantzig pricing with a Bland's-rule
 * fallback for anti-cycling; variable bounds are folded into the
 * tableau (lower bounds by shifting, upper bounds as explicit rows).
 * The tableau is stored flat but walked through row and column
 * sparsity patterns, so a pivot costs work in its nonzeros rather than
 * in the tableau's size, while taking the same pivots a dense sweep
 * would.
 */

#ifndef SMART_ILP_SIMPLEX_HH
#define SMART_ILP_SIMPLEX_HH

#include <vector>

#include "ilp/model.hh"

namespace smart::ilp
{

/** Termination status of a solve. */
enum class SolveStatus
{
    Optimal,
    Infeasible,
    Unbounded,
    IterLimit,
    NodeLimit
};

/** Human-readable status name. */
const char *statusName(SolveStatus s);

/** Solver tolerances and limits. */
struct SolverOptions
{
    double eps = 1e-9;        //!< Pivot / feasibility tolerance.
    double intTol = 1e-6;     //!< Integrality tolerance.
    int maxIters = 50000;     //!< Simplex iteration cap per LP.
    int maxBnbNodes = 20000;  //!< Branch & bound node cap.
    /**
     * Accept an incumbent within this relative gap of the root LP
     * bound (0 demands proven optimality).
     */
    double gapTol = 0.0;
};

/** Result of an LP or ILP solve. */
struct Solution
{
    SolveStatus status = SolveStatus::Infeasible;
    double objective = 0.0;
    std::vector<double> values; //!< One entry per model variable.
    int simplexIters = 0;       //!< Total simplex pivots.
    int bnbNodes = 0;           //!< Branch & bound nodes explored.
    /**
     * Objective-space bound in the model's optimization direction
     * (the root LP relaxation for B&B solves, the objective itself
     * for pure LPs). Lets callers compute an optimality-gap bound
     * for incumbents accepted under gapTol or the node limit.
     */
    double bestBound = 0.0;
    bool hasBestBound = false; //!< bestBound was actually computed.

    /** Value of a variable in this solution. */
    double value(Var v) const { return values[v.id]; }
    /** True if the solve produced a usable assignment. */
    bool feasible() const
    {
        return status == SolveStatus::Optimal ||
               status == SolveStatus::NodeLimit;
    }
};

/**
 * Reusable solve buffers. The branch-and-bound search solves thousands
 * of structurally identical LPs that differ only in variable bounds;
 * routing them through one workspace reuses every row/column
 * allocation (tableau, patterns, rhs, basis, pricing vectors, assembly
 * buffers) instead of reallocating per node. A workspace may be reused
 * across models of any size; it must not be shared between threads.
 */
struct LpWorkspace
{
    // Tableau state: m x cols cells, row-major with row stride cols.
    // Only cells on the patterns below can be nonzero.
    std::vector<double> a;
    std::vector<double> rhs;
    std::vector<int> basis;
    std::vector<double> shift;
    // Sparsity patterns: the columns of each row and the rows of each
    // column that may be nonzero. Both hold the same set of cells, a
    // superset of the nonzeros, extended on fill-in. The lists are
    // cleared, never freed, so B&B nodes reuse their capacity.
    std::vector<std::vector<int>> rowCols;
    std::vector<std::vector<int>> colRows;
    // Layout of the last solve, whose pattern cells the next solve
    // clears instead of zero-filling the whole tableau.
    int layoutRows = 0;
    int layoutCols = 0;
    // Pivot buffers: the pivot row's nonzero columns, and a per-column
    // marker of the pattern of the row being eliminated.
    std::vector<int> live;
    std::vector<int> stamp;
    // Pricing buffers.
    std::vector<double> cost;
    std::vector<double> red;
    // Row assembly: CSR of normalized rows + dense accumulation scratch.
    std::vector<double> csrVals;
    std::vector<int> csrCols;
    std::vector<int> csrRowPtr;
    std::vector<double> rowRhs;
    std::vector<signed char> rowSense;
    std::vector<double> accum;
    std::vector<signed char> inRow; //!< Membership marker for accum.
    std::vector<int> touched;
};

/** Solve the LP relaxation of @p model (integrality ignored). */
Solution solveLp(const Model &model, const SolverOptions &opts = {});

/**
 * Solve the LP relaxation reusing @p ws across calls (the B&B hot
 * path). Results are identical to the workspace-free overload.
 */
Solution solveLp(const Model &model, const SolverOptions &opts,
                 LpWorkspace &ws);

} // namespace smart::ilp

#endif // SMART_ILP_SIMPLEX_HH
