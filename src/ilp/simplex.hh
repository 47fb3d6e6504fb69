/**
 * @file
 * Simplex for the LP relaxations used by the branch-and-bound ILP
 * solver.
 *
 * solveLp is a cold two-phase primal simplex: Dantzig pricing with a
 * Bland's-rule fallback for anti-cycling; variable bounds are folded
 * into the tableau (lower bounds by shifting, upper bounds as explicit
 * rows). The tableau is stored flat but walked through row and column
 * sparsity patterns, so a pivot costs work in its nonzeros rather than
 * in the tableau's size, while taking the same pivots a dense sweep
 * would.
 *
 * resolveLp warm-starts from the optimal tableau a workspace already
 * holds when the model differs from the one that tableau was built for
 * only in its variable bounds (equal Model::structure()). A bound
 * change moves the right-hand side, never the reduced costs, so the old
 * basis stays dual feasible; each change enters the rhs through B^-1,
 * whose columns are the initial slack and artificial identity columns
 * (pivots keep them current). Dual simplex pivots then restore primal feasibility, and a
 * primal pass cleans up any reduced cost left past the tolerance.
 */

#ifndef SMART_ILP_SIMPLEX_HH
#define SMART_ILP_SIMPLEX_HH

#include <cstdint>
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
    /**
     * True if the solve produced a usable assignment: optimal, or
     * stopped at the node limit with an incumbent in hand.
     */
    bool feasible() const
    {
        return (status == SolveStatus::Optimal ||
                status == SolveStatus::NodeLimit) &&
               !values.empty();
    }
};

/**
 * Reusable solve buffers. The branch-and-bound search solves thousands
 * of structurally identical LPs that differ only in variable bounds;
 * routing them through one workspace reuses every row/column
 * allocation (tableau, patterns, rhs, basis, pricing vectors, assembly
 * buffers) instead of reallocating per node, and keeps the last
 * optimal tableau for resolveLp to warm-start from. A workspace may be
 * reused across models of any size; it must not be shared between
 * threads.
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
    long patternCells = 0; //!< Cells on the patterns.
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
    int stampTag = 0; //!< Last stamp tag handed out.

    // Warm-start state: what the rows of the held tableau mean, so
    // resolveLp can move bound changes into its rhs.
    std::uint64_t structure = 0; //!< Model::structure() of the build.
    int firstArtificial = 0;
    int modelRows = 0; //!< Rows from constraints; the rest are ub rows.
    /**
     * Per row, the column that was its initial basic slack or
     * artificial. Its current column is B^-1's column for that row.
     */
    std::vector<int> identityCol;
    std::vector<int> ubRow;      //!< Per variable: its ub row, or -1.
    std::vector<double> ub;      //!< Upper bounds the rhs reflects.
    // The normalized constraint rows' coefficients by column (CSC).
    std::vector<int> cscPtr;
    std::vector<int> cscRows;
    std::vector<double> cscVals;
    /**
     * The tableau holds a dual-feasible phase-2 basis with current
     * reduced costs in red and phase-2 costs in cost.
     */
    bool warm = false;
};

/** Solve the LP relaxation of @p model (integrality ignored). */
Solution solveLp(const Model &model, const SolverOptions &opts = {});

/**
 * Solve the LP relaxation cold, reusing @p ws's buffers. Results are
 * identical to the workspace-free overload. Leaves @p ws warm when the
 * LP is optimal.
 */
Solution solveLp(const Model &model, const SolverOptions &opts,
                 LpWorkspace &ws);

/**
 * Re-solve the LP relaxation from the tableau @p ws holds (the B&B hot
 * path). Falls back to a cold solveLp when @p ws is not warm, @p model
 * differs from the model of that tableau in more than its variable
 * bounds (Model::structure()), a bound change would change the row
 * layout, the tableau's fill-in covers more than a quarter of its
 * cells, the warm pivots outnumber rows plus columns, or a basic
 * artificial leaves zero. The status matches a cold solve's and the
 * objective agrees to rounding, but a degenerate LP may land on
 * another optimal vertex.
 */
Solution resolveLp(const Model &model, const SolverOptions &opts,
                   LpWorkspace &ws);

} // namespace smart::ilp

#endif // SMART_ILP_SIMPLEX_HH
