#include "ilp/simplex.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.hh"

namespace smart::ilp
{

const char *
statusName(SolveStatus s)
{
    switch (s) {
      case SolveStatus::Optimal:
        return "optimal";
      case SolveStatus::Infeasible:
        return "infeasible";
      case SolveStatus::Unbounded:
        return "unbounded";
      case SolveStatus::IterLimit:
        return "iteration-limit";
      case SolveStatus::NodeLimit:
        return "node-limit";
    }
    smart_panic("unknown status");
}

namespace
{

constexpr double kInf = std::numeric_limits<double>::infinity();

/**
 * Simplex over buffers owned by an LpWorkspace. All per-solve state
 * lives in the workspace so repeated solves (the B&B node loop) touch
 * the allocator only when the model grows, and a later solve can
 * warm-start from the tableau an earlier one left.
 *
 * Every loop over tableau cells walks the sparsity patterns instead of
 * whole rows or columns. Cells off the patterns are exactly zero, and
 * skipping x / p or r[j] -= f * 0 for a zero changes at most the sign
 * of a zero, which no comparison or divisor sees; pricing scans red[]
 * densely in index order and the ratio test visits rows in ascending
 * order, so every tie breaks as in a dense sweep and the pivots are
 * the same.
 */
class Tableau
{
  public:
    /** A tableau over @p ws, laid out as its last build left it. */
    Tableau(const Model &model, const SolverOptions &opts,
            LpWorkspace &ws);

    /** Assemble the model's initial tableau (cold start). */
    void build();
    /** Run both phases from a fresh build; returns the LP status. */
    SolveStatus solve();
    /**
     * Warm start: move the model's bound changes into the rhs, then
     * run dual and primal pivots. Returns false, leaving @p status
     * unset, when the warm state cannot be used.
     */
    bool reoptimize(SolveStatus &status);

    /** Structural variable values (unshifted). */
    std::vector<double> extractValues() const;
    /** Objective value at the current basis. */
    double objectiveValue(const std::vector<double> &values) const;
    /** Total pivots performed. */
    int iters() const { return iters_; }

  private:
    /**
     * Primal pivots until optimal for @p cost; reuses the reduced
     * costs in ws_.red unless @p fresh_red. False at the iteration cap.
     */
    bool pivotLoop(const std::vector<double> &cost, bool phase1,
                   bool fresh_red);
    /** Dual pivots until primal feasible; false at the pivot cap. */
    bool dualLoop(int cap);
    void pivot(int row, int col);
    /** Recompute the full reduced-cost row for the given cost vector. */
    void computeReducedRow(const std::vector<double> &cost);
    /** Move the bounds of model_ into the rhs; false on a layout change. */
    bool moveBounds();
    /** Add @p delta times B^-1's column for @p row to the rhs. */
    void addToRhs(int row, double delta);

    double *row(int i) { return ws_.a.data() + i * cols_; }
    const double *row(int i) const { return ws_.a.data() + i * cols_; }
    /** Put cell (i, j), not yet on them, on both patterns. */
    void addCell(int i, int j)
    {
        ws_.rowCols[i].push_back(j);
        ws_.colRows[j].push_back(i);
        ++ws_.patternCells;
    }

    const Model &model_;
    const SolverOptions &opts_;
    LpWorkspace &ws_;
    int n_;               //!< Structural variables.
    int m_;               //!< Tableau rows.
    int cols_;            //!< Total tableau columns (without rhs).
    int first_artificial_;
    int iters_ = 0;
    bool unbounded_ = false;
    bool infeasible_ = false; //!< The dual loop found an empty row.
};

Tableau::Tableau(const Model &model, const SolverOptions &opts,
                 LpWorkspace &ws)
    : model_(model), opts_(opts), ws_(ws), n_(model.numVars()),
      m_(ws.layoutRows), cols_(ws.layoutCols),
      first_artificial_(ws.firstArtificial)
{
}

void
Tableau::build()
{
    const Model &model = model_;
    ws_.warm = false;
    ws_.structure = model.structure();
    ws_.shift.assign(n_, 0.0);
    for (int j = 0; j < n_; ++j) {
        smart_assert(std::isfinite(model.lb(j)),
                     "variable ", j,
                     " needs a finite lower bound");
        ws_.shift[j] = model.lb(j);
    }

    // Assemble normalized rows (rhs >= 0) into the workspace CSR:
    // model constraints first, then finite-upper-bound rows. Duplicate
    // terms accumulate through the dense scratch.
    ws_.csrVals.clear();
    ws_.csrCols.clear();
    ws_.csrRowPtr.clear();
    ws_.rowRhs.clear();
    ws_.rowSense.clear();
    ws_.csrRowPtr.push_back(0);
    ws_.accum.assign(n_, 0.0);
    ws_.inRow.assign(n_, 0);
    ws_.touched.clear();

    int slacks = 0;
    int artificials = 0;
    auto sealRow = [&](Sense sense, double rhs) {
        if (rhs < 0) {
            rhs = -rhs;
            for (int j : ws_.touched)
                ws_.accum[j] = -ws_.accum[j];
            sense = sense == Sense::Le
                        ? Sense::Ge
                        : (sense == Sense::Ge ? Sense::Le : Sense::Eq);
        }
        for (int j : ws_.touched) {
            ws_.csrVals.push_back(ws_.accum[j]);
            ws_.csrCols.push_back(j);
            ws_.accum[j] = 0.0;
            ws_.inRow[j] = 0;
        }
        ws_.touched.clear();
        ws_.csrRowPtr.push_back(static_cast<int>(ws_.csrCols.size()));
        ws_.rowRhs.push_back(rhs);
        ws_.rowSense.push_back(static_cast<signed char>(sense));
        if (sense != Sense::Eq)
            ++slacks;
        if (sense != Sense::Le)
            ++artificials;
    };

    for (const auto &c : model.constraints()) {
        double rhs = c.rhs;
        for (const auto &[id, coeff] : c.expr.terms()) {
            // Membership is tracked explicitly: duplicate terms whose
            // running sum transits exactly 0.0 must not re-enter
            // touched, or the CSR would emit the column twice.
            if (!ws_.inRow[id]) {
                ws_.inRow[id] = 1;
                ws_.touched.push_back(id);
            }
            ws_.accum[id] += coeff;
        }
        for (int j : ws_.touched)
            rhs -= ws_.accum[j] * ws_.shift[j];
        sealRow(c.sense, rhs);
    }
    ws_.modelRows = model.numConstrs();
    ws_.ubRow.assign(n_, -1);
    ws_.ub.assign(n_, 0.0);
    for (int j = 0; j < n_; ++j) {
        ws_.ub[j] = model.ub(j);
        if (std::isfinite(model.ub(j))) {
            ws_.ubRow[j] = static_cast<int>(ws_.rowRhs.size());
            ws_.accum[j] = 1.0;
            ws_.inRow[j] = 1;
            ws_.touched.push_back(j);
            sealRow(Sense::Le, model.ub(j) - ws_.shift[j]);
        }
    }

    m_ = static_cast<int>(ws_.rowRhs.size());
    first_artificial_ = n_ + slacks;
    cols_ = n_ + slacks + artificials;

    // Zero the cells the previous solve left on its patterns, at its
    // row stride; every other cell is already zero.
    for (int i = 0; i < ws_.layoutRows; ++i) {
        double *r = ws_.a.data() +
                    static_cast<std::size_t>(i) * ws_.layoutCols;
        for (int j : ws_.rowCols[i])
            r[j] = 0.0;
        ws_.rowCols[i].clear();
    }
    for (int j = 0; j < ws_.layoutCols; ++j)
        ws_.colRows[j].clear();
    ws_.patternCells = 0;
    // Storage only grows, so B&B nodes reuse it without reallocating.
    const std::size_t cells = static_cast<std::size_t>(m_) * cols_;
    if (ws_.a.size() < cells)
        ws_.a.resize(cells, 0.0);
    if (ws_.rowCols.size() < static_cast<std::size_t>(m_))
        ws_.rowCols.resize(m_);
    if (ws_.colRows.size() < static_cast<std::size_t>(cols_))
        ws_.colRows.resize(cols_);
    ws_.layoutRows = m_;
    ws_.layoutCols = cols_;
    ws_.firstArtificial = first_artificial_;
    ws_.stamp.assign(cols_, 0);
    ws_.stampTag = 0;
    ws_.rhs.assign(m_, 0.0);
    ws_.basis.assign(m_, 0);
    ws_.identityCol.assign(m_, 0);

    // Fill the tableau from the CSR plus slack/artificial columns.
    // Rows are filled in order, so every column pattern starts sorted.
    auto set = [&](int i, int j, double v) {
        row(i)[j] = v;
        addCell(i, j);
    };
    int slack_col = n_;
    int art_col = first_artificial_;
    for (int i = 0; i < m_; ++i) {
        for (int k = ws_.csrRowPtr[i]; k < ws_.csrRowPtr[i + 1]; ++k)
            set(i, ws_.csrCols[k], ws_.csrVals[k]);
        ws_.rhs[i] = ws_.rowRhs[i];
        switch (static_cast<Sense>(ws_.rowSense[i])) {
          case Sense::Le:
            set(i, slack_col, 1.0);
            ws_.basis[i] = slack_col++;
            break;
          case Sense::Ge:
            set(i, slack_col++, -1.0);
            set(i, art_col, 1.0);
            ws_.basis[i] = art_col++;
            break;
          case Sense::Eq:
            set(i, art_col, 1.0);
            ws_.basis[i] = art_col++;
            break;
        }
        ws_.identityCol[i] = ws_.basis[i];
    }

    // The constraint rows by column, for moving lower-bound shifts
    // into the rhs: count, prefix-sum, fill (which advances each
    // start to the next column's), then shift the starts back.
    const int nnz = ws_.csrRowPtr[ws_.modelRows];
    ws_.cscPtr.assign(n_ + 1, 0);
    for (int k = 0; k < nnz; ++k)
        ++ws_.cscPtr[ws_.csrCols[k] + 1];
    for (int j = 0; j < n_; ++j)
        ws_.cscPtr[j + 1] += ws_.cscPtr[j];
    ws_.cscRows.resize(nnz);
    ws_.cscVals.resize(nnz);
    for (int i = 0; i < ws_.modelRows; ++i) {
        for (int k = ws_.csrRowPtr[i]; k < ws_.csrRowPtr[i + 1]; ++k) {
            const int at = ws_.cscPtr[ws_.csrCols[k]]++;
            ws_.cscRows[at] = i;
            ws_.cscVals[at] = ws_.csrVals[k];
        }
    }
    for (int j = n_; j > 0; --j)
        ws_.cscPtr[j] = ws_.cscPtr[j - 1];
    ws_.cscPtr[0] = 0;
}

void
Tableau::computeReducedRow(const std::vector<double> &cost)
{
    ws_.red.assign(cost.begin(), cost.begin() + cols_);
    double *red = ws_.red.data();
    for (int i = 0; i < m_; ++i) {
        const double cb = cost[ws_.basis[i]];
        if (cb == 0.0)
            continue;
        const double *r = row(i);
        for (int j : ws_.rowCols[i])
            red[j] -= cb * r[j];
    }
}

void
Tableau::pivot(int prow_idx, int col)
{
    // Only the pivot row's nonzero columns change anything; they are
    // left in ws_.live for the caller's reduced-cost update.
    double *prow = row(prow_idx);
    const double p = prow[col];
    ws_.live.clear();
    for (int j : ws_.rowCols[prow_idx]) {
        if (prow[j] != 0.0) {
            prow[j] /= p;
            ws_.live.push_back(j);
        }
    }
    ws_.rhs[prow_idx] /= p;
    // Only the rows on col's pattern can have r[col] != 0. Each ends
    // with r[col] == 0 exactly (prow[col] is p / p == 1), so col leaves
    // their patterns and its own becomes the pivot row alone.
    std::vector<int> &col_rows = ws_.colRows[col];
    for (int i : col_rows) {
        if (i == prow_idx)
            continue;
        double *r = row(i);
        const double f = r[col];
        // Stamp row i's pattern (fill-in is a live column off it)
        // while dropping col from it.
        std::vector<int> &cols = ws_.rowCols[i];
        const int tag = ++ws_.stampTag;
        for (std::size_t k = 0; k < cols.size();) {
            if (cols[k] == col) {
                cols[k] = cols.back();
                cols.pop_back();
            } else {
                ws_.stamp[cols[k++]] = tag;
            }
        }
        --ws_.patternCells;
        if (f == 0.0) {
            r[col] = 0.0;
            continue;
        }
        for (int j : ws_.live) {
            r[j] -= f * prow[j];
            if (ws_.stamp[j] != tag && j != col) // fill-in
                addCell(i, j);
        }
        ws_.rhs[i] -= f * ws_.rhs[prow_idx];
        // Clamp tiny negative residues from cancellation.
        if (ws_.rhs[i] < 0 && ws_.rhs[i] > -opts_.eps)
            ws_.rhs[i] = 0.0;
    }
    col_rows.assign(1, prow_idx);
    ws_.basis[prow_idx] = col;
}

bool
Tableau::pivotLoop(const std::vector<double> &cost, bool phase1,
                   bool fresh_red)
{
    const int bland_threshold = 3 * (m_ + cols_);
    int stall = 0;
    double last_obj = -kInf;

    // Reduced costs are maintained incrementally across pivots (the
    // classic objective-row trick); recomputing per candidate would be
    // O(m * n) per pricing pass.
    if (fresh_red)
        computeReducedRow(cost);
    double *red = ws_.red.data();
    const int scan_end = phase1 ? cols_ : first_artificial_;

    while (iters_ < opts_.maxIters) {
        // Pricing: Dantzig unless stalling, then Bland.
        const bool bland = stall > bland_threshold;
        int enter = -1;
        double best = opts_.eps;
        for (int j = 0; j < scan_end; ++j) {
            if (red[j] > best) {
                enter = j;
                if (bland)
                    break;
                best = red[j];
            }
        }
        if (enter < 0)
            return true; // optimal for this phase

        // Ratio test (Bland tie-break on basis index) over the rows on
        // the entering column's pattern, in ascending order as the
        // tie-breaks require.
        std::vector<int> &rows = ws_.colRows[enter];
        std::sort(rows.begin(), rows.end());
        int leave = -1;
        double best_ratio = kInf;
        for (int i : rows) {
            const double aie = row(i)[enter];
            if (aie > opts_.eps) {
                const double ratio = ws_.rhs[i] / aie;
                if (ratio < best_ratio - opts_.eps ||
                    (ratio < best_ratio + opts_.eps && leave >= 0 &&
                     ws_.basis[i] < ws_.basis[leave])) {
                    best_ratio = ratio;
                    leave = i;
                }
            }
        }
        if (leave < 0) {
            unbounded_ = true;
            return true;
        }

        pivot(leave, enter);
        ++iters_;

        // Update reduced costs against the normalized pivot row.
        const double re = red[enter];
        const double *prow = row(leave);
        for (int j : ws_.live)
            red[j] -= re * prow[j];
        red[enter] = 0.0;

        // Stall detection for the Bland fallback.
        double obj = 0.0;
        for (int i = 0; i < m_; ++i)
            obj += cost[ws_.basis[i]] * ws_.rhs[i];
        if (obj > last_obj + opts_.eps) {
            last_obj = obj;
            stall = 0;
        } else {
            ++stall;
        }
    }
    return false; // iteration limit
}

SolveStatus
Tableau::solve()
{
    // Phase 1: maximize -sum(artificials).
    if (first_artificial_ < cols_) {
        ws_.cost.assign(cols_, 0.0);
        for (int j = first_artificial_; j < cols_; ++j)
            ws_.cost[j] = -1.0;
        if (!pivotLoop(ws_.cost, true, true))
            return SolveStatus::IterLimit;
        double infeas = 0.0;
        for (int i = 0; i < m_; ++i)
            if (ws_.basis[i] >= first_artificial_)
                infeas += ws_.rhs[i];
        if (infeas > 1e-7)
            return SolveStatus::Infeasible;
        // Drive remaining zero-level artificials out of the basis.
        for (int i = 0; i < m_; ++i) {
            if (ws_.basis[i] < first_artificial_)
                continue;
            // The lowest such column, as a dense scan would find.
            int repl = -1;
            const double *r = row(i);
            for (int j : ws_.rowCols[i]) {
                if (j < first_artificial_ && (repl < 0 || j < repl) &&
                    std::fabs(r[j]) > opts_.eps)
                    repl = j;
            }
            if (repl >= 0)
                pivot(i, repl);
            // else: redundant row; the artificial stays basic at zero.
        }
    }

    // Phase 2: the real objective over structural columns.
    ws_.cost.assign(cols_, 0.0);
    const double dir = model_.maximize() ? 1.0 : -1.0;
    for (const auto &[id, c] : model_.objective().terms())
        ws_.cost[id] += dir * c;
    unbounded_ = false;
    if (!pivotLoop(ws_.cost, false, true))
        return SolveStatus::IterLimit;
    if (unbounded_)
        return SolveStatus::Unbounded;
    return SolveStatus::Optimal;
}

bool
Tableau::moveBounds()
{
    if (!ws_.warm || model_.structure() != ws_.structure)
        return false;
    for (int j = 0; j < n_; ++j) {
        const double lb = model_.lb(j);
        const double ub = model_.ub(j);
        const double dl = lb - ws_.shift[j];
        if (dl == 0.0 && ub == ws_.ub[j])
            continue;
        // A bound that gains or loses finiteness adds or drops a row.
        if (!std::isfinite(lb) ||
            std::isfinite(ub) != (ws_.ubRow[j] >= 0))
            return false;
        // Shifting x_j's origin by dl moves every row it appears in.
        if (dl != 0.0) {
            for (int k = ws_.cscPtr[j]; k < ws_.cscPtr[j + 1]; ++k)
                addToRhs(ws_.cscRows[k], -ws_.cscVals[k] * dl);
        }
        if (ws_.ubRow[j] >= 0)
            addToRhs(ws_.ubRow[j], (ub - lb) - (ws_.ub[j] - ws_.shift[j]));
        ws_.shift[j] = lb;
        ws_.ub[j] = ub;
    }
    return true;
}

void
Tableau::addToRhs(int r, double delta)
{
    if (delta == 0.0)
        return;
    const int c = ws_.identityCol[r];
    for (int i : ws_.colRows[c])
        ws_.rhs[i] += delta * row(i)[c];
}

bool
Tableau::dualLoop(int cap)
{
    // Primal infeasibility below this is rounding, not a bound
    // violation: the row is clamped instead of reported infeasible.
    constexpr double kFeasTol = 1e-7;
    double *red = ws_.red.data();
    while (true) {
        // Leaving row: the most negative rhs.
        int leave = -1;
        double worst = -opts_.eps;
        for (int i = 0; i < m_; ++i) {
            if (ws_.rhs[i] < worst) {
                worst = ws_.rhs[i];
                leave = i;
            }
        }
        if (leave < 0)
            return true;
        if (iters_ >= cap)
            return false;

        // Entering column: the smallest dual ratio -red / -a among the
        // row's negative entries, which keeps every reduced cost <= 0.
        // Near-ties go to the highest column, so slacks enter before
        // structurals and more of those stay at a bound (an integral
        // value); on the layer models that closes the search in fewer
        // nodes. Artificials stay at zero.
        const double *r = row(leave);
        int enter = -1;
        double best_ratio = kInf;
        for (int j : ws_.rowCols[leave]) {
            if (j >= first_artificial_ || r[j] >= -opts_.eps)
                continue;
            const double ratio = std::max(0.0, -red[j]) / -r[j];
            if (ratio < best_ratio - opts_.eps ||
                (ratio < best_ratio + opts_.eps && j > enter)) {
                best_ratio = ratio;
                enter = j;
            }
        }
        if (enter < 0) {
            if (worst < -kFeasTol) {
                infeasible_ = true;
                return true;
            }
            ws_.rhs[leave] = 0.0;
            continue;
        }

        pivot(leave, enter);
        ++iters_;
        const double re = red[enter];
        const double *prow = row(leave);
        for (int j : ws_.live)
            red[j] -= re * prow[j];
        red[enter] = 0.0;
    }
}

bool
Tableau::reoptimize(SolveStatus &status)
{
    // A pivot costs work in the fill-in a warm tableau keeps and a cold
    // build drops. Past a quarter of the cells a cold solve is cheaper:
    // bench_micro's 16-binary knapsacks (18 x 34) reach about a third,
    // while the layer ILPs stay near 3%.
    if (4 * ws_.patternCells > static_cast<long>(m_) * cols_)
        return false;
    if (!moveBounds())
        return false;
    if (ws_.stampTag > (1 << 30)) {
        ws_.stamp.assign(cols_, 0);
        ws_.stampTag = 0;
    }
    // Past about one pivot per row and column, a cold solve is cheaper.
    const int cap = std::min(opts_.maxIters, m_ + cols_);
    if (!dualLoop(cap))
        return false;
    for (int i = 0; i < m_; ++i) {
        if (ws_.basis[i] >= first_artificial_ &&
            std::fabs(ws_.rhs[i]) > 1e-7)
            return false;
    }
    if (infeasible_) {
        status = SolveStatus::Infeasible;
        return true;
    }
    // Clean-up: the dual ratio test clamps reduced costs within eps of
    // zero, which a primal pass may still price in.
    unbounded_ = false;
    if (!pivotLoop(ws_.cost, false, false) || unbounded_)
        return false;
    status = SolveStatus::Optimal;
    return true;
}

std::vector<double>
Tableau::extractValues() const
{
    std::vector<double> x(n_, 0.0);
    for (int i = 0; i < m_; ++i)
        if (ws_.basis[i] < n_)
            x[ws_.basis[i]] = ws_.rhs[i];
    for (int j = 0; j < n_; ++j)
        x[j] += ws_.shift[j];
    return x;
}

double
Tableau::objectiveValue(const std::vector<double> &values) const
{
    double obj = 0.0;
    for (const auto &[id, c] : model_.objective().terms())
        obj += c * values[id];
    return obj;
}

/** Package the tableau's final state as a Solution. */
Solution
finish(const Tableau &t, SolveStatus status, int iters)
{
    Solution sol;
    sol.status = status;
    sol.simplexIters = iters;
    if (status == SolveStatus::Optimal) {
        sol.values = t.extractValues();
        sol.objective = t.objectiveValue(sol.values);
    }
    return sol;
}

} // namespace

Solution
solveLp(const Model &model, const SolverOptions &opts, LpWorkspace &ws)
{
    Tableau t(model, opts, ws);
    t.build();
    const SolveStatus status = t.solve();
    ws.warm = status == SolveStatus::Optimal;
    return finish(t, status, t.iters());
}

Solution
solveLp(const Model &model, const SolverOptions &opts)
{
    LpWorkspace ws;
    return solveLp(model, opts, ws);
}

Solution
resolveLp(const Model &model, const SolverOptions &opts, LpWorkspace &ws)
{
    Tableau t(model, opts, ws);
    SolveStatus status;
    if (t.reoptimize(status)) {
        // The dual loop keeps the basis dual feasible even when it
        // finds a row it cannot repair.
        ws.warm = true;
        return finish(t, status, t.iters());
    }
    Solution cold = solveLp(model, opts, ws);
    cold.simplexIters += t.iters();
    return cold;
}

} // namespace smart::ilp
