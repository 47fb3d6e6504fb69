/**
 * @file
 * Branch-and-bound 0/1 (and general integer) programming on top of the
 * LP relaxation: best-bound depth-first search with most-fractional
 * branching and an LP-rounding incumbent heuristic.
 *
 * Only the root LP is solved cold. Every later node re-optimizes, with
 * dual simplex, the tableau the previous node left in one workspace
 * (resolveLp), so a node costs the few pivots its bound changes need
 * instead of a full two-phase solve. An integral vertex is snapped to
 * exact integers and checked against the node's model before it
 * becomes the incumbent; a warm vertex that fails is re-solved cold.
 */

#ifndef SMART_ILP_SOLVER_HH
#define SMART_ILP_SOLVER_HH

#include <functional>

#include "ilp/simplex.hh"

namespace smart::ilp
{

/**
 * Observer of each B&B node: the node's model (the root with the
 * node's bounds) and its LP relaxation result.
 */
using NodeHook = std::function<void(const Model &, const Solution &)>;

/**
 * Solve @p model to integer optimality. A search that stops at the
 * node limit reports NodeLimit, with the best incumbent found or, if
 * there is none, no values. Continuous models fall through to the
 * plain LP. @p onNode, if set, sees every node LP.
 */
Solution solve(const Model &model, const SolverOptions &opts = {},
               const NodeHook &onNode = {});

} // namespace smart::ilp

#endif // SMART_ILP_SOLVER_HH
