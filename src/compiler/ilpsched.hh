/**
 * @file
 * The ILP scheduling pass (Sec. 4.3, Eq. 5-6): binary placement and
 * prefetch variables per memory object, latency-savings objective,
 * consistency / capacity / bandwidth constraints, solved with the
 * in-tree branch-and-bound solver. Falls back to the greedy allocator
 * if the ILP is infeasible or hits its node limit without an incumbent.
 */

#ifndef SMART_COMPILER_ILPSCHED_HH
#define SMART_COMPILER_ILPSCHED_HH

#include "compiler/schedule.hh"
#include "ilp/model.hh"
#include "ilp/simplex.hh"

namespace smart::compiler
{

/**
 * The layer's Eq. 5-6 model as scheduleIlp solves it: per memory
 * object, three binaries h, r and p plus a continuous hp in [0, 1]
 * that the AND rows force to h * p, at variable ids 4i .. 4i+3.
 */
ilp::Model buildIlpModel(const LayerDag &dag, const SchedParams &params);

/** Solver options scheduleIlp solves that model with. */
ilp::SolverOptions ilpSolverOptions();

/** Schedule one layer DAG with the ILP formulation. */
Schedule scheduleIlp(const LayerDag &dag, const SchedParams &params);

} // namespace smart::compiler

#endif // SMART_COMPILER_ILPSCHED_HH
