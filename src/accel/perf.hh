/**
 * @file
 * End-to-end performance model: per-layer compute cycles plus SPM
 * service times under each scheme's memory system, composed into
 * inference latency and throughput (paper Sec. 6).
 *
 * Service semantics: per-layer input/weight/output services overlap
 * with compute and each other (double buffering), so the layer time is
 * the maximum of the streams plus the serial inter-layer costs
 * (re-layout for SHIFT-only SPMs, staging latency without prefetch,
 * DRAM spills when the working set exceeds on-chip capacity).
 */

#ifndef SMART_ACCEL_PERF_HH
#define SMART_ACCEL_PERF_HH

#include <vector>

#include "accel/config.hh"
#include "cnn/models.hh"
#include "compiler/schedule.hh"
#include "systolic/trace.hh"

namespace smart::accel
{

/** Access/energy counters a layer run accumulates. */
struct LayerCounters
{
    double shiftSteps = 0;      //!< SHIFT lane shift steps.
    double shiftLaneBytes = 0;  //!< Lane size behind those steps.
    double randomReadBytes = 0; //!< RANDOM array read traffic.
    double randomWriteBytes = 0;
    double dramBytes = 0;       //!< Off-chip traffic.
    double macs = 0;            //!< Multiply-accumulates executed.
};

/** Per-layer performance result. */
struct LayerResult
{
    std::string name;
    Cycles computeCycles = 0;   //!< Ideal (stall-free) cycles.
    Cycles inputService = 0;    //!< Input SPM service cycles.
    Cycles weightService = 0;
    Cycles outputService = 0;   //!< Output + PSum service cycles.
    Cycles serialOverhead = 0;  //!< Re-layout / staging latency / spill.
    /**
     * Weight traffic from DRAM (cycles at the 300 GB/s interface).
     * Weights for later layers stream while earlier layers compute, so
     * this is aggregated at the inference level and maxed against the
     * on-chip time rather than added per layer.
     */
    Cycles weightDramCycles = 0;
    Cycles totalCycles = 0;
    LayerCounters counters;
    /**
     * Who produced the layer's SPM schedule and how far from optimal
     * it may be (see compiler::Schedule::gapBound). Layers that never
     * invoke the compiler (non-SMART schemes, useIlpCompiler=false)
     * have no scheduling choice and stay Optimal/0.
     */
    compiler::Quality schedQuality = compiler::Quality::Optimal;
    double schedGapBound = 0.0;
};

/** Whole-inference result. */
struct InferenceResult
{
    std::string model;
    std::string scheme;
    int batch = 1;
    Cycles totalCycles = 0;
    Cycles weightDramCycles = 0; //!< Aggregated weight streaming time.
    double seconds = 0.0;
    double totalMacs = 0.0;
    std::vector<LayerResult> layers;
    /**
     * Aggregate schedule quality: Optimal only when every scheduled
     * layer was ILP-optimal; Greedy as soon as any layer degraded.
     * The gap bound is the max over layers (-1 when any layer's gap
     * is unknown).
     */
    compiler::Quality schedQuality = compiler::Quality::Optimal;
    double schedGapBound = 0.0;

    /** Achieved throughput (TMAC/s). */
    double throughputTmacs() const;
    /** Fraction of peak throughput achieved. */
    double utilization(const AcceleratorConfig &cfg) const;

    /** Summed counters over all layers. */
    LayerCounters totals() const;
};

/**
 * Which compiler pass schedules SPM placements: the ILP (optimal,
 * slow) or the greedy heuristic (anytime, fast). The serving tier's
 * graceful-degradation path selects Greedy under deadline pressure.
 */
enum class SchedMode
{
    Ilp,
    Greedy
};

/**
 * Run one model at the given batch size on a configuration; degraded
 * serving passes SchedMode::Greedy.
 */
InferenceResult runInference(const AcceleratorConfig &cfg,
                             const cnn::CnnModel &model, int batch,
                             SchedMode mode = SchedMode::Ilp);

/**
 * Run a single layer (exposed for tests and benches). Panics with
 * the reason when @p cfg fails AcceleratorConfig::invalidReason().
 */
LayerResult runLayer(const AcceleratorConfig &cfg,
                     const systolic::ConvLayer &layer, int batch,
                     SchedMode mode = SchedMode::Ilp);

/**
 * Scheduler parameters for the layer ILPs of a compiler-scheduled
 * scheme (SMART): SPM capacities, access costs and the RANDOM->SHIFT
 * staging bandwidth of @p cfg. runLayer schedules with these.
 * Precondition: @p cfg has a RANDOM array with at least one bank
 * (TPU, SuperNPU and SRAM have none); panics otherwise.
 */
compiler::SchedParams schedParams(const AcceleratorConfig &cfg);

/**
 * Clear the process-global schedule memo, so the next evaluation
 * solves every layer cold (tests, benches and perfbench call this).
 */
void clearIlpCache();

} // namespace smart::accel

#endif // SMART_ACCEL_PERF_HH
