/**
 * @file
 * Concurrent evaluation of many (configuration, model, batch) points:
 * the workload shape behind every figure-reproduction bench (Figs.
 * 18-21 iterate models x schemes) and behind design-space studies.
 * Points are distributed across the global thread pool; results come
 * back in input order and are bit-identical to a serial loop over
 * runInference.
 */

#ifndef SMART_ACCEL_BATCH_HH
#define SMART_ACCEL_BATCH_HH

#include <cstddef>
#include <functional>
#include <vector>

#include "accel/perf.hh"

namespace smart::accel
{

/** One evaluation point of a batch run. */
struct BatchItem
{
    AcceleratorConfig cfg;
    cnn::CnnModel model;
    int batch = 1;
    SchedMode mode = SchedMode::Ilp; //!< Greedy = degraded serving.
    /**
     * TraceRecorder id (0 = untraced): runBatch evaluates the item
     * inside a TraceScope carrying this id, so schedule/execute spans
     * recorded by accel/compiler layers attach to the originating
     * request without threading the id through every signature.
     */
    std::uint64_t traceId = 0;
};

/**
 * Per-item completion hook: called once per item, as soon as that
 * item's evaluation finishes and before the whole batch returns.
 * Invocations for distinct items may run concurrently on different
 * pool workers, so the hook must be thread-safe; each index is passed
 * exactly once. The serving layer uses this to fulfill request
 * futures without waiting for the slowest item of a wave.
 */
using BatchItemHook =
    std::function<void(std::size_t, const InferenceResult &)>;

/**
 * Evaluate every item concurrently on the global thread pool (serial
 * when SMART_THREADS=1). results[i] corresponds to items[i].
 */
std::vector<InferenceResult> runBatch(const std::vector<BatchItem> &items,
                                      const BatchItemHook &onItem = {});

} // namespace smart::accel

#endif // SMART_ACCEL_BATCH_HH
