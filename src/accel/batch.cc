#include "accel/batch.hh"

#include "common/taskgraph.hh"
#include "common/tracespan.hh"

namespace smart::accel
{

std::vector<InferenceResult>
runBatch(const std::vector<BatchItem> &items, const BatchItemHook &onItem)
{
    std::vector<InferenceResult> results(items.size());
    pFor(items.size(), [&](std::size_t i) {
        // Ambient trace id for the worker evaluating this item:
        // schedule/execute spans in accel/compiler attach to the
        // originating request's trace (no-op when the id is 0).
        TraceRecorder::TraceScope trace(items[i].traceId);
        results[i] = runInference(items[i].cfg, items[i].model,
                                  items[i].batch, items[i].mode);
        if (onItem)
            onItem(i, results[i]);
    });
    return results;
}

} // namespace smart::accel
