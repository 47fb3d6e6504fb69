#include "compiler/dag.hh"

#include "common/logging.hh"

namespace smart::compiler
{

std::vector<const MemoryObject *>
LayerDag::objectsOf(int n) const
{
    std::vector<const MemoryObject *> out;
    for (const auto &o : objects)
        if (o.iteration == n)
            out.push_back(&o);
    return out;
}

std::uint64_t
LayerDag::classBytes(ObjClass c) const
{
    std::uint64_t total = 0;
    for (const auto &o : objects)
        if (o.cls == c)
            total += o.bytes;
    return total;
}

LayerDag
buildLayerDag(const systolic::ConvLayer &layer,
              const systolic::LayerDemand &demand,
              const DagBuildParams &params)
{
    smart_assert(params.maxIterations >= 1, "need at least one iteration");

    LayerDag dag;
    const auto &m = demand.mapping;
    const std::uint64_t folds = m.folds();
    dag.iterations = static_cast<int>(
        folds < static_cast<std::uint64_t>(params.maxIterations)
            ? folds
            : params.maxIterations);
    dag.foldsPerIteration =
        (folds + dag.iterations - 1) / dag.iterations;
    dag.cyclesPerIteration =
        m.idealCycles(1) / static_cast<Cycles>(dag.iterations);

    // Objects: per iteration chunk, size = per-fold tile x folds in the
    // chunk; access counts split evenly across chunks.
    const double chunk_frac = 1.0 / dag.iterations;
    for (int n = 0; n < dag.iterations; ++n) {
        MemoryObject alpha;
        alpha.cls = ObjClass::Weight;
        alpha.iteration = n;
        alpha.bytes = static_cast<std::uint64_t>(
            demand.weightUniqueBytes * chunk_frac);
        alpha.accesses = static_cast<std::uint64_t>(
            demand.weightPortReads * chunk_frac);
        dag.objects.push_back(alpha);

        MemoryObject beta;
        beta.cls = ObjClass::Input;
        beta.iteration = n;
        // A chunk of row folds touches its share of ifmap channels; a
        // chunk of column folds re-reads the whole ifmap. Upper-bound by
        // the full ifmap.
        const std::uint64_t per_chunk_input = static_cast<std::uint64_t>(
            demand.inputUniqueBytes /
            static_cast<double>(
                m.rowFolds < static_cast<std::uint64_t>(dag.iterations)
                    ? m.rowFolds
                    : dag.iterations));
        beta.bytes = per_chunk_input;
        beta.accesses = static_cast<std::uint64_t>(
            demand.inputPortReads * chunk_frac);
        dag.objects.push_back(beta);

        MemoryObject gamma;
        gamma.cls = ObjClass::Output;
        gamma.iteration = n;
        gamma.bytes = static_cast<std::uint64_t>(
            demand.outputUniqueBytes * chunk_frac);
        gamma.accesses = static_cast<std::uint64_t>(
            demand.outputWrites * chunk_frac);
        gamma.written = true;
        dag.objects.push_back(gamma);

        if (demand.psumReads > 0) {
            MemoryObject delta;
            delta.cls = ObjClass::Psum;
            delta.iteration = n;
            // 4-byte accumulators for the live ofmap slice.
            delta.bytes = static_cast<std::uint64_t>(
                4.0 * demand.outputUniqueBytes * chunk_frac);
            delta.accesses = static_cast<std::uint64_t>(
                (demand.psumReads + demand.psumWrites) * chunk_frac);
            delta.written = true;
            dag.objects.push_back(delta);
        }
    }

    (void)layer;
    return dag;
}

} // namespace smart::compiler
