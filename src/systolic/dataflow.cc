#include "systolic/dataflow.hh"

#include "common/logging.hh"

namespace smart::systolic
{

Cycles
LayerMapping::weightLoadCycles() const
{
    // Weights enter row-serially: one row per cycle per column chain.
    return static_cast<Cycles>(pe.rows);
}

Cycles
LayerMapping::streamCycles(int batch) const
{
    smart_assert(batch >= 1, "batch must be >= 1");
    // B*E pixels stream through; fill + drain costs rows + cols - 1.
    return static_cast<Cycles>(batch) * ofmapPixels + pe.rows + pe.cols -
           1;
}

Cycles
LayerMapping::idealCycles(int batch) const
{
    return folds() * (weightLoadCycles() + streamCycles(batch));
}

double
LayerMapping::idealUtilization(int batch) const
{
    const double total_macs =
        static_cast<double>(macsPerImage) * batch;
    const double pe_cycles =
        static_cast<double>(idealCycles(batch)) * pe.pes();
    return total_macs / pe_cycles;
}

LayerMapping
mapLayer(const ConvLayer &layer, const ArrayDims &pe)
{
    layer.check();
    smart_assert(pe.valid(), "bad PE array dims");

    LayerMapping m;
    m.pe = pe;
    m.ofmapPixels = layer.ofmapPixels();
    m.windowSize = layer.windowSize();
    m.macsPerImage = layer.macs();

    const std::uint64_t rows = pe.rows;
    const std::uint64_t cols = pe.cols;

    m.rowFolds = (m.windowSize + rows - 1) / rows;
    m.activeRows = m.windowSize < rows ? m.windowSize : rows;

    if (layer.depthwise) {
        // One channel per fold; a single column accumulates it.
        m.colFolds = layer.inChannels;
        m.activeCols = 1;
    } else {
        m.colFolds =
            (static_cast<std::uint64_t>(layer.filters) + cols - 1) / cols;
        m.activeCols = static_cast<std::uint64_t>(layer.filters) < cols
                           ? layer.filters
                           : cols;
    }
    return m;
}

} // namespace smart::systolic
