/**
 * @file
 * Weight-stationary systolic dataflow model (SCALE-SIM substitute).
 *
 * For an R x C PE array and a layer with im2col window Wd and M filters:
 * row folds Fr = ceil(Wd / R), column folds Fc = ceil(M / C). Each fold
 * loads weights (R cycles), then streams B*E ofmap pixels through the
 * array plus the R + C - 1 pipeline fill/drain. Depthwise layers map one
 * channel per fold (Wd = Rk*Sk, one active column), reproducing their
 * poor utilization on systolic hardware.
 */

#ifndef SMART_SYSTOLIC_DATAFLOW_HH
#define SMART_SYSTOLIC_DATAFLOW_HH

#include <cstdint>

#include "common/units.hh"
#include "systolic/layer.hh"

namespace smart::systolic
{

/** PE array geometry. */
struct ArrayDims
{
    int rows = 64;
    int cols = 256;

    /** Total processing elements. */
    std::uint64_t pes() const
    {
        return static_cast<std::uint64_t>(rows) * cols;
    }

    /** Both dimensions positive. */
    bool valid() const { return rows > 0 && cols > 0; }
};

/** Mapping of one layer onto the PE array. */
struct LayerMapping
{
    ArrayDims pe;
    std::uint64_t rowFolds = 1;   //!< ceil(window / rows).
    std::uint64_t colFolds = 1;   //!< ceil(filters / cols) or channels.
    std::uint64_t ofmapPixels = 0; //!< E per image.
    std::uint64_t activeRows = 0; //!< Rows used in the last row fold.
    std::uint64_t activeCols = 0; //!< Columns used per fold.
    std::uint64_t windowSize = 0; //!< im2col window length.
    std::uint64_t macsPerImage = 0;

    /** Folds in total (rowFolds * colFolds). */
    std::uint64_t folds() const { return rowFolds * colFolds; }

    /** Cycles to load weights for one fold. */
    Cycles weightLoadCycles() const;
    /** Cycles to stream one fold for a batch of @p batch images. */
    Cycles streamCycles(int batch) const;
    /** Ideal (stall-free) cycles for a batch of @p batch images. */
    Cycles idealCycles(int batch) const;
    /** PE utilization at the ideal cycle count. */
    double idealUtilization(int batch) const;
};

/** Map a layer onto a PE array (weight-stationary). */
LayerMapping mapLayer(const ConvLayer &layer, const ArrayDims &pe);

} // namespace smart::systolic

#endif // SMART_SYSTOLIC_DATAFLOW_HH
