/**
 * @file
 * Tests for the demand analyzer and the mechanistic SHIFT replay,
 * including the cross-validation property: the closed-form access
 * counts must equal the explicit per-element replay counts.
 */

#include <gtest/gtest.h>

#include "cnn/models.hh"
#include "systolic/trace.hh"

namespace
{

using namespace smart;
using namespace smart::systolic;

TEST(Demand, NoPaddingMeansExactCounts)
{
    // 1x1 conv: no padding, every window element is valid.
    ConvLayer l = ConvLayer::conv("c", 14, 14, 64, 128, 1);
    LayerDemand d = analyzeDemand(l, {64, 256});
    EXPECT_EQ(d.inputPortReads, 196ull * 64);
    EXPECT_EQ(d.weightUniqueBytes, 64ull * 128);
    EXPECT_EQ(d.outputWrites, 196ull * 128);
}

TEST(Demand, PaddingReducesReads)
{
    ConvLayer l = ConvLayer::conv("c", 14, 14, 32, 64, 3); // pad 1
    LayerDemand d = analyzeDemand(l, {64, 256});
    EXPECT_LT(d.inputPortReads, l.ofmapPixels() * l.windowSize());
    EXPECT_GT(d.inputPortReads,
              l.ofmapPixels() * l.windowSize() * 8 / 10);
}

TEST(Demand, ColumnFoldsRestreamInputs)
{
    ConvLayer l = ConvLayer::conv("c", 14, 14, 64, 512, 1); // 2 col folds
    LayerDemand d = analyzeDemand(l, {64, 256});
    EXPECT_EQ(d.mapping.colFolds, 2u);
    EXPECT_EQ(d.inputPortReads, 2ull * 196 * 64);
}

TEST(Demand, PsumTrafficOnlyWithRowFolds)
{
    ConvLayer one_fold = ConvLayer::conv("a", 14, 14, 64, 128, 1);
    EXPECT_EQ(analyzeDemand(one_fold, {64, 256}).psumReads, 0u);

    ConvLayer multi = ConvLayer::conv("b", 14, 14, 256, 128, 3);
    LayerDemand d = analyzeDemand(multi, {64, 256});
    EXPECT_GT(d.mapping.rowFolds, 1u);
    EXPECT_EQ(d.psumReads,
              d.outputUniqueBytes * (d.mapping.rowFolds - 1));
}

/**
 * Brute-force oracle for LayerDemand::inputPortReads: walk every kernel
 * offset and ofmap pixel and count the in-bounds input reads, once per
 * channel per column fold (depthwise layers stream each channel once).
 */
std::uint64_t
bruteInputPortReads(const ConvLayer &l, const ArrayDims &pe)
{
    std::uint64_t valid_per_channel = 0;
    for (int kr = 0; kr < l.kernelH; ++kr) {
        for (int ks = 0; ks < l.kernelW; ++ks) {
            for (int oh = 0; oh < l.ofmapH(); ++oh) {
                const int ih = oh * l.stride - l.pad + kr;
                if (ih < 0 || ih >= l.ifmapH)
                    continue;
                for (int ow = 0; ow < l.ofmapW(); ++ow) {
                    const int iw = ow * l.stride - l.pad + ks;
                    if (iw >= 0 && iw < l.ifmapW)
                        ++valid_per_channel;
                }
            }
        }
    }
    const std::uint64_t folds =
        l.depthwise ? 1 : mapLayer(l, pe).colFolds;
    return valid_per_channel * l.inChannels * folds;
}

TEST(Demand, ClosedFormMatchesBruteForceOverShapeSweep)
{
    // Rectangular ifmaps, square kernels 1-11, strides 1-4 and every
    // padding up to the kernel size; each shape as a dense layer, a
    // dense layer with two column folds, and a depthwise layer. Shapes
    // whose kernel overhangs the padded ifmap are malformed layers that
    // analyzeDemand rejects, so the sweep skips them.
    const ArrayDims pe{64, 256};
    int shapes = 0;
    for (int h = 1; h <= 20; ++h) {
        for (int w = 1; w <= 9; ++w) {
            for (int k = 1; k <= 11; ++k) {
                for (int stride = 1; stride <= 4; ++stride) {
                    for (int pad = 0; pad <= k; ++pad) {
                        ConvLayer dense;
                        dense.ifmapH = h;
                        dense.ifmapW = w;
                        dense.inChannels = 3;
                        dense.filters = 5;
                        dense.kernelH = k;
                        dense.kernelW = k;
                        dense.stride = stride;
                        dense.pad = pad;
                        if (dense.invalidReason() != nullptr)
                            continue;
                        ++shapes;
                        ConvLayer folded = dense;
                        folded.filters = 300;
                        ConvLayer dw = dense;
                        dw.depthwise = true;
                        dw.inChannels = 4;
                        for (const ConvLayer &l : {dense, folded, dw}) {
                            EXPECT_EQ(analyzeDemand(l, pe).inputPortReads,
                                      bruteInputPortReads(l, pe))
                                << h << 'x' << w << " k" << k << " s"
                                << stride << " p" << pad << " dw"
                                << l.depthwise << " m" << l.filters;
                        }
                    }
                }
            }
        }
    }
    EXPECT_EQ(shapes, 43840);
    EXPECT_EQ(mapLayer(ConvLayer::conv("c", 8, 8, 3, 300, 3), pe).colFolds,
              2u);
}

TEST(Demand, ClosedFormMatchesBruteForceOnPaperModels)
{
    const ArrayDims pe{64, 256};
    for (const auto &name : cnn::modelNames())
        for (const auto &l : cnn::makeModel(name).layers)
            EXPECT_EQ(analyzeDemand(l, pe).inputPortReads,
                      bruteInputPortReads(l, pe))
                << name << ' ' << l.name;
}

TEST(Replay, CountsMatchClosedForm)
{
    // The replay walks the exact im2col sequence; its access count must
    // equal the analyzer's closed form.
    for (int k : {1, 3, 5}) {
        ConvLayer l = ConvLayer::conv("c", 13, 13, 48, 96, k);
        LayerDemand d = analyzeDemand(l, {64, 256});
        ShiftReplayParams p;
        p.banks = 64;
        p.laneBytes = 16 * 1024;
        auto r = replayInputShift(l, {64, 256}, p);
        EXPECT_EQ(r.portAccesses, d.inputPortReads) << "k=" << k;
    }
}

TEST(Replay, OneByOneConvIsSequential)
{
    // NHWC layout with channel-fastest windows: a 1x1 conv streams
    // perfectly (every non-DAU access is a single-step advance).
    ConvLayer l = ConvLayer::conv("c", 28, 28, 64, 256, 1);
    ShiftReplayParams p;
    p.banks = 64;
    p.laneBytes = 64 * 1024;
    p.dauWindowBytes = 0;
    auto r = replayInputShift(l, {64, 256}, p);
    EXPECT_EQ(r.jumpSteps, 0u);
    EXPECT_EQ(r.jumpCount, 0u);
}

TEST(Replay, KernelJumpsAppearForLargeKernels)
{
    ConvLayer l = ConvLayer::conv("c", 27, 27, 96, 256, 5, 1, 2);
    ShiftReplayParams p;
    p.banks = 64;
    p.laneBytes = 64 * 1024;
    p.dauWindowBytes = 0;
    auto r = replayInputShift(l, {64, 256}, p);
    EXPECT_GT(r.jumpCount, 0u);
    EXPECT_GT(r.jumpSteps, r.jumpCount); // jumps cost > 1 step
}

TEST(Replay, DauWindowAbsorbsShortJumps)
{
    ConvLayer l = ConvLayer::conv("c", 27, 27, 96, 256, 5, 1, 2);
    ShiftReplayParams no_dau;
    no_dau.banks = 64;
    no_dau.laneBytes = 64 * 1024;
    no_dau.dauWindowBytes = 0;
    ShiftReplayParams dau = no_dau;
    dau.dauWindowBytes = 4096;
    auto r0 = replayInputShift(l, {64, 256}, no_dau);
    auto r1 = replayInputShift(l, {64, 256}, dau);
    EXPECT_LT(r1.serviceCycles, r0.serviceCycles);
    EXPECT_GT(r1.dauHits, 0u);
}

TEST(Replay, RingTapShortensWraps)
{
    // A lane far larger than the data must behave like a ring sized to
    // the data (tapped feedback), not the physical lane.
    ConvLayer l = ConvLayer::conv("c", 13, 13, 64, 64, 3);
    ShiftReplayParams tapped;
    tapped.banks = 64;
    tapped.laneBytes = 384 * 1024; // huge physical lane
    auto r = replayInputShift(l, {64, 256}, tapped);
    // The worst possible jump is bounded by the occupied ring size.
    EXPECT_LE(r.jumpSteps / std::max<std::uint64_t>(1, r.jumpCount),
              l.ifmapBytes() / 64 + 1);
}

TEST(Replay, ServiceIsMeanPerBank)
{
    ConvLayer l = ConvLayer::conv("c", 13, 13, 128, 128, 3);
    ShiftReplayParams p;
    p.banks = 64;
    p.laneBytes = 64 * 1024;
    auto r = replayInputShift(l, {64, 256}, p);
    EXPECT_EQ(r.serviceCycles, (r.totalSteps() + 63) / 64);
    EXPECT_GE(r.maxBankSteps + 1, r.serviceCycles);
}

TEST(Trace, InputRowsOnePerPeRow)
{
    ConvLayer l = ConvLayer::conv("c", 8, 8, 4, 16, 3);
    auto rows = generateInputTrace(l, {64, 256}, 10);
    ASSERT_EQ(rows.size(), 10u);
    for (const auto &tr : rows)
        EXPECT_EQ(tr.addrs.size(), 64u);
    // Window smaller than the array: trailing rows are padding (-1).
    EXPECT_EQ(rows[0].addrs[40], -1);
}

TEST(Trace, WeightTraceFilterMajor)
{
    ConvLayer l = ConvLayer::conv("c", 8, 8, 8, 32, 3);
    auto rows = generateWeightTrace(l, {64, 256}, 4);
    ASSERT_FALSE(rows.empty());
    // Column f reads filter f's window: addresses differ by the window
    // size across adjacent columns (Fig. 6's strided pattern).
    const auto &r0 = rows[0];
    ASSERT_GE(r0.addrs.size(), 2u);
    EXPECT_EQ(r0.addrs[1] - r0.addrs[0],
              static_cast<std::int64_t>(l.windowSize()));
}

/** Property: replay total steps never below access count - DAU hits. */
class ReplayPropertySweep : public ::testing::TestWithParam<int>
{
};

TEST_P(ReplayPropertySweep, StepsBoundedBelow)
{
    ConvLayer l = ConvLayer::conv("c", 14, 14, 32, 64, GetParam());
    ShiftReplayParams p;
    p.banks = 32;
    p.laneBytes = 32 * 1024;
    auto r = replayInputShift(l, {32, 64}, p);
    EXPECT_GE(r.portAccesses, r.dauHits);
    EXPECT_GE(r.totalSteps() + r.dauHits + r.portAccesses / 100 + 1,
              r.portAccesses - r.dauHits);
}

INSTANTIATE_TEST_SUITE_P(Kernels, ReplayPropertySweep,
                         ::testing::Values(1, 3, 5, 7));

} // namespace
