/**
 * @file
 * Bit-exact figure-anchor regression for the end-to-end model.
 *
 * Every value below was captured from the model after the PR 1
 * ilp_cache key fix (the ~1% schedule shift the ROADMAP flagged) and
 * re-verified unchanged across the typed-units refactor, which is
 * required to be a pure re-typing: the exact same double operations
 * in the exact same order. The assertions use hexfloat literals and
 * exact equality on purpose — any change here means a figure in the
 * paper reproduction moved, which must be a deliberate, documented
 * model change, never refactoring fallout.
 *
 * The SMART AlexNet values were re-pinned when B&B node LPs became
 * warm-started (199,807 -> 200,100 cycles). AlexNet conv2's ILP stops
 * at the node cap either way; with the cap at 250 nodes its incumbent
 * has a 6e-6 lower Eq. 5 objective and prefetches 87.6% of its staged
 * bytes instead of 88.5%. runLayer prices that hidden fraction, not
 * the objective, so the layer takes 46,491 cycles instead of 46,198.
 *
 * Anchored surfaces: SMART-scheme inference perf (cycles, latency,
 * throughput), the energy breakdown behind Figs. 20/21, and one
 * cryomem DSE pipeline-frequency sweep (Fig. 12 machinery).
 */

#include <gtest/gtest.h>

#include "accel/energy.hh"
#include "accel/perf.hh"
#include "cnn/models.hh"
#include "cryomem/dse.hh"

namespace
{

using namespace smart;

TEST(ModelAnchors, SmartAlexNetInferenceIsBitExact)
{
    const auto cfg = accel::makeSmart();
    const auto model = cnn::convLayersOnly(cnn::makeAlexNet());
    const auto r = accel::runInference(cfg, model, 1);

    EXPECT_EQ(r.totalCycles, 200100u);
    EXPECT_EQ(r.seconds, 0x1.fe96b73a212efp-19);
    EXPECT_EQ(r.throughputTmacs(), 0x1.1b0365dfefe11p+8);
}

TEST(ModelAnchors, SmartAlexNetEnergyBreakdownIsBitExact)
{
    const auto cfg = accel::makeSmart();
    const auto model = cnn::convLayersOnly(cnn::makeAlexNet());
    const auto r = accel::runInference(cfg, model, 1);
    const auto e = accel::computeEnergy(cfg, r);

    EXPECT_EQ(e.matrixJ.value(), 0x1.ce692d0f92892p-24);
    EXPECT_EQ(e.spmDynamicJ.value(), 0x1.859a9fea690b1p-23);
    EXPECT_EQ(e.spmStaticJ.value(), 0x1.7adaf84ee8c1p-25);
    EXPECT_EQ(e.dramJ.value(), 0x0p+0);
}

TEST(ModelAnchors, CryomemDseSweepIsBitExact)
{
    cryo::CmosSfqArrayConfig cfg;
    const auto pts = cryo::sweepPipelineFrequency(cfg, {1.0, 4.0, 9.6});
    ASSERT_EQ(pts.size(), 3u);

    for (const auto &p : pts) {
        EXPECT_TRUE(p.feasible) << p.targetFreqGhz.value();
    }

    EXPECT_EQ(pts[0].achievedFreqGhz.value(), 0x1.bb4940cd54885p+1);
    EXPECT_EQ(pts[0].leakageMw, 0x1.81815a07b352ap+0);
    EXPECT_EQ(pts[0].energyPerAccessNj, 0x1.31fac4f6e7e98p-3);
    EXPECT_EQ(pts[0].areaMm2, 0x1.d93d897523945p+4);

    EXPECT_EQ(pts[1].achievedFreqGhz.value(), 0x1.32b72aa262986p+2);
    EXPECT_EQ(pts[1].leakageMw, 0x1.0f6555c52e72ep+1);
    EXPECT_EQ(pts[1].energyPerAccessNj, 0x1.b31b3ac238ccbp-4);
    EXPECT_EQ(pts[1].areaMm2, 0x1.db6af340ff6fdp+4);

    EXPECT_EQ(pts[2].achievedFreqGhz.value(), 0x1.369e8a434ae58p+3);
    EXPECT_EQ(pts[2].leakageMw, 0x1.5719a415f45e1p+3);
    EXPECT_EQ(pts[2].energyPerAccessNj, 0x1.3e32d6264b6aap-5);
    EXPECT_EQ(pts[2].areaMm2, 0x1.e90170d83d8dp+4);
}

} // namespace
