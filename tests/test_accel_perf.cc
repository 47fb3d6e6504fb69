/**
 * @file
 * Tests for the accelerator configurations and performance model:
 * Table 4 values, scheme ordering, batch effects, and sensitivity
 * directions that mirror Figs. 18/19/22-25.
 */

#include <gtest/gtest.h>

#include "accel/perf.hh"
#include "cnn/models.hh"

namespace
{

using namespace smart;
using namespace smart::accel;

TEST(Config, Table4Values)
{
    AcceleratorConfig tpu = makeTpu();
    EXPECT_EQ(tpu.pe.rows, 256);
    EXPECT_EQ(tpu.pe.cols, 256);
    EXPECT_DOUBLE_EQ(tpu.clockGhz.value(), 0.7);
    EXPECT_NEAR(tpu.peakTmacs(), 45.9, 0.5);

    AcceleratorConfig npu = makeSuperNpu();
    EXPECT_EQ(npu.pe.rows, 64);
    EXPECT_DOUBLE_EQ(npu.clockGhz.value(), 52.6);
    EXPECT_NEAR(npu.peakTmacs(), 862.0, 1.0);
    EXPECT_EQ(npu.inputSpm.banks, 64);
    EXPECT_EQ(npu.inputSpm.capacityBytes, 24 * units::mib);

    AcceleratorConfig smart_cfg = makeSmart();
    EXPECT_EQ(smart_cfg.inputSpm.capacityBytes, 32 * units::kib);
    EXPECT_EQ(smart_cfg.randomArray.capacityBytes, 28 * units::mib);
    EXPECT_EQ(smart_cfg.prefetchIterations, 3);
    EXPECT_TRUE(smart_cfg.useIlpCompiler);
}

TEST(Config, SchemeFactoryCoversAll)
{
    for (Scheme s : {Scheme::Tpu, Scheme::SuperNpu, Scheme::Sram,
                     Scheme::Heter, Scheme::Pipe, Scheme::Smart}) {
        AcceleratorConfig c = makeScheme(s);
        EXPECT_EQ(c.scheme, s);
        EXPECT_GT(c.peakTmacs(), 0.0);
    }
}

TEST(Perf, LayerResultInvariants)
{
    auto cfg = makeSmart();
    auto layer = systolic::ConvLayer::conv("c", 27, 27, 96, 256, 5, 1, 2);
    LayerResult r = runLayer(cfg, layer, 1);
    EXPECT_GT(r.computeCycles, 0u);
    EXPECT_GE(r.totalCycles, r.computeCycles);
    EXPECT_GE(r.totalCycles, r.inputService);
    EXPECT_GT(r.counters.macs, 0.0);
}

TEST(Perf, Fig18SchemeOrderingSingleImage)
{
    // Fig. 18's qualitative ordering on AlexNet: SRAM < Heter <
    // SuperNPU(SHIFT) < Pipe <= SMART, all (except SRAM) above TPU.
    auto model = cnn::convLayersOnly(cnn::makeAlexNet());
    auto thr = [&](Scheme s) {
        return runInference(makeScheme(s), model, 1).throughputTmacs();
    };
    const double tpu = thr(Scheme::Tpu);
    const double sram = thr(Scheme::Sram);
    const double heter = thr(Scheme::Heter);
    const double shift = thr(Scheme::SuperNpu);
    const double pipe = thr(Scheme::Pipe);
    const double smart_thr = thr(Scheme::Smart);

    EXPECT_LT(sram, heter);
    EXPECT_LT(heter, shift);
    EXPECT_LT(shift, pipe);
    EXPECT_LE(pipe, smart_thr * 1.001);
    EXPECT_GT(shift, tpu);
    EXPECT_GT(smart_thr, 1.4 * shift); // paper: 3.9x (see EXPERIMENTS)
}

TEST(Perf, BatchImprovesThroughput)
{
    auto model = cnn::convLayersOnly(cnn::makeAlexNet());
    for (Scheme s : {Scheme::SuperNpu, Scheme::Smart}) {
        auto cfg = makeScheme(s);
        const double t1 =
            runInference(cfg, model, 1).throughputTmacs();
        const double tb =
            runInference(cfg, model, 20).throughputTmacs();
        EXPECT_GT(tb, t1) << schemeName(s);
    }
}

TEST(Perf, UtilizationBelowPeak)
{
    for (Scheme s : {Scheme::Tpu, Scheme::SuperNpu, Scheme::Smart}) {
        auto cfg = makeScheme(s);
        auto model = cnn::convLayersOnly(cnn::makeResNet50());
        auto r = runInference(cfg, model, 4);
        EXPECT_GT(r.utilization(cfg), 0.0);
        EXPECT_LT(r.utilization(cfg), 1.0);
    }
}

TEST(Perf, Fig25WriteLatencyHurts)
{
    // Fig. 25: 2-3 ns RANDOM write latency collapses throughput.
    auto model = cnn::convLayersOnly(cnn::makeAlexNet());
    auto fast_cfg = makeSmart();
    auto slow_cfg = makeSmart();
    slow_cfg.randomWriteLatencyNsOverride = Nanoseconds{3.0};
    const double fast =
        runInference(fast_cfg, model, 1).throughputTmacs();
    const double slow =
        runInference(slow_cfg, model, 1).throughputTmacs();
    EXPECT_LT(slow, fast);
}

TEST(Perf, Fig23RandomCapacityHelpsBatch)
{
    // Fig. 23: a larger RANDOM array helps batch throughput (less
    // spill), while shrinking it hurts.
    auto model = cnn::convLayersOnly(cnn::makeVgg16());
    auto small_cfg = makeSmart();
    small_cfg.randomArray.capacityBytes = 14 * units::mib;
    auto big_cfg = makeSmart();
    big_cfg.randomArray.capacityBytes = 112 * units::mib;
    const double small_thr =
        runInference(small_cfg, model, 8).throughputTmacs();
    const double big_thr =
        runInference(big_cfg, model, 8).throughputTmacs();
    EXPECT_GT(big_thr, small_thr);
}

TEST(Perf, Fig24PrefetchHelps)
{
    // a = 1 (no prefetch) must be slower than a = 3.
    auto model = cnn::convLayersOnly(cnn::makeAlexNet());
    auto no_pf = makeSmart();
    no_pf.prefetchIterations = 1;
    auto pf = makeSmart();
    const double t0 = runInference(no_pf, model, 1).throughputTmacs();
    const double t3 = runInference(pf, model, 1).throughputTmacs();
    EXPECT_GT(t3, t0);
}

TEST(Perf, WeightDramOverlapsAcrossLayers)
{
    // FC-heavy models are bound by weight streaming, which overlaps
    // compute: total >= weight-DRAM time but < naive sum.
    auto cfg = makeSuperNpu();
    auto model = cnn::makeAlexNet(); // includes FC layers
    auto r = runInference(cfg, model, 1);
    EXPECT_GE(r.totalCycles, r.weightDramCycles);
    Cycles layer_sum = 0;
    for (const auto &l : r.layers)
        layer_sum += l.totalCycles;
    EXPECT_LE(r.totalCycles,
              std::max(layer_sum, r.weightDramCycles) + 1);
}

TEST(Perf, DepthwiseUtilizationIsPoor)
{
    auto cfg = makeSmart();
    auto model = cnn::convLayersOnly(cnn::makeMobileNet());
    auto r = runInference(cfg, model, 1);
    EXPECT_LT(r.utilization(cfg), 0.05);
}

/** Parameterized per-model smoke: every scheme completes. */
TEST(PerfDeathTest, InvalidConfigPanicsWithReason)
{
    // A default-constructed config has zero-bank SPMs; evaluating it
    // must panic with the reason, not divide by zero. The threadsafe
    // style re-executes the binary, so the child gets fresh workers.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const AcceleratorConfig bad;
    const auto layer = cnn::makeModel("AlexNet").layers.front();
    EXPECT_DEATH(runLayer(bad, layer, 1), "SPM bank count");
    EXPECT_DEATH(runInference(bad, cnn::makeModel("AlexNet"), 1),
                 "SPM bank count");
}

TEST(PerfDeathTest, SchedParamsNeedsRandomArray)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(schedParams(makeTpu()), "schedParams");
    EXPECT_DEATH(schedParams(makeSuperNpu()), "schedParams");
    EXPECT_DEATH(schedParams(makeSramScheme()), "schedParams");
    EXPECT_GT(schedParams(makeSmart()).hrBandwidthBytesPerCycle, 0.0);
}

void
expectSameLayer(const LayerResult &a, const LayerResult &b)
{
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.computeCycles, b.computeCycles);
    EXPECT_EQ(a.inputService, b.inputService);
    EXPECT_EQ(a.weightService, b.weightService);
    EXPECT_EQ(a.outputService, b.outputService);
    EXPECT_EQ(a.serialOverhead, b.serialOverhead);
    EXPECT_EQ(a.weightDramCycles, b.weightDramCycles);
    EXPECT_EQ(a.totalCycles, b.totalCycles);
    EXPECT_EQ(a.counters.shiftSteps, b.counters.shiftSteps);
    EXPECT_EQ(a.counters.shiftLaneBytes, b.counters.shiftLaneBytes);
    EXPECT_EQ(a.counters.randomReadBytes, b.counters.randomReadBytes);
    EXPECT_EQ(a.counters.randomWriteBytes, b.counters.randomWriteBytes);
    EXPECT_EQ(a.counters.dramBytes, b.counters.dramBytes);
    EXPECT_EQ(a.counters.macs, b.counters.macs);
    EXPECT_EQ(a.schedQuality, b.schedQuality);
    EXPECT_EQ(a.schedGapBound, b.schedGapBound);
}

TEST(Perf, InferenceLayersEqualPerLayerRuns)
{
    // runInference derives the per-config state once and shares it
    // across its (parallel) layer tasks; runLayer derives it per call.
    // Both must give the same result for every layer.
    for (int s = 0; s < 6; ++s) {
        const auto cfg = makeScheme(static_cast<Scheme>(s));
        for (const auto &name : cnn::modelNames()) {
            const auto model = cnn::makeModel(name);
            const int paper = cnn::paperBatchSize(
                name, cfg.scheme == Scheme::SuperNpu);
            for (int batch : {1, paper}) {
                for (SchedMode mode : {SchedMode::Ilp, SchedMode::Greedy}) {
                    SCOPED_TRACE(cfg.name + " " + name + " b" +
                                 std::to_string(batch) +
                                 (mode == SchedMode::Ilp ? " ilp"
                                                         : " greedy"));
                    const auto r = runInference(cfg, model, batch, mode);
                    ASSERT_EQ(r.layers.size(), model.layers.size());
                    for (std::size_t i = 0; i < model.layers.size(); ++i)
                        expectSameLayer(
                            r.layers[i],
                            runLayer(cfg, model.layers[i], batch, mode));
                }
            }
        }
    }
}

class SchemeModelSweep
    : public ::testing::TestWithParam<std::tuple<int, std::string>>
{
};

TEST_P(SchemeModelSweep, RunsAndProducesPositiveThroughput)
{
    const auto [scheme_idx, model_name] = GetParam();
    auto cfg = makeScheme(static_cast<Scheme>(scheme_idx));
    auto model = cnn::convLayersOnly(cnn::makeModel(model_name));
    auto r = runInference(cfg, model, 2);
    EXPECT_GT(r.throughputTmacs(), 0.0);
    EXPECT_EQ(r.layers.size(), model.layers.size());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SchemeModelSweep,
    ::testing::Combine(::testing::Range(0, 6),
                       ::testing::Values("AlexNet", "GoogleNet")));

} // namespace
