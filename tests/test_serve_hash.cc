/**
 * @file
 * Canonical request hashing regression guard (in the spirit of the
 * PR 1 ilp_cache under-keying fix): the serving cache key must be
 * deterministic — same request, same key, on any thread — and must
 * change whenever any result-relevant config, model, or batch field
 * changes, so distinct requests can never alias a cache line. The
 * schedule memo key (accel::scheduleKey) gets the same guard.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "accel/hash.hh"
#include "cnn/models.hh"
#include "common/taskgraph.hh"

namespace
{

using namespace smart;

const bool force_threads = []() {
    setenv("SMART_THREADS", "4", /*overwrite=*/0);
    return true;
}();

accel::AcceleratorConfig
baseCfg()
{
    return accel::makeSmart();
}

cnn::CnnModel
baseModel()
{
    return cnn::convLayersOnly(cnn::makeAlexNet());
}

TEST(RequestHash, SameRequestSameKeyAcrossThreads)
{
    const auto cfg = baseCfg();
    const auto model = baseModel();
    const std::string reference = accel::requestKey(cfg, model, 4);
    const std::uint64_t ref_digest = accel::requestDigest(reference);

    std::vector<std::string> keys(64);
    std::vector<std::uint64_t> digests(64);
    pFor(keys.size(), [&](std::size_t i) {
        keys[i] = accel::requestKey(cfg, model, 4);
        digests[i] = accel::requestDigest(keys[i]);
    });
    for (std::size_t i = 0; i < keys.size(); ++i) {
        EXPECT_EQ(keys[i], reference) << "thread-slot " << i;
        EXPECT_EQ(digests[i], ref_digest) << "thread-slot " << i;
    }
}

TEST(RequestHash, EveryConfigFieldIsKeyed)
{
    const auto model = baseModel();
    const std::string base = accel::requestKey(baseCfg(), model, 1);

    // One mutation per result-relevant field; each must change the key.
    std::vector<std::function<void(accel::AcceleratorConfig &)>> mutations
        = {
            [](auto &c) { c.scheme = accel::Scheme::Pipe; },
            [](auto &c) { c.pe.rows += 1; },
            [](auto &c) { c.pe.cols += 1; },
            [](auto &c) { c.clockGhz += Gigahertz{0.1}; },
            [](auto &c) { c.temperatureK += 1.0; },
            [](auto &c) { c.coolingFactor += 1.0; },
            [](auto &c) { c.inputSpm.capacityBytes += 1; },
            [](auto &c) { c.inputSpm.banks += 1; },
            [](auto &c) { c.outputSpm.capacityBytes += 1; },
            [](auto &c) { c.outputSpm.banks += 1; },
            [](auto &c) { c.weightSpm.capacityBytes += 1; },
            [](auto &c) { c.weightSpm.banks += 1; },
            [](auto &c) { c.spmsAreShift = !c.spmsAreShift; },
            [](auto &c) { c.randomArray.capacityBytes += 1; },
            [](auto &c) { c.randomArray.banks += 1; },
            [](auto &c) { c.randomTech = cryo::MemTech::JcsSram; },
            [](auto &c) { c.randomWriteLatencyNsOverride = Nanoseconds{1.5}; },
            [](auto &c) { c.prefetchIterations += 1; },
            [](auto &c) { c.useIlpCompiler = !c.useIlpCompiler; },
            [](auto &c) { c.dramBandwidthGBs += 1.0; },
            [](auto &c) { c.knobs.dauWindowBytes += 1.0; },
            [](auto &c) { c.knobs.interLayerReorderFactor += 0.1; },
            [](auto &c) { c.knobs.tpuEfficiency += 0.01; },
            [](auto &c) { c.knobs.shiftSegmentBytes += 1.0; },
            [](auto &c) { c.knobs.leakageActivityFactor += 0.01; },
            [](auto &c) { c.knobs.randomOutstanding += 1.0; },
        };

    std::set<std::string> keys{base};
    for (std::size_t i = 0; i < mutations.size(); ++i) {
        auto cfg = baseCfg();
        mutations[i](cfg);
        const std::string key = accel::requestKey(cfg, model, 1);
        EXPECT_NE(key, base) << "mutation " << i << " did not change key";
        // ... and no two mutations alias each other either.
        EXPECT_TRUE(keys.insert(key).second)
            << "mutation " << i << " aliases another mutation";
    }
}

TEST(RequestHash, AppendFormEqualsRequestKey)
{
    // The dispatcher appends into Pending::key; appending into a
    // non-empty buffer must leave the prefix and add requestKey.
    const auto cfg = baseCfg();
    const auto model = baseModel();
    std::string out = "prefix|";
    accel::appendRequestKey(out, cfg, model, 4);
    EXPECT_EQ(out, "prefix|" + accel::requestKey(cfg, model, 4));
}

TEST(RequestHash, ModelAndBatchAreKeyed)
{
    const auto cfg = baseCfg();
    const auto alex = baseModel();
    const std::string base = accel::requestKey(cfg, alex, 1);

    EXPECT_NE(accel::requestKey(cfg, alex, 2), base);
    EXPECT_NE(
        accel::requestKey(cfg, cnn::convLayersOnly(cnn::makeMobileNet()),
                          1),
        base);

    // Any single layer-field change re-keys.
    auto tweaked = alex;
    tweaked.layers[0].stride += 1;
    EXPECT_NE(accel::requestKey(cfg, tweaked, 1), base);
    tweaked = alex;
    tweaked.layers.back().filters += 1;
    EXPECT_NE(accel::requestKey(cfg, tweaked, 1), base);
    tweaked = alex;
    tweaked.layers[1].depthwise = !tweaked.layers[1].depthwise;
    EXPECT_NE(accel::requestKey(cfg, tweaked, 1), base);

    // Names flow into InferenceResult, so they are keyed too.
    tweaked = alex;
    tweaked.name += "x";
    EXPECT_NE(accel::requestKey(cfg, tweaked, 1), base);
}

TEST(RequestHash, SeparatorInjectionCannotAlias)
{
    // A crafted model name containing the key's separators must not
    // serialize to the same bytes as a structurally different model.
    const auto cfg = baseCfg();
    cnn::CnnModel a = baseModel();
    cnn::CnnModel b = baseModel();
    a.name = "m;1,2,3,4,5,6,7,8,0;";
    b.name = "m";
    EXPECT_NE(accel::requestKey(cfg, a, 1), accel::requestKey(cfg, b, 1));
}

TEST(RequestHash, DisplayNameIsNotKeyed)
{
    // cfg.name is never read by the model; configs differing only in
    // label share a cache line by design.
    const auto model = baseModel();
    auto a = baseCfg();
    auto b = baseCfg();
    b.name = "renamed";
    EXPECT_EQ(accel::requestKey(a, model, 1),
              accel::requestKey(b, model, 1));
}

/** One schedule memo lookup's inputs. */
struct SchedInputs
{
    systolic::ConvLayer layer =
        systolic::ConvLayer::conv("conv3", 13, 13, 256, 384, 3);
    systolic::ArrayDims pe{64, 256};
    compiler::SchedParams sp;
    accel::SchedMode mode = accel::SchedMode::Ilp;

    std::string key() const
    {
        return accel::scheduleKey(layer, pe, accel::schedParamsKey(sp),
                                  mode);
    }
};

TEST(ScheduleKey, EveryScheduleInputIsKeyed)
{
    const std::string base = SchedInputs{}.key();

    // One mutation per input the schedule depends on; each must change
    // the memo key, or a sweep would reuse another point's schedule.
    std::vector<std::function<void(SchedInputs &)>> mutations = {
        [](auto &in) { in.layer.ifmapH += 1; },
        [](auto &in) { in.layer.ifmapW += 1; },
        [](auto &in) { in.layer.inChannels += 1; },
        [](auto &in) { in.layer.filters += 1; },
        [](auto &in) { in.layer.kernelH += 1; },
        [](auto &in) { in.layer.kernelW += 1; },
        [](auto &in) { in.layer.stride += 1; },
        [](auto &in) { in.layer.pad += 1; },
        [](auto &in) { in.layer.depthwise = !in.layer.depthwise; },
        [](auto &in) { in.pe.rows += 1; },
        [](auto &in) { in.pe.cols += 1; },
        [](auto &in) { in.sp.shiftCapacityBytes += ByteCount{1}; },
        [](auto &in) { in.sp.randomCapacityBytes += ByteCount{1}; },
        [](auto &in) { in.sp.shiftCyclesPerAccess += 0.125; },
        [](auto &in) { in.sp.randomCyclesPerAccess += 0.125; },
        [](auto &in) { in.sp.dramCyclesPerAccess += 0.125; },
        [](auto &in) { in.sp.hrBandwidthBytesPerCycle += 0.125; },
        [](auto &in) { in.sp.dramBandwidthBytesPerCycle += 0.125; },
        [](auto &in) { in.sp.prefetchIterations += 1; },
        [](auto &in) { in.sp.hasRandomArray = !in.sp.hasRandomArray; },
        [](auto &in) { in.mode = accel::SchedMode::Greedy; },
    };

    std::set<std::string> keys{base};
    for (std::size_t i = 0; i < mutations.size(); ++i) {
        SchedInputs in;
        mutations[i](in);
        const std::string key = in.key();
        EXPECT_NE(key, base) << "mutation " << i << " did not change key";
        EXPECT_TRUE(keys.insert(key).second)
            << "mutation " << i << " aliases another mutation";
    }
}

TEST(ScheduleKey, LayerNameIsNotKeyed)
{
    // Repeated blocks (ResNet stages, MobileNet pairs) differ only in
    // name and must share one solve.
    SchedInputs a;
    SchedInputs b;
    b.layer.name = "conv4";
    EXPECT_EQ(a.key(), b.key());
}

} // namespace
