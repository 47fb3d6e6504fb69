/**
 * @file
 * The repository benchmark (see README.md beside this file). One
 * process runs one workload:
 *
 *  - grid_ilp: the Figs. 18-21 grid (6 models x [TPU + 5 schemes] x
 *    {single image, paper batch} = 72 points) through accel::runBatch
 *    with the ILP compiler, the schedule memo cleared before every
 *    sweep. The seed shuffles the point order.
 *  - grid_greedy: the same 72 points through the greedy scheduler.
 *  - serve_zipf: one serve::EvalService fed by this thread with
 *    Zipf(1) requests over 1,152 points. Phase A submits the whole
 *    seeded set at once (capacity); phase B paces Poisson arrivals at
 *    a fixed rate below capacity (latency from each request's due
 *    time).
 *
 * Usage:
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--trace-out FILE]
 *
 * SMART_THREADS sets the evaluation width. Every output is checked;
 * a failed check makes the exit status 1. The last line on stdout is
 * one JSON object {correct, attempted, failed, metrics}: the
 * end-to-end metrics with --trace 0, the per-layer metrics with
 * --trace 1. A traced run also writes its spans as Chrome trace JSON
 * to FILE. Lines starting with "digest " hash the deterministic
 * outputs so two runs can be compared (run.py --self-test).
 */

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "accel/batch.hh"
#include "accel/energy.hh"
#include "accel/hash.hh"
#include "accel/perf.hh"
#include "accel/serdes.hh"
#include "cnn/models.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/taskgraph.hh"
#include "compiler/dag.hh"
#include "compiler/greedy.hh"
#include "compiler/ilpsched.hh"
#include "cryomem/cmos_sfq_array.hh"
#include "serve/service.hh"
#include "spans.hh"
#include "systolic/trace.hh"

namespace
{

using namespace smart;
using perfbench::Clock;
using perfbench::SpanLog;
using perfbench::SpanScope;

// ------------------------------------------------------------------
// Small helpers
// ------------------------------------------------------------------

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/** Nearest-rank quantile; 0 for an empty sample. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::min(v.size() - 1, rank > 0 ? rank - 1 : 0)];
}

double
median(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    std::vector<double> s = v;
    std::sort(s.begin(), s.end());
    const std::size_t n = s.size();
    return n % 2 ? s[n / 2] : 0.5 * (s[n / 2 - 1] + s[n / 2]);
}

double
sum(const std::vector<double> &v)
{
    return std::accumulate(v.begin(), v.end(), 0.0);
}

/**
 * Peak resident set of this process (VmHWM). getrusage's ru_maxrss
 * is not used: Linux carries it across exec, so it would report the
 * launcher's footprint when that is larger.
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0; // kB
    return 0.0;
}

/** Digest of an inference result's full serialized bytes. */
std::uint64_t
resultDigest(const accel::InferenceResult &r)
{
    return accel::requestDigest(accel::serializeInferenceResult(r));
}

/** FNV-1a fold of 64-bit words (the deterministic-output digests). */
struct Fold
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    void add(std::uint64_t x)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (x >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }
};

/** A seeded random permutation of 0..n-1 (Fisher-Yates). */
std::vector<std::size_t>
permutation(std::size_t n, Rng &rng)
{
    std::vector<std::size_t> p(n);
    std::iota(p.begin(), p.end(), 0);
    for (std::size_t i = n; i > 1; --i)
        std::swap(p[i - 1], p[rng.range(i)]);
    return p;
}

/** Every layer-shape field the model reads (dedup of layer solves). */
std::string
layerShape(const systolic::ConvLayer &l)
{
    char buf[128];
    std::snprintf(buf, sizeof buf, "%dx%dx%d f%d k%dx%d s%d p%d d%d",
                  l.ifmapH, l.ifmapW, l.inChannels, l.filters, l.kernelH,
                  l.kernelW, l.stride, l.pad, l.depthwise ? 1 : 0);
    return buf;
}

/** Operations attempted and failed; a failed check fails the run. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void op(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok && ++failed <= 10)
            std::cerr << "check failed: " << what << "\n";
    }
};

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

// ------------------------------------------------------------------
// The figure grid
// ------------------------------------------------------------------

/** TPU then the five SPM schemes, in the paper's figure order. */
const std::vector<accel::Scheme> kSchemes = {
    accel::Scheme::Tpu,   accel::Scheme::SuperNpu, accel::Scheme::Sram,
    accel::Scheme::Heter, accel::Scheme::Pipe,     accel::Scheme::Smart,
};
constexpr std::size_t kShiftCol = 1;
constexpr std::size_t kSmartCol = 5;
constexpr std::size_t kGridPoints = 72;
/** Set-up repetitions per run; setup_s is their median. */
constexpr int kSetupReps = 5;

/**
 * Node cap compiler/ilpsched.cc gives every layer ILP: a solve that
 * explored this many nodes stopped at the cap.
 */
constexpr int kIlpNodeCap = 200;

/** Pinned outputs of one grid point that uses no compiler. */
struct Pin
{
    Cycles totalCycles;
    double totalJ; //!< computeEnergy(...).totalJ(coolingFactor).
};

/**
 * Seed outputs of the 60 grid points that run no compiler, in
 * canonical order (single-image points first; per model TPU, SHIFT,
 * SRAM, Heter, Pipe, SMART). SMART entries are placeholders: SMART
 * points are checked against their staging bracket instead.
 */
const Pin kPins[kGridPoints] = {
#include "pinned.inc"
};

std::vector<cnn::CnnModel>
makeModels(SpanLog &log, int parent)
{
    std::vector<cnn::CnnModel> models;
    for (const auto &name : cnn::modelNames()) {
        SpanScope span(log, "cnn.make_model", 0, parent);
        models.push_back(cnn::convLayersOnly(cnn::makeModel(name)));
    }
    return models;
}

std::size_t
gridIndex(bool batch, std::size_t model, std::size_t scheme)
{
    return (batch ? 36 : 0) + model * kSchemes.size() + scheme;
}

/** The 72 grid points in canonical order (see kPins). */
std::vector<accel::BatchItem>
gridPoints(const std::vector<cnn::CnnModel> &models, accel::SchedMode mode)
{
    std::vector<accel::BatchItem> items;
    for (bool batch : {false, true}) {
        for (std::size_t m = 0; m < models.size(); ++m) {
            for (auto s : kSchemes) {
                accel::BatchItem it;
                it.cfg = accel::makeScheme(s);
                it.model = models[m];
                it.batch = batch ? cnn::paperBatchSize(
                                       cnn::modelNames()[m],
                                       s == accel::Scheme::SuperNpu)
                                 : 1;
                it.mode = mode;
                items.push_back(std::move(it));
            }
        }
    }
    return items;
}

/**
 * Scheduler parameters runLayer derives for a SMART configuration
 * (accel/perf.cc), so direct compiler calls see the same problem.
 * Only the CMOS-SFQ RANDOM array is modelled here; the caller checks.
 */
compiler::SchedParams
smartSchedParams(const accel::AcceleratorConfig &cfg, SpanLog &log,
                 int parent)
{
    SpanScope span(log, "cryomem.array_model", 0, parent);
    cryo::CmosSfqArrayConfig ac;
    ac.capacityBytes = cfg.randomArray.capacityBytes;
    ac.banks = cfg.randomArray.banks;
    const cryo::CmosSfqArrayModel array(ac);
    const double busyRead = array.stageTimePs() / cfg.cyclePs();
    const double banks = std::max(1, cfg.randomArray.banks);

    compiler::SchedParams sp;
    sp.shiftCapacityBytes = ByteCount{cfg.inputSpm.capacityBytes};
    sp.randomCapacityBytes = ByteCount{cfg.randomArray.capacityBytes};
    sp.shiftCyclesPerAccess = 1.0 / cfg.inputSpm.banks;
    sp.randomCyclesPerAccess = busyRead / banks;
    sp.dramCyclesPerAccess = 1.0 / cfg.dramBytesPerCycle();
    sp.hrBandwidthBytesPerCycle = banks * 16.0 / busyRead;
    sp.dramBandwidthBytesPerCycle = cfg.dramBytesPerCycle();
    sp.prefetchIterations = cfg.prefetchIterations;
    sp.hasRandomArray = true;
    return sp;
}

/**
 * Checks every point of one evaluated grid (canonical order): points
 * without a compiler equal their pinned seed outputs, and each SMART
 * point lies between the same configuration with all staging hidden
 * and with none hidden, so any legitimate schedule passes and a
 * broken one does not.
 */
class GridChecker
{
  public:
    explicit GridChecker(const std::vector<accel::BatchItem> &canon)
    {
        std::vector<accel::BatchItem> bounds;
        for (std::size_t p = 0; p < canon.size(); ++p) {
            if (canon[p].cfg.scheme != accel::Scheme::Smart)
                continue;
            accel::BatchItem hidden = canon[p];
            hidden.cfg.useIlpCompiler = false; // prefetch a > 1: all hidden
            accel::BatchItem exposed = hidden;
            exposed.cfg.prefetchIterations = 1; // nothing hidden
            bounds.push_back(std::move(hidden));
            bounds.push_back(std::move(exposed));
        }
        const auto r = accel::runBatch(bounds);
        for (std::size_t i = 0; i < r.size(); i += 2)
            bracket_.push_back({std::min(r[i].totalCycles, r[i + 1].totalCycles),
                                std::max(r[i].totalCycles, r[i + 1].totalCycles)});
    }

    void check(const std::vector<accel::BatchItem> &canon,
               const std::vector<accel::InferenceResult> &res,
               Tally &tally) const
    {
        std::size_t smart = 0;
        for (std::size_t p = 0; p < canon.size(); ++p) {
            const auto &cfg = canon[p].cfg;
            const Cycles c = res[p].totalCycles;
            if (cfg.scheme == accel::Scheme::Smart) {
                const auto [lo, hi] = bracket_[smart++];
                tally.op(lo <= c && c <= hi,
                         "point " + std::to_string(p) + " SMART cycles " +
                             std::to_string(c) + " outside [" +
                             std::to_string(lo) + ", " + std::to_string(hi) +
                             "]");
            } else {
                const double j = accel::computeEnergy(cfg, res[p])
                                     .totalJ(cfg.coolingFactor)
                                     .value();
                tally.op(c == kPins[p].totalCycles && j == kPins[p].totalJ,
                         "point " + std::to_string(p) + " (" +
                             res[p].model + "/" + res[p].scheme +
                             ") differs from its pinned output");
            }
        }
    }

  private:
    std::vector<std::pair<Cycles, Cycles>> bracket_;
};

/**
 * Mean schedGapBound over the compiler-scheduled SMART layer results;
 * a greedy layer with no LP bound (-1) counts as the trivial bound 1.
 */
double
schedGapMean(const std::vector<accel::InferenceResult> &res)
{
    double total = 0.0;
    std::size_t n = 0;
    for (const auto &r : res) {
        if (r.scheme != accel::schemeName(accel::Scheme::Smart))
            continue;
        for (const auto &l : r.layers) {
            total += l.schedGapBound < 0.0 ? 1.0 : l.schedGapBound;
            ++n;
        }
    }
    return n ? total / static_cast<double>(n) : 0.0;
}

/** gmean over models of SMART/SHIFT throughput and energy ratios. */
struct Fidelity
{
    double speedup[2] = {0, 0}; //!< single, batch
    double energyCut[2] = {0, 0};
};

Fidelity
fidelityOf(const std::vector<accel::BatchItem> &canon,
           const std::vector<accel::InferenceResult> &res,
           std::size_t models)
{
    Fidelity f;
    for (int b = 0; b < 2; ++b) {
        std::vector<double> speed, energy;
        for (std::size_t m = 0; m < models; ++m) {
            const std::size_t sh = gridIndex(b, m, kShiftCol);
            const std::size_t sm = gridIndex(b, m, kSmartCol);
            speed.push_back(res[sm].throughputTmacs() /
                            res[sh].throughputTmacs());
            const auto perImage = [&](std::size_t p) {
                return accel::computeEnergy(canon[p].cfg, res[p])
                           .totalJ(canon[p].cfg.coolingFactor)
                           .value() /
                       canon[p].batch;
            };
            energy.push_back(perImage(sm) / perImage(sh));
        }
        f.speedup[b] = geomean(speed);
        f.energyCut[b] = 1.0 - geomean(energy);
    }
    return f;
}

/**
 * Print a fidelity line beside each simulated speedup and report the
 * model-output metrics; @p ilp is null on a workload that never runs
 * the ILP, whose ILP figures then read 0.
 */
void
reportFidelity(const Fidelity *ilp, const Fidelity &greedy,
               std::vector<Metric> &out)
{
    const char *mode[2] = {"single", "batch"};
    const double paperSpeed[2] = {3.9, 2.2};
    const double paperCut[2] = {0.86, 0.71};
    for (int b = 0; b < 2; ++b) {
        if (ilp) {
            std::printf("fidelity: SMART/SHIFT speedup %s: model %.2fx, "
                        "paper %.1fx (model/paper %.2f)\n",
                        mode[b], ilp->speedup[b], paperSpeed[b],
                        ilp->speedup[b] / paperSpeed[b]);
            std::printf("fidelity: SMART energy cut vs SHIFT %s: model "
                        "%.0f%%, paper %.0f%%\n",
                        mode[b], 100 * ilp->energyCut[b],
                        100 * paperCut[b]);
        } else {
            std::printf("fidelity: SMART/SHIFT speedup %s with the ILP "
                        "schedule: not computed on this workload, which "
                        "never runs the ILP\n",
                        mode[b]);
        }
        std::printf("fidelity: SMART/SHIFT speedup %s with the greedy "
                    "schedule: model %.2fx, unvalidated (the paper reports "
                    "no greedy figure)\n",
                    mode[b], greedy.speedup[b]);
        const std::string suffix = mode[b];
        out.push_back({"accel.sim_speedup_" + suffix,
                       ilp ? ilp->speedup[b] : 0.0, "x"});
        out.push_back({"accel.sim_energy_cut_" + suffix,
                       ilp ? ilp->energyCut[b] : 0.0, "fraction"});
        out.push_back({"accel.greedy_speedup_" + suffix, greedy.speedup[b], "x"});
    }
}

// ------------------------------------------------------------------
// Per-layer attribution (traced runs)
// ------------------------------------------------------------------

/**
 * Times the layers of @p items one call at a time on this thread:
 * cold and warm runLayer (their difference is the compiler's schedule
 * self time, since runLayer memoizes only the schedule), demand
 * analysis, energy, and direct compiler calls on every unique SMART
 * layer DAG. Leaves the schedule memo warm.
 */
/** Time fn() as a span; its duration in ms goes to @p ms. */
template <typename Fn>
auto
timed(SpanLog &log, const char *name, std::uint64_t traceId, int parent,
      std::vector<double> &ms, Fn &&fn)
{
    const auto t0 = Clock::now();
    auto result = fn();
    const auto t1 = Clock::now();
    log.record(name, traceId, t0, t1, parent);
    ms.push_back(msBetween(t0, t1));
    return result;
}

void
attribute(const std::vector<accel::BatchItem> &items,
          const std::vector<accel::InferenceResult> &results,
          accel::SchedMode mode, SpanLog &log, Tally &tally,
          std::vector<Metric> &out, Fold &nodeDigest)
{
    SpanScope root(log, "attribution");
    const int parent = root.id();
    std::vector<double> cold, warm, demand, energy;
    const auto eachLayer = [&](const char *name, std::vector<double> &ms,
                               auto &&fn) {
        for (std::size_t p = 0; p < items.size(); ++p)
            for (const auto &layer : items[p].model.layers)
                timed(log, name, p + 1, parent, ms,
                      [&] { return fn(items[p], layer); });
    };
    const auto runLayer = [&](const accel::BatchItem &it,
                              const systolic::ConvLayer &layer) {
        return accel::runLayer(it.cfg, layer, it.batch, mode);
    };
    accel::clearIlpCache();
    eachLayer("accel.run_layer.cold", cold, runLayer);
    eachLayer("accel.run_layer.warm", warm, runLayer);
    eachLayer("systolic.analyze_demand", demand,
              [](const accel::BatchItem &it, const systolic::ConvLayer &layer) {
                  return systolic::analyzeDemand(layer, it.cfg.pe);
              });
    for (std::size_t p = 0; p < items.size(); ++p)
        timed(log, "accel.compute_energy", p + 1, parent, energy, [&] {
            return accel::computeEnergy(items[p].cfg, results[p]);
        });

    // Direct compiler calls, once per unique SMART layer shape; the ILP
    // counts are then taken over every SMART layer instance.
    struct Solve
    {
        double greedyObjective = 0.0;
        double ilpObjective = 0.0;
        int nodes = 0;
    };
    std::map<std::string, Solve> solves;
    std::vector<double> dagMs, greedyMs, ilpMs;
    int belowGreedy = 0;
    for (std::size_t p = 0; p < items.size(); ++p) {
        const auto &cfg = items[p].cfg;
        if (cfg.scheme != accel::Scheme::Smart || items[p].batch != 1)
            continue;
        if (cfg.randomTech != cryo::MemTech::CmosSfq) {
            std::cerr << "note: SMART RANDOM array is not CMOS-SFQ; "
                         "direct compiler calls skipped\n";
            break;
        }
        const auto sp = smartSchedParams(cfg, log, parent);
        for (std::size_t l = 0; l < items[p].model.layers.size(); ++l) {
            const auto &layer = items[p].model.layers[l];
            const std::string key = layerShape(layer);
            auto it = solves.find(key);
            if (it == solves.end()) {
                Solve s;
                const auto d = systolic::analyzeDemand(layer, cfg.pe);
                const auto dag = timed(log, "compiler.build_dag", p + 1, parent,
                                       dagMs, [&] {
                                           return compiler::buildLayerDag(layer, d);
                                       });
                s.greedyObjective =
                    timed(log, "compiler.schedule_greedy", p + 1, parent,
                          greedyMs,
                          [&] { return compiler::scheduleGreedy(dag, sp); })
                        .objective;
                if (mode == accel::SchedMode::Ilp) {
                    const auto sched =
                        timed(log, "compiler.schedule_ilp", p + 1, parent, ilpMs,
                              [&] { return compiler::scheduleIlp(dag, sp); });
                    tally.op(compiler::validateSchedule(dag, sp, sched),
                             "direct ILP schedule of " + layer.name +
                                 " fails validateSchedule");
                    if (sched.gapBound != results[p].layers[l].schedGapBound)
                        std::cerr << "note: direct ILP solve of " << layer.name
                                  << " differs from runLayer's schedule\n";
                    s.ilpObjective = sched.objective;
                    s.nodes = sched.bnbNodes;
                }
                it = solves.emplace(key, s).first;
            }
            if (mode == accel::SchedMode::Ilp &&
                it->second.ilpObjective < it->second.greedyObjective)
                ++belowGreedy;
        }
    }
    double nodes = 0, capped = 0;
    for (const auto &[key, s] : solves) {
        nodes += s.nodes;
        capped += s.nodes >= kIlpNodeCap;
        nodeDigest.add(static_cast<std::uint64_t>(s.nodes));
    }

    // Proven-optimal share over every ILP-scheduled SMART layer result.
    double proven = 0, scheduled = 0;
    if (mode == accel::SchedMode::Ilp)
        for (const auto &r : results)
            if (r.scheme == accel::schemeName(accel::Scheme::Smart))
                for (const auto &l : r.layers) {
                    ++scheduled;
                    proven += l.schedGapBound == 0.0;
                }

    const double selfMs = sum(cold) - sum(warm);
    out.push_back({"compiler.schedule.self_ms", selfMs, "ms"});
    out.push_back({"compiler.schedule.share",
                   sum(cold) > 0 ? selfMs / sum(cold) : 0.0, "fraction"});
    out.push_back({"compiler.schedule_ilp.ms", sum(ilpMs), "ms"});
    out.push_back({"compiler.schedule_ilp.p50_ms", median(ilpMs), "ms"});
    out.push_back({"compiler.schedule_ilp.max_ms",
                   ilpMs.empty() ? 0.0
                                 : *std::max_element(ilpMs.begin(), ilpMs.end()),
                   "ms"});
    out.push_back({"compiler.build_dag.us", 1e3 * median(dagMs), "us"});
    out.push_back({"compiler.schedule_greedy.us", 1e3 * median(greedyMs), "us"});
    out.push_back({"compiler.ilp_below_greedy_layers",
                   static_cast<double>(belowGreedy), "count"});
    out.push_back({"ilp.solves", static_cast<double>(ilpMs.size()), "count"});
    out.push_back({"ilp.bnb_nodes", nodes, "count"});
    out.push_back({"ilp.node_cap_layers", capped, "count"});
    out.push_back({"ilp.proven_optimal_share",
                   scheduled > 0 ? proven / scheduled : 0.0, "fraction"});
    out.push_back({"systolic.analyze_demand.us", 1e3 * median(demand), "us"});
    out.push_back({"accel.run_layer.warm_us", 1e3 * median(warm), "us"});
    std::vector<double> rollup(warm.size());
    for (std::size_t i = 0; i < warm.size(); ++i)
        rollup[i] = warm[i] - demand[i];
    out.push_back({"accel.rollup.self_us", 1e3 * median(rollup), "us"});
    out.push_back({"accel.compute_energy.us", 1e3 * median(energy), "us"});
}

// ------------------------------------------------------------------
// Workloads
// ------------------------------------------------------------------

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string traceOut;
};

struct Run
{
    const Args &args;
    const Clock::time_point start; //!< Process entry.
    SpanLog log;
    Tally tally;
    std::vector<Metric> e2e;   //!< Printed with --trace 0.
    std::vector<Metric> layer; //!< Printed with --trace 1.
    std::vector<std::string> notes;
};

/** Taskgraph counters over [a, b], per unit of work. */
void
schedulerMetrics(const TaskScheduler::Stats &a, const TaskScheduler::Stats &b,
                 double units, std::vector<Metric> &out)
{
    out.push_back({"taskgraph.tasks_run",
                   static_cast<double>(b.tasksRun - a.tasksRun) / units, "count"});
    out.push_back({"taskgraph.steals",
                   static_cast<double>(b.steals - a.steals) / units, "count"});
    out.push_back({"taskgraph.steal_failures",
                   static_cast<double>(b.stealFailures - a.stealFailures) / units,
                   "count"});
    out.push_back({"taskgraph.max_deque_depth",
                   static_cast<double>(b.maxDequeDepth), "count"});
}

/** One grid sweep with a span per point (trace id = point + 1). */
std::vector<accel::InferenceResult>
tracedSweep(const std::vector<accel::BatchItem> &items,
            const std::vector<std::size_t> &order, SpanLog &log)
{
    SpanScope sweep(log, "accel.sweep");
    std::vector<accel::InferenceResult> res(items.size());
    pFor(items.size(), [&](std::size_t i) {
        SpanScope span(log, "accel.run_inference", order[i] + 1, sweep.id());
        res[i] = accel::runInference(items[i].cfg, items[i].model,
                                     items[i].batch, items[i].mode);
    });
    return res;
}

void
runGrid(Run &run, accel::SchedMode mode)
{
    struct Setup
    {
        std::vector<cnn::CnnModel> models;
        std::vector<accel::BatchItem> canon;
        std::vector<std::size_t> order; //!< items[i] = canon[order[i]]
        std::vector<accel::BatchItem> items;
        std::vector<accel::InferenceResult> reference; //!< Canonical order.
    };
    // Every sweep evaluates the points in a fresh seeded order, so a
    // run's median covers many orders rather than one lucky or unlucky
    // load balance.
    const auto shuffle = [](Setup &st, Rng &rng) {
        st.order = permutation(st.canon.size(), rng);
        st.items.clear();
        for (auto p : st.order)
            st.items.push_back(st.canon[p]);
    };
    const auto unshuffle = [](const std::vector<std::size_t> &order,
                              std::vector<accel::InferenceResult> &&res) {
        std::vector<accel::InferenceResult> canon(res.size());
        for (std::size_t i = 0; i < res.size(); ++i)
            canon[order[i]] = std::move(res[i]);
        return canon;
    };

    // Set-up: inputs, check references and one warm-up sweep, repeated
    // so its median is steady; the first repetition starts at process
    // entry.
    Setup st;
    std::unique_ptr<GridChecker> checker;
    std::vector<double> setupS;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        const auto t0 = rep == 0 ? run.start : Clock::now();
        SpanScope span(run.log, "setup");
        st = Setup{};
        st.models = makeModels(run.log, span.id());
        st.canon = gridPoints(st.models, mode);
        Rng rng(run.args.seed * 0x9e3779b97f4a7c15ull + 1);
        shuffle(st, rng);
        checker = std::make_unique<GridChecker>(st.canon);
        {
            SpanScope warm(run.log, "accel.warmup", 0, span.id());
            accel::clearIlpCache();
            st.reference = unshuffle(st.order, accel::runBatch(st.items));
        }
        checker->check(st.canon, st.reference, run.tally);
        setupS.push_back(msBetween(t0, Clock::now()) / 1e3);
    }
    std::vector<std::uint64_t> refDigest;
    Fold gridDigest;
    for (const auto &r : st.reference) {
        refDigest.push_back(resultDigest(r));
        gridDigest.add(refDigest.back());
    }
    const double gapMean = schedGapMean(st.reference);

    // Timed sweeps, each from a cold schedule memo. A traced run
    // alternates untraced and traced sweeps so the tracing overhead is
    // measured in the same process.
    std::vector<double> sweepMs, tracedMs;
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(run.args.seconds));
    Rng rng(run.args.seed * 0x9e3779b97f4a7c15ull + 2);
    const auto stats0 = TaskScheduler::global().stats();
    for (int k = 0; sweepMs.size() < 3 || (run.args.trace && tracedMs.size() < 3) ||
                    Clock::now() < deadline;
         ++k) {
        const bool traced = run.args.trace && k % 2 == 1;
        shuffle(st, rng);
        accel::clearIlpCache();
        const auto t0 = Clock::now();
        auto res = traced ? tracedSweep(st.items, st.order, run.log)
                          : accel::runBatch(st.items);
        (traced ? tracedMs : sweepMs).push_back(msBetween(t0, Clock::now()));
        for (std::size_t i = 0; i < res.size(); ++i)
            run.tally.op(resultDigest(res[i]) == refDigest[st.order[i]],
                         "sweep result of point " +
                             std::to_string(st.order[i]) +
                             " differs from the set-up sweep");
    }
    const auto stats1 = TaskScheduler::global().stats();
    const double sweeps = static_cast<double>(sweepMs.size() + tracedMs.size());
    const double pps = kGridPoints / (median(sweepMs) / 1e3);

    char note[160];
    std::snprintf(note, sizeof note,
                  "points_per_s = %zu points / median of %zu sweeps (%.1f ms)",
                  kGridPoints, sweepMs.size(), median(sweepMs));
    run.notes.push_back(note);
    std::printf("digest grid %016" PRIx64 "\n", gridDigest.h);
    std::printf("digest sched_gap_mean %.17g\n", gapMean);

    run.e2e.push_back({"setup_s", median(setupS), "s"});
    run.e2e.push_back({"points_per_s", pps, "1/s"});
    run.e2e.push_back({"sched_gap_mean", gapMean, "ratio"});
    if (!run.args.trace)
        return;

    auto &out = run.layer;
    out.push_back({"trace.overhead_points_per_s",
                   pps - kGridPoints / (median(tracedMs) / 1e3), "1/s"});
    schedulerMetrics(stats0, stats1, sweeps, out);
    double calls = 0;
    for (const auto &it : st.items)
        calls += static_cast<double>(it.model.layers.size());
    out.push_back({"systolic.analyze_demand.calls", calls, "count"});
    out.push_back({"accel.warmup.ms",
                   median(run.log.durationsMs("accel.warmup")), "ms"});

    // Model fidelity. The greedy grid is cheap; the ILP grid is only
    // at hand when this workload ran it.
    const Fidelity own = fidelityOf(st.canon, st.reference, st.models.size());
    if (mode == accel::SchedMode::Ilp) {
        auto greedyItems = gridPoints(st.models, accel::SchedMode::Greedy);
        const Fidelity greedy = fidelityOf(
            greedyItems, accel::runBatch(greedyItems), st.models.size());
        reportFidelity(&own, greedy, out);
    } else {
        reportFidelity(nullptr, own, out);
    }

    Fold nodeDigest;
    attribute(st.canon, st.reference, mode, run.log, run.tally, out,
              nodeDigest);
    std::printf("digest ilp_nodes %016" PRIx64 "\n", nodeDigest.h);
}

// ------------------------------------------------------------------
// serve_zipf
// ------------------------------------------------------------------

/** Requests per phase-A burst (the "whole seeded set"). */
constexpr std::size_t kBurstRequests = 4096;
/** Phase-B offered load: a fixed rate, about 40% of the capacity at width 2. */
constexpr double kPacedRate = 1150.0;
/** Share of --seconds given to phase B. */
constexpr double kPacedShare = 0.25;
constexpr int kMaxBatch = 32;

struct ServePoint
{
    std::size_t model;
    std::size_t config;
    int batch;
};

serve::ServiceConfig
serviceConfig()
{
    serve::ServiceConfig cfg;
    // Deep enough that nothing is ever refused: the burst measures
    // capacity, not admission.
    cfg.queue.maxDepth = 1u << 20;
    cfg.cacheMaxEntries = 256;
    return cfg;
}

/** Outcome of one request, kept for the checks after the phase. */
struct Served
{
    std::size_t point = 0;
    bool admitted = false;
    bool ok = false;        //!< Resolved with status Ok.
    bool evaluated = false; //!< Ok, and neither a cache hit nor coalesced.
    std::uint64_t digest = 0; //!< resultDigest of the response.
    double queueMs = 0.0;
    double totalMs = 0.0;
    Clock::time_point due, call, ret;
};

/**
 * Submit request i = next(i) for every point in @p ids, paced by
 * @p dueMs when given, then drain and collect the outcomes.
 */
std::vector<Served>
drive(serve::EvalService &svc, const std::vector<std::size_t> &ids,
      const std::function<serve::EvalRequest(std::size_t)> &next,
      const std::vector<double> *dueMs, Clock::time_point &t0,
      Clock::time_point &t1)
{
    std::vector<Served> out(ids.size());
    std::vector<serve::Submission> subs(ids.size());
    t0 = Clock::now();
    for (std::size_t i = 0; i < ids.size(); ++i) {
        out[i].point = ids[i];
        serve::EvalRequest req = next(i);
        if (dueMs) {
            out[i].due = t0 + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double, std::milli>(
                                      (*dueMs)[i]));
            std::this_thread::sleep_until(out[i].due);
        }
        out[i].call = Clock::now();
        subs[i] = svc.submit(std::move(req));
        out[i].ret = Clock::now();
    }
    svc.drain();
    t1 = Clock::now();
    for (std::size_t i = 0; i < ids.size(); ++i) {
        out[i].admitted = subs[i].admitted();
        if (!out[i].admitted)
            continue;
        serve::EvalResponse resp;
        try {
            resp = subs[i].response.get();
        } catch (const std::exception &e) {
            std::cerr << "request " << i << " failed: " << e.what() << "\n";
            continue; // counted as not ok
        }
        out[i].ok = resp.status == serve::ResponseStatus::Ok;
        out[i].evaluated = out[i].ok && !resp.cacheHit && !resp.coalesced;
        out[i].digest = resultDigest(resp.result);
        out[i].queueMs = resp.queueMs;
        out[i].totalMs = resp.totalMs;
        if (!dueMs)
            out[i].due = out[i].call;
    }
    return out;
}

/** Every submission ends in exactly one bucket, as the metrics count it. */
void
checkBuckets(const std::vector<Served> &served,
             const serve::MetricsSnapshot &m, Tally &tally)
{
    std::uint64_t admitted = 0, ok = 0;
    for (const auto &s : served) {
        admitted += s.admitted;
        ok += s.ok;
    }
    const bool sound =
        m.submitted == served.size() && m.admitted == admitted &&
        m.admitted + m.rejected == m.submitted &&
        m.completed + m.shed + m.expired + m.failed == m.admitted &&
        m.completed == ok;
    tally.op(sound, "serve buckets: submitted " + std::to_string(m.submitted) +
                        ", admitted " + std::to_string(m.admitted) +
                        ", rejected " + std::to_string(m.rejected) +
                        ", completed " + std::to_string(m.completed) +
                        ", shed " + std::to_string(m.shed) + ", expired " +
                        std::to_string(m.expired) + ", failed " +
                        std::to_string(m.failed));
}

/**
 * Serve-layer metrics: phase-B stage percentiles from the spans, and
 * phase-A cache and wave counters per burst. On a grid workload there
 * are no serve spans or bursts and every value reads 0.
 */
void
serveLayerMetrics(const SpanLog &log, const serve::MetricsSnapshot &bursts,
                  double reps, std::vector<Metric> &out)
{
    const auto stage = [&](const std::string &name, double scale,
                           const std::string &unit) {
        const auto d = log.durationsMs(name);
        out.push_back({name + ".p50_" + unit, scale * quantile(d, 0.5), unit});
        out.push_back({name + ".p99_" + unit, scale * quantile(d, 0.99), unit});
        out.push_back({name + ".count", static_cast<double>(d.size()), "count"});
    };
    stage("serve.submit", 1e3, "us");
    stage("serve.queue_wait", 1.0, "ms");
    stage("serve.service", 1.0, "ms");
    stage("serve.latency", 1.0, "ms");
    out.push_back({"serve.generator_lag.p99_ms",
                   quantile(log.durationsMs("serve.generator_lag"), 0.99), "ms"});
    const double lookups =
        static_cast<double>(bursts.cacheHits + bursts.cacheMisses);
    out.push_back({"serve.cache_hit_rate",
                   lookups > 0 ? bursts.cacheHits / lookups : 0.0, "fraction"});
    out.push_back({"serve.cache_evictions",
                   static_cast<double>(bursts.cacheEvictions) / reps, "count"});
    out.push_back({"serve.coalesced",
                   static_cast<double>(bursts.coalesced) / reps, "count"});
    out.push_back({"serve.mean_wave",
                   bursts.waves ? static_cast<double>(bursts.waveItems) /
                                      static_cast<double>(bursts.waves)
                                : 0.0,
                   "count"});
}

void
runServe(Run &run)
{
    struct Setup
    {
        std::vector<cnn::CnnModel> models;
        std::vector<ServePoint> points;
        std::vector<std::size_t> burst;  //!< Phase-A point ids.
        std::vector<std::size_t> paced;  //!< Phase-B point ids.
        std::vector<double> dueMs;       //!< Phase-B arrival offsets.
        std::vector<accel::BatchItem> warm;
        std::vector<accel::InferenceResult> warmResults;
    };
    const double pacedMs = 1e3 * kPacedShare * run.args.seconds;

    Setup st;
    std::vector<double> setupS;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        const auto t0 = rep == 0 ? run.start : Clock::now();
        SpanScope span(run.log, "setup");
        st = Setup{};
        st.models = makeModels(run.log, span.id());
        for (std::size_t m = 0; m < st.models.size(); ++m)
            for (std::size_t c = 0; c < kSchemes.size(); ++c)
                for (int b = 1; b <= kMaxBatch; ++b)
                    st.points.push_back({m, c, b});
        // Popularity rank -> point is a fixed scramble, so the hot set
        // mixes models, schemes and batches the same way for every
        // seed; the seed draws the request sequence and arrivals.
        Rng scramble(0x5eed5eed5eedull);
        const auto byRank = permutation(st.points.size(), scramble);
        std::vector<double> cdf(st.points.size());
        double acc = 0;
        for (std::size_t k = 0; k < cdf.size(); ++k)
            cdf[k] = acc += 1.0 / static_cast<double>(k + 1);
        Rng rng(run.args.seed * 0x9e3779b97f4a7c15ull + 2);
        const auto draw = [&]() {
            const double u = rng.uniform() * acc;
            const auto k = static_cast<std::size_t>(
                std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
            return byRank[std::min(k, cdf.size() - 1)];
        };
        for (std::size_t i = 0; i < kBurstRequests; ++i)
            st.burst.push_back(draw());
        for (double t = 0;;) {
            t += -std::log(1.0 - rng.uniform()) * 1e3 / kPacedRate;
            if (t >= pacedMs)
                break;
            st.dueMs.push_back(t);
            st.paced.push_back(draw());
        }
        // Warm the ILP schedule memo: every SMART layer the service
        // can meet (the schedule does not depend on the batch).
        for (const auto &model : st.models)
            st.warm.push_back({accel::makeSmart(), model, 1,
                               accel::SchedMode::Ilp, 0});
        {
            SpanScope warm(run.log, "accel.warmup", 0, span.id());
            accel::clearIlpCache();
            st.warmResults = accel::runBatch(st.warm);
        }
        setupS.push_back(msBetween(t0, Clock::now()) / 1e3);
    }
    const double gapMean = schedGapMean(st.warmResults);

    const auto requestFor = [&](std::size_t point) {
        const auto &pt = st.points[point];
        serve::EvalRequest req;
        req.cfg = accel::makeScheme(kSchemes[pt.config]);
        req.model = st.models[pt.model];
        req.batch = pt.batch;
        return req;
    };

    // Phase A: the burst, repeated on fresh services (fresh result
    // cache, warm schedule memo). A traced run alternates untraced and
    // traced bursts; tracing synthesizes spans after the drain.
    std::vector<double> capacity, tracedCapacity;
    std::vector<Served> firstBurst; //!< Later bursts must repeat it.
    serve::MetricsSnapshot burstTotals;
    double burstCalls = 0;
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(
                               run.args.seconds * (1.0 - kPacedShare)));
    const auto stats0 = TaskScheduler::global().stats();
    for (int k = 0; capacity.size() < 3 ||
                    (run.args.trace && tracedCapacity.size() < 3) ||
                    Clock::now() < deadline;
         ++k) {
        const bool traced = run.args.trace && k % 2 == 1;
        // The burst is built before the clock starts, so it is
        // submitted at once.
        std::vector<serve::EvalRequest> reqs;
        for (auto p : st.burst)
            reqs.push_back(requestFor(p));
        serve::EvalService svc(serviceConfig());
        Clock::time_point t0, t1;
        auto served = drive(
            svc, st.burst, [&](std::size_t i) { return std::move(reqs[i]); },
            nullptr, t0, t1);
        (traced ? tracedCapacity : capacity)
            .push_back(static_cast<double>(served.size()) / (msBetween(t0, t1) / 1e3));
        const auto m = svc.metrics();
        checkBuckets(served, m, run.tally);
        burstTotals.cacheHits += m.cacheHits;
        burstTotals.cacheMisses += m.cacheMisses;
        burstTotals.cacheEvictions += m.cacheEvictions;
        burstTotals.coalesced += m.coalesced;
        burstTotals.waves += m.waves;
        burstTotals.waveItems += m.waveItems;
        for (const auto &s : served)
            if (s.evaluated)
                burstCalls += static_cast<double>(
                    st.models[st.points[s.point].model].layers.size());
        if (traced && tracedCapacity.size() == 1) {
            // Spans of the first traced burst only: the burst repeats.
            const int phase = run.log.record("serve.burst", 0, t0, t1, -1);
            for (std::size_t i = 0; i < served.size(); ++i)
                run.log.record("serve.burst_submit", i + 1, served[i].call,
                               served[i].ret, phase);
        }
        if (firstBurst.empty()) {
            firstBurst = std::move(served);
            continue;
        }
        for (std::size_t i = 0; i < served.size(); ++i)
            run.tally.op(served[i].ok && served[i].digest == firstBurst[i].digest,
                         "burst request " + std::to_string(i) +
                             " differs from the first burst");
    }
    const auto stats1 = TaskScheduler::global().stats();
    const double reps =
        static_cast<double>(capacity.size() + tracedCapacity.size());

    // Phase B: paced Poisson arrivals on a fresh service.
    Clock::time_point b0, b1;
    serve::EvalService pacedSvc(serviceConfig());
    auto paced = drive(
        pacedSvc, st.paced,
        [&](std::size_t i) { return requestFor(st.paced[i]); }, &st.dueMs,
        b0, b1);
    checkBuckets(paced, pacedSvc.metrics(), run.tally);

    // Every response equals a direct runInference of its request.
    std::map<std::size_t, std::uint64_t> expected;
    for (const auto *set : {&firstBurst, &paced})
        for (const auto &s : *set)
            expected[s.point] = 0;
    {
        std::vector<accel::BatchItem> items;
        for (const auto &[p, d] : expected) {
            const auto &pt = st.points[p];
            items.push_back({accel::makeScheme(kSchemes[pt.config]),
                             st.models[pt.model], pt.batch,
                             accel::SchedMode::Ilp, 0});
        }
        const auto res = accel::runBatch(items);
        std::size_t i = 0;
        for (auto &[p, d] : expected)
            d = resultDigest(res[i++]);
    }
    Fold serveDigest;
    const auto checkServed = [&](const std::vector<Served> &set) {
        for (std::size_t i = 0; i < set.size(); ++i) {
            const auto &s = set[i];
            run.tally.op(s.ok && s.digest == expected.at(s.point),
                         "request " + std::to_string(i) + " (point " +
                             std::to_string(s.point) + ") " +
                             (s.ok ? "differs from runInference"
                                   : "was not served"));
            serveDigest.add(s.digest);
        }
    };
    checkServed(firstBurst);
    checkServed(paced);

    char note[160];
    std::snprintf(note, sizeof note,
                  "points_per_s = serve capacity: %zu requests / drain, "
                  "median of %zu bursts",
                  kBurstRequests, capacity.size());
    run.notes.push_back(note);
    std::snprintf(note, sizeof note,
                  "phase B: %zu requests at %.0f req/s over %.1f s",
                  paced.size(), kPacedRate, pacedMs / 1e3);
    run.notes.push_back(note);
    std::printf("digest serve %016" PRIx64 "\n", serveDigest.h);
    std::printf("digest sched_gap_mean %.17g\n", gapMean);

    run.e2e.push_back({"setup_s", median(setupS), "s"});
    run.e2e.push_back({"points_per_s", median(capacity), "1/s"});
    run.e2e.push_back({"sched_gap_mean", gapMean, "ratio"});
    if (!run.args.trace)
        return;

    auto &out = run.layer;
    out.push_back({"trace.overhead_points_per_s",
                   median(capacity) - median(tracedCapacity), "1/s"});
    schedulerMetrics(stats0, stats1, reps, out);
    out.push_back({"systolic.analyze_demand.calls", burstCalls / reps, "count"});
    out.push_back({"accel.warmup.ms",
                   median(run.log.durationsMs("accel.warmup")), "ms"});

    // Phase-B spans, synthesized from the generator's timestamps and
    // each response's queue/service split (trace id = request + 1).
    for (std::size_t i = 0; i < paced.size(); ++i) {
        const auto &s = paced[i];
        if (!s.ok)
            continue;
        const auto at = [&](double ms) {
            return s.call + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double, std::milli>(ms));
        };
        const int req = run.log.record("serve.latency", i + 1, s.due,
                                       at(s.totalMs), -1);
        run.log.record("serve.generator_lag", i + 1, s.due, s.call, req);
        run.log.record("serve.submit", i + 1, s.call, s.ret, req);
        run.log.record("serve.queue_wait", i + 1, s.call, at(s.queueMs), req);
        run.log.record("serve.service", i + 1, at(s.queueMs), at(s.totalMs),
                       req);
    }
    serveLayerMetrics(run.log, burstTotals, reps, out);

    // Fidelity on the full grid: the memo is warm, so the ILP grid
    // costs no solves here.
    auto ilpItems = gridPoints(st.models, accel::SchedMode::Ilp);
    auto greedyItems = gridPoints(st.models, accel::SchedMode::Greedy);
    const Fidelity ilp =
        fidelityOf(ilpItems, accel::runBatch(ilpItems), st.models.size());
    const Fidelity greedy =
        fidelityOf(greedyItems, accel::runBatch(greedyItems), st.models.size());
    reportFidelity(&ilp, greedy, out);

    Fold nodeDigest;
    attribute(st.warm, st.warmResults, accel::SchedMode::Ilp, run.log,
              run.tally, out, nodeDigest);
    std::printf("digest ilp_nodes %016" PRIx64 "\n", nodeDigest.h);
}

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i];
        const std::string v = argv[i + 1];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--seconds")
            a.seconds = std::strtod(v.c_str(), nullptr);
        else if (k == "--trace")
            a.trace = v == "1";
        else if (k == "--trace-out")
            a.traceOut = v;
        else
            return false;
    }
    return (argc % 2 == 1) && a.seconds > 0 &&
           (a.workload == "grid_ilp" || a.workload == "grid_greedy" ||
            a.workload == "serve_zipf");
}

void
printJson(const Run &run)
{
    const auto &metrics = run.args.trace ? run.layer : run.e2e;
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                run.tally.failed == 0 ? "true" : "false", run.tally.attempted,
                run.tally.failed);
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                    metrics[i].unit.c_str());
    std::printf("}}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    const auto start = Clock::now();
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::cerr << "usage: perfbench --workload grid_ilp|grid_greedy|"
                     "serve_zipf --seed N --seconds S --trace 0|1 "
                     "[--trace-out FILE]\n";
        return 2;
    }
    setInformEnabled(false);
    Run run{args, start, SpanLog(args.trace), {}, {}, {}, {}};

    if (args.workload == "serve_zipf") {
        runServe(run);
    } else {
        runGrid(run, args.workload == "grid_ilp" ? accel::SchedMode::Ilp
                                                 : accel::SchedMode::Greedy);
        if (args.trace)
            serveLayerMetrics(run.log, {}, 1.0, run.layer);
    }
    if (args.trace) {
        run.layer.push_back({"cnn.make_model.us",
                             1e3 * median(run.log.durationsMs("cnn.make_model")),
                             "us"});
        run.layer.push_back(
            {"cryomem.array_model.us",
             1e3 * median(run.log.durationsMs("cryomem.array_model")), "us"});
    }

    const double okFrac =
        1.0 - static_cast<double>(run.tally.failed) /
                  static_cast<double>(std::max<std::uint64_t>(1, run.tally.attempted));
    run.e2e.push_back({"ok_frac", okFrac, "fraction"});
    run.e2e.push_back({"peak_rss_mb", peakRssMb(), "MB"});

    if (args.trace && !args.traceOut.empty()) {
        std::ofstream os(args.traceOut);
        run.log.writeChromeJson(os);
        if (!os)
            std::cerr << "cannot write " << args.traceOut << "\n";
    }
    std::printf("workload %s, seed %" PRIu64 ", width %d, %.1f s measured\n",
                args.workload.c_str(), args.seed, TaskScheduler::global().size(),
                args.seconds);
    for (const auto &n : run.notes)
        std::printf("%s\n", n.c_str());
    printJson(run);
    return run.tally.failed == 0 ? 0 : 1;
}
