/**
 * @file
 * Table tests for the serving tier's admission decision
 * (serve/admission.hh): decide() enumerated over degrade policy,
 * already-degraded, ILP/greedy path doom, quality budget, budget kind
 * (p95, deadline, neither), a zero admission factor and a cold
 * estimator; the tenant-SLO tri-state resolution; the default-deadline
 * rule; and RejectedInvalid, both pure and on a live EvalService. The
 * pure tables drive a CostEstimator through recordService/recordWave
 * with no service thread.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "accel/hash.hh"
#include "common/logging.hh"
#include "serve/admission.hh"
#include "serve/service.hh"

namespace
{

using namespace smart;
using serve::Admission;
using serve::DegradePolicy;

const bool force_threads = []() {
    setenv("SMART_THREADS", "4", 0);
    return true;
}();

constexpr Admission A = Admission::Admitted;
constexpr Admission D = Admission::ServedDegraded;
constexpr Admission H = Admission::RejectedHopeless;

const std::string kShape = "shape";

serve::EvalRequest
smallRequest()
{
    serve::EvalRequest r;
    r.cfg = accel::makeSmart();
    r.model.name = "tiny";
    r.model.layers.push_back(
        systolic::ConvLayer::conv("c1", 8, 8, 3, 4, 3));
    r.batch = 1;
    return r;
}

/** Two equal samples: a tracked key with a zero-width interval, so
 *  tightenedFactor leaves the factor untouched. */
void
seed(serve::CostEstimator &est, const std::string &key, double ms)
{
    est.recordService(key, ms);
    est.recordService(key, ms);
}

serve::Decision
run(const serve::CostEstimator &est, const serve::TenantPolicy &t,
    const serve::EvalRequest &req, bool alreadyDegraded,
    double deadlineMs = 0.0, std::size_t depth = 0)
{
    return serve::decide({req, kShape, deadlineMs, alreadyDegraded},
                         {est, depth}, t);
}

const char *
policyName(DegradePolicy p)
{
    return p == DegradePolicy::Off
               ? "off"
               : (p == DegradePolicy::Auto ? "auto" : "force");
}

enum class Quality
{
    None,  //!< No quality budget.
    Under, //!< The ILP estimate fits the budget.
    Over   //!< The ILP estimate exceeds the budget.
};

const char *
qualityName(Quality q)
{
    return q == Quality::None ? "none"
                              : (q == Quality::Under ? "under" : "over");
}

// ------------------------------------------------------------------
// The p95 table: every policy x degraded x quality x path-doom cell
// ------------------------------------------------------------------

// Columns: {ILP ok / greedy ok, ILP ok / greedy doomed,
//           ILP doomed / greedy ok, ILP doomed / greedy doomed}.
struct Row
{
    DegradePolicy policy;
    bool alreadyDegraded;
    Quality quality;
    Admission verdict[4];
};

const Row kP95Table[] = {
    // Off never picks the greedy path itself and never rescues.
    {DegradePolicy::Off, false, Quality::None, {A, A, H, H}},
    {DegradePolicy::Off, false, Quality::Under, {A, A, H, H}},
    {DegradePolicy::Off, false, Quality::Over, {A, A, H, H}},
    {DegradePolicy::Off, true, Quality::None, {D, H, D, H}},
    {DegradePolicy::Off, true, Quality::Under, {D, H, D, H}},
    {DegradePolicy::Off, true, Quality::Over, {D, H, D, H}},
    // Auto rescues a doomed ILP path onto a viable greedy one...
    {DegradePolicy::Auto, false, Quality::None, {A, A, D, H}},
    {DegradePolicy::Auto, false, Quality::Under, {A, A, D, H}},
    // ...and degrades an over-budget request, judged on the greedy
    // path: a doomed greedy path rejects even when the ILP path is
    // viable (the second column — see OverBudgetRejudgeWithDoomedGreedy
    // PathIsRejected below).
    {DegradePolicy::Auto, false, Quality::Over, {D, H, D, H}},
    // An already-degraded request is confirmed or refused, never
    // degraded twice.
    {DegradePolicy::Auto, true, Quality::None, {D, H, D, H}},
    {DegradePolicy::Auto, true, Quality::Under, {D, H, D, H}},
    {DegradePolicy::Auto, true, Quality::Over, {D, H, D, H}},
    // Force always takes the greedy path.
    {DegradePolicy::Force, false, Quality::None, {D, H, D, H}},
    {DegradePolicy::Force, false, Quality::Under, {D, H, D, H}},
    {DegradePolicy::Force, false, Quality::Over, {D, H, D, H}},
    {DegradePolicy::Force, true, Quality::None, {D, H, D, H}},
    {DegradePolicy::Force, true, Quality::Under, {D, H, D, H}},
    {DegradePolicy::Force, true, Quality::Over, {D, H, D, H}},
};

TEST(Admission, P95TableCoversEveryPolicyPathAndQualityCell)
{
    // p95 = 100 ms at factor 1 on an empty queue (no wait term): a
    // path is doomed exactly when its service estimate exceeds 100.
    serve::TenantPolicy t;
    t.p95Ms = 100.0;
    t.factor = 1.0;
    const double ilpMs[2] = {50.0, 200.0};  // viable, doomed
    const double greedyMs[2] = {10.0, 500.0};
    for (const Row &row : kP95Table) {
        for (int cell = 0; cell < 4; ++cell) {
            const bool ilpDoomed = cell >= 2;
            const bool greedyDoomed = cell % 2 == 1;
            serve::CostEstimator est;
            seed(est, kShape, ilpMs[ilpDoomed]);
            seed(est, kShape + "|greedy", greedyMs[greedyDoomed]);
            serve::TenantPolicy p = t;
            p.degrade = row.policy;
            auto req = smallRequest();
            // Both ILP estimates exceed 20 ms and fit within 1000 ms.
            req.maxQualityMs = row.quality == Quality::None
                                   ? 0.0
                                   : (row.quality == Quality::Over ? 20.0
                                                                   : 1000.0);
            SCOPED_TRACE(std::string(policyName(row.policy)) +
                         (row.alreadyDegraded ? " degraded" : "") +
                         " quality " + qualityName(row.quality) +
                         " ilp " + (ilpDoomed ? "doomed" : "ok") +
                         " greedy " + (greedyDoomed ? "doomed" : "ok"));
            EXPECT_EQ(serve::doomed(serve::Path::Ilp, est, kShape, 0.0, 0,
                                    p),
                      ilpDoomed);
            EXPECT_EQ(serve::doomed(serve::Path::Greedy, est, kShape, 0.0,
                                    0, p),
                      greedyDoomed);
            const auto d = run(est, p, req, row.alreadyDegraded);
            EXPECT_EQ(admissionName(d.admission),
                      std::string(admissionName(row.verdict[cell])));
            if (d.admission != H) {
                EXPECT_EQ(d.path == serve::Path::Greedy, d.admission == D);
            }
        }
    }
}

// The one cell in which the Block re-judge used to disagree with
// submit(): not degraded at submit, ILP path still viable at wake,
// ILP estimate now over the quality budget, greedy path doomed. The
// re-judge is decide() with the remaining budget, so it refuses the
// request instead of admitting it onto a path predicted to miss.
TEST(Admission, OverBudgetRejudgeWithDoomedGreedyPathIsRejected)
{
    serve::CostEstimator est;
    seed(est, kShape, 200.0);              // ILP: viable under 5000
    seed(est, kShape + "|greedy", 100e3);  // greedy: doomed
    serve::TenantPolicy t;
    t.p95Ms = 5000.0;
    t.factor = 1.0;
    t.degrade = DegradePolicy::Auto;
    t.maxQualityMs = 100.0; // the ILP estimate is over it
    const auto d = run(est, t, smallRequest(), /*alreadyDegraded=*/false);
    EXPECT_EQ(d.admission, Admission::RejectedHopeless);
    EXPECT_EQ(d.path, serve::Path::Greedy);
}

// ------------------------------------------------------------------
// Deadline budgets, no budget, factor 0, cold estimator
// ------------------------------------------------------------------

TEST(Admission, DeadlineDoomIsWaitBoundAndRejectsOnEitherPath)
{
    // 10 queued at 100 ms per item: a 1000 ms predicted wait.
    serve::CostEstimator est;
    seed(est, kShape, 1.0);
    seed(est, kShape + "|greedy", 1.0);
    est.recordWave(100.0, 1);
    serve::TenantPolicy t;
    t.factor = 1.0;
    for (DegradePolicy policy :
         {DegradePolicy::Off, DegradePolicy::Auto, DegradePolicy::Force}) {
        for (bool degraded : {false, true}) {
            SCOPED_TRACE(std::string(policyName(policy)) +
                         (degraded ? " degraded" : ""));
            t.degrade = policy;
            const bool greedy = degraded || policy == DegradePolicy::Force;
            const auto missed =
                run(est, t, smallRequest(), degraded, 500.0, 10);
            EXPECT_EQ(missed.admission, H);
            const auto met =
                run(est, t, smallRequest(), degraded, 5000.0, 10);
            EXPECT_EQ(met.admission, greedy ? D : A);
            EXPECT_EQ(met.deadlineMs, 5000.0);
        }
    }
}

TEST(Admission, NoBudgetZeroFactorAndColdEstimatorNeverReject)
{
    serve::CostEstimator hot;
    seed(hot, kShape, 1e6);
    seed(hot, kShape + "|greedy", 1e6);
    hot.recordWave(1e6, 1);
    serve::CostEstimator cold;

    serve::TenantPolicy neither; // no p95, no deadline
    neither.factor = 1.0;
    serve::TenantPolicy zero; // a budget, but factor 0 disables
    zero.p95Ms = 1.0;
    serve::TenantPolicy tight; // a budget a warm estimator would miss
    tight.p95Ms = 1.0;
    tight.factor = 1.0;
    tight.maxQualityMs = 1.0;

    struct Case
    {
        const char *name;
        const serve::CostEstimator &est;
        serve::TenantPolicy t;
        double deadlineMs;
    };
    const Case cases[] = {
        {"neither", hot, neither, 0.0},
        {"factor 0, p95", hot, zero, 0.0},
        {"factor 0, deadline", hot, zero, 1.0},
        {"cold", cold, tight, 1.0},
    };
    for (const Case &c : cases) {
        for (DegradePolicy policy : {DegradePolicy::Off,
                                     DegradePolicy::Auto,
                                     DegradePolicy::Force}) {
            SCOPED_TRACE(std::string(c.name) + " " +
                         policyName(policy));
            serve::TenantPolicy t = c.t;
            t.degrade = policy;
            const bool quality = c.t.maxQualityMs > 0.0 &&
                                 policy == DegradePolicy::Auto &&
                                 &c.est == &hot;
            const bool greedy = policy == DegradePolicy::Force || quality;
            const auto d =
                run(c.est, t, smallRequest(), false, c.deadlineMs, 100);
            EXPECT_EQ(d.admission, greedy ? D : A);
        }
    }
}

// ------------------------------------------------------------------
// Rule 2: the default deadline
// ------------------------------------------------------------------

TEST(Admission, DefaultDeadlineTriStateAndClientDeadlineWins)
{
    serve::CostEstimator est;
    seed(est, kShape, 40.0);
    est.recordWave(10.0, 1);
    serve::TenantPolicy t;
    t.factor = 0.5;

    t.defaultDeadlineMs = 0.0; // none
    EXPECT_EQ(run(est, t, smallRequest(), false, 0.0, 2).deadlineMs, 0.0);
    t.defaultDeadlineMs = 250.0; // fixed
    EXPECT_EQ(run(est, t, smallRequest(), false, 0.0, 2).deadlineMs,
              250.0);
    t.defaultDeadlineMs = -1.0; // (2 * 10 + 40) / 0.5
    EXPECT_DOUBLE_EQ(
        run(est, t, smallRequest(), false, 0.0, 2).deadlineMs, 120.0);
    EXPECT_EQ(run(est, t, smallRequest(), false, 75.0, 2).deadlineMs,
              75.0);

    // Estimator-derived while cold: no evidence, no deadline.
    serve::CostEstimator cold;
    EXPECT_EQ(run(cold, t, smallRequest(), false, 0.0, 2).deadlineMs, 0.0);
}

// ------------------------------------------------------------------
// Tenant SLO resolution: each TenantSlo field > 0, 0 and < 0
// ------------------------------------------------------------------

TEST(Admission, TenantSloTriStateResolution)
{
    serve::ServiceConfig cfg;
    cfg.sloP95Ms = 300.0;
    cfg.sloAdmissionFactor = 0.8;
    cfg.maxQualityMs = 40.0;
    cfg.degradePolicy = DegradePolicy::Auto;

    struct Case
    {
        double set;     //!< The tenant's own value.
        double p95;     //!< Resolved p95Ms.
        double factor;  //!< Resolved factor.
        double quality; //!< Resolved maxQualityMs.
    };
    const Case cases[] = {
        {5.0, 5.0, 5.0, 5.0},     // > 0 overrides every field
        {0.0, 300.0, 0.0, 40.0},  // 0 inherits p95/quality, disables factor
        {-1.0, 0.0, 0.8, 0.0},    // < 0 opts out of p95/quality, inherits factor
    };
    for (const Case &c : cases) {
        SCOPED_TRACE("tenant value " + std::to_string(c.set));
        serve::TenantSlo slo;
        slo.p95Ms = c.set;
        slo.admissionFactor = c.set;
        slo.maxQualityMs = c.set;
        slo.defaultDeadlineMs = -c.set; // passed through unresolved
        cfg.tenantSlo["t"] = slo;
        const auto p = serve::tenantPolicy(cfg, "t");
        EXPECT_EQ(p.p95Ms, c.p95);
        EXPECT_EQ(p.factor, c.factor);
        EXPECT_EQ(p.maxQualityMs, c.quality);
        EXPECT_EQ(p.defaultDeadlineMs, -c.set);
        EXPECT_EQ(p.degrade, DegradePolicy::Auto);
    }

    // A tag without an entry gets the global knobs and no default
    // deadline.
    const auto g = serve::tenantPolicy(cfg, "other");
    EXPECT_EQ(g.p95Ms, 300.0);
    EXPECT_EQ(g.factor, 0.8);
    EXPECT_EQ(g.maxQualityMs, 40.0);
    EXPECT_EQ(g.defaultDeadlineMs, 0.0);
}

TEST(Admission, RequestQualityBudgetOverridesTheTenantBudget)
{
    serve::CostEstimator est;
    seed(est, kShape, 50.0);
    serve::TenantPolicy t;
    t.degrade = DegradePolicy::Auto;
    t.maxQualityMs = 10.0; // the tenant budget is blown
    auto req = smallRequest();
    req.maxQualityMs = 0.0; // inherits
    EXPECT_EQ(run(est, t, req, false).admission, D);
    req.maxQualityMs = 100.0; // own budget, met
    EXPECT_EQ(run(est, t, req, false).admission, A);
    req.maxQualityMs = -1.0; // opts out
    EXPECT_EQ(run(est, t, req, false).admission, A);
}

// ------------------------------------------------------------------
// Rule 1: malformed requests
// ------------------------------------------------------------------

/** The malformed requests of the RejectedInvalid tests. */
std::vector<std::pair<std::string, serve::EvalRequest>>
malformedRequests()
{
    std::vector<std::pair<std::string, serve::EvalRequest>> out;
    auto add = [&](const std::string &name, auto mutate) {
        serve::EvalRequest r = smallRequest();
        mutate(r);
        out.emplace_back(name, std::move(r));
    };
    add("batch 0", [](serve::EvalRequest &r) { r.batch = 0; });
    add("batch -3", [](serve::EvalRequest &r) { r.batch = -3; });
    add("stride 0",
        [](serve::EvalRequest &r) { r.model.layers[0].stride = 0; });
    add("kernel over padded ifmap", [](serve::EvalRequest &r) {
        auto &l = r.model.layers[0];
        l.pad = 0;
        l.kernelH = l.kernelW = l.ifmapH + 1;
    });
    add("pe.rows 0", [](serve::EvalRequest &r) { r.cfg.pe.rows = 0; });
    // A default-constructed config has zero-bank SPMs, which runLayer
    // divides by (the process used to die of SIGFPE), for both the
    // SMART and SHIFT paths.
    add("default config", [](serve::EvalRequest &r) { r.cfg = {}; });
    add("default SHIFT config", [](serve::EvalRequest &r) {
        r.cfg = {};
        r.cfg.scheme = accel::Scheme::SuperNpu;
    });
    add("output SPM 0 banks",
        [](serve::EvalRequest &r) { r.cfg.outputSpm.banks = 0; });
    add("RANDOM array 0 banks",
        [](serve::EvalRequest &r) { r.cfg.randomArray.banks = 0; });
    add("clock 0", [](serve::EvalRequest &r) { r.cfg.clockGhz = {}; });
    add("DRAM bandwidth 0",
        [](serve::EvalRequest &r) { r.cfg.dramBandwidthGBs = 0.0; });
    add("prefetchIterations 0",
        [](serve::EvalRequest &r) { r.cfg.prefetchIterations = 0; });
    return out;
}

TEST(Admission, EverySchemeConfigIsValid)
{
    // A RANDOM array without capacity needs no banks: the TPU and
    // SHIFT schemes have none.
    for (auto s : {accel::Scheme::Tpu, accel::Scheme::SuperNpu,
                   accel::Scheme::Sram, accel::Scheme::Heter,
                   accel::Scheme::Pipe, accel::Scheme::Smart}) {
        SCOPED_TRACE(accel::schemeName(s));
        serve::EvalRequest r = smallRequest();
        r.cfg = accel::makeScheme(s);
        EXPECT_EQ(r.cfg.invalidReason(), nullptr);
        EXPECT_EQ(serve::invalidReason(r), nullptr);
    }
}

TEST(Admission, InvalidRequestIsTheFirstRule)
{
    // Even a Force policy on a doomed path reports the request as
    // invalid, not degraded or hopeless.
    serve::CostEstimator est;
    seed(est, kShape, 1e6);
    serve::TenantPolicy t;
    t.p95Ms = 1.0;
    t.factor = 1.0;
    t.degrade = DegradePolicy::Force;
    EXPECT_EQ(serve::invalidReason(smallRequest()), nullptr);
    for (const auto &[name, req] : malformedRequests()) {
        SCOPED_TRACE(name);
        EXPECT_NE(serve::invalidReason(req), nullptr);
        EXPECT_EQ(run(est, t, req, false).admission,
                  Admission::RejectedInvalid);
    }
    EXPECT_STREQ(admissionName(Admission::RejectedInvalid),
                 "rejected-invalid");
}

TEST(Admission, LiveServiceRefusesMalformedRequestsAndKeepsServing)
{
    setInformEnabled(false);
    serve::EvalService svc;
    const auto bad = malformedRequests();
    for (const auto &[name, req] : bad) {
        SCOPED_TRACE(name);
        auto sub = svc.submit(req);
        EXPECT_EQ(sub.admission, Admission::RejectedInvalid);
        EXPECT_FALSE(sub.admitted());
        EXPECT_FALSE(sub.response.valid());
    }
    auto ok = svc.submit(smallRequest());
    ASSERT_EQ(ok.admission, Admission::Admitted);
    EXPECT_EQ(ok.response.get().status, serve::ResponseStatus::Ok);
    svc.drain();
    const auto m = svc.metrics();
    EXPECT_EQ(m.rejected, bad.size());
    EXPECT_EQ(m.rejectedHopeless, 0u);
    EXPECT_EQ(m.submitted, m.admitted + m.rejected);
}

// ------------------------------------------------------------------
// The changed re-judge cell on a live Block-policy service
// ------------------------------------------------------------------

TEST(Admission, BlockedRequestOverBudgetWithDoomedGreedyPathIsRefused)
{
    setInformEnabled(false);
    auto net = cnn::convLayersOnly(cnn::makeMobileNet());
    const std::string shape = accel::requestShapeKey(net, 1);

    serve::ServiceConfig cfg;
    cfg.degradePolicy = DegradePolicy::Auto;
    cfg.sloP95Ms = 5000.0;
    cfg.maxQualityMs = 100.0;
    cfg.queue.maxDepth = 1;
    cfg.queue.policy = serve::AdmissionPolicy::Block;
    cfg.linger = std::chrono::milliseconds(400); // pins the filler
    serve::EvalService svc(cfg);

    serve::EvalRequest filler;
    filler.cfg = accel::makeSmart();
    filler.model = net;
    filler.batch = 4;
    auto first = svc.submit(filler);
    ASSERT_EQ(first.admission, Admission::Admitted);

    // The probe passes at submit on a cold estimator (ILP path, not
    // over budget), then blocks. While it sleeps the ILP estimate
    // moves over the quality budget but stays inside the p95 SLO, and
    // the greedy path turns hopeless: at wake decide() picks the
    // greedy path, finds it doomed, and refuses the request.
    std::thread mover([&svc, &shape]() {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        seed(svc.costEstimator(), shape, 200.0);
        seed(svc.costEstimator(), shape + "|greedy", 100e3);
    });
    serve::EvalRequest probe;
    probe.cfg = accel::makeSmart();
    probe.model = net;
    probe.batch = 1;
    auto sub = svc.submit(probe);
    mover.join();
    EXPECT_EQ(sub.admission, Admission::RejectedHopeless);
    EXPECT_FALSE(sub.response.valid());
    EXPECT_EQ(first.response.get().status, serve::ResponseStatus::Ok);
    const auto m = svc.metrics();
    EXPECT_EQ(m.servedDegraded, 0u);
    EXPECT_EQ(m.rejectedHopeless, 1u);
}

} // namespace
