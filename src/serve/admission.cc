#include "serve/admission.hh"

#include <algorithm>

#include "accel/hash.hh"
#include "serve/service.hh"

namespace smart::serve
{

namespace
{

/** The request's own budget when set (< 0 opts out), else t's. */
double
qualityBudgetMs(const TenantPolicy &t, double requestQualityMs)
{
    if (requestQualityMs != 0.0)
        return std::max(0.0, requestQualityMs);
    return t.maxQualityMs;
}

/**
 * @p factor tightened by estimator confidence: a wide interval
 * around @p key's service estimate (CostEstimator::estimateInterval)
 * shrinks it by up to half, buying headroom under a volatile estimate;
 * a tight, cold or constant one leaves it as is.
 */
double
tightenedFactor(const CostEstimator &est, const std::string &key,
                double factor)
{
    if (factor <= 0.0)
        return factor;
    const auto [lo, hi] = est.estimateInterval(key);
    const double halfWidth = (hi - lo) / 2.0;
    const double meanMs = est.estimateServiceMs(key);
    if (halfWidth <= 0.0 || meanMs <= 0.0)
        return factor;
    // Relative uncertainty, capped at 1: a 2-sigma half-width as
    // large as the mean itself (or larger) halves the factor.
    return factor / (1.0 + std::min(1.0, halfWidth / meanMs));
}

} // namespace

TenantPolicy
tenantPolicy(const ServiceConfig &cfg, const std::string &tag)
{
    TenantPolicy v;
    v.p95Ms = std::max(0.0, cfg.sloP95Ms);
    v.factor = std::max(0.0, cfg.sloAdmissionFactor);
    v.maxQualityMs = std::max(0.0, cfg.maxQualityMs);
    v.degrade = cfg.degradePolicy;
    auto it = cfg.tenantSlo.find(tag);
    if (it == cfg.tenantSlo.end())
        return v;
    const TenantSlo &t = it->second;
    if (t.p95Ms != 0.0) // > 0 overrides; < 0 opts out entirely
        v.p95Ms = std::max(0.0, t.p95Ms);
    if (t.admissionFactor >= 0.0) // < 0 inherits; 0 disables
        v.factor = t.admissionFactor;
    if (t.maxQualityMs != 0.0) // > 0 overrides; < 0 opts out
        v.maxQualityMs = std::max(0.0, t.maxQualityMs);
    v.defaultDeadlineMs = t.defaultDeadlineMs;
    return v;
}

bool
estimatorGated(const TenantPolicy &t, double deadlineMs,
               double requestQualityMs)
{
    return (t.factor > 0.0 && (t.p95Ms > 0.0 || deadlineMs > 0.0)) ||
           (t.degrade == DegradePolicy::Auto &&
            qualityBudgetMs(t, requestQualityMs) > 0.0);
}

const char *
invalidReason(const EvalRequest &req)
{
    if (req.batch < 1)
        return "batch must be >= 1";
    if (!req.cfg.pe.valid())
        return "bad PE array dims";
    if (const char *why = req.cfg.invalidReason())
        return why;
    for (const auto &layer : req.model.layers)
        if (const char *why = layer.invalidReason())
            return why;
    return nullptr;
}

bool
doomed(Path path, const CostEstimator &est, const std::string &shapeKey,
       double deadlineMs, std::size_t queueDepth, const TenantPolicy &t)
{
    const bool hasDeadline = deadlineMs > 0.0;
    if (t.factor <= 0.0 || (!hasDeadline && t.p95Ms <= 0.0))
        return false; // disabled, or no budget to miss
    const bool greedy = path == Path::Greedy;
    const std::string greedyKey =
        greedy ? shapeKey + accel::kGreedyKeySuffix : std::string();
    const std::string &key = greedy ? greedyKey : shapeKey;
    // Each path is tightened by its own interval: the degraded path's
    // volatility is its own.
    const double factor = tightenedFactor(est, key, t.factor);
    const double waitMs = est.estimateQueueWaitMs(queueDepth);
    if (hasDeadline && waitMs > factor * deadlineMs)
        return true; // queue deadlines bound waiting, not service
    if (t.p95Ms <= 0.0)
        return false;
    const double serviceMs =
        greedy ? est.shapeEstimateMs(key) : est.estimateServiceMs(key);
    return waitMs + serviceMs > factor * t.p95Ms;
}

Decision
decide(const RequestView &r, const EstimatorView &e, const TenantPolicy &t)
{
    Decision d;
    d.deadlineMs = r.deadlineMs;
    if (invalidReason(r.req)) {
        d.admission = Admission::RejectedInvalid;
        return d;
    }
    if (d.deadlineMs <= 0.0 && t.defaultDeadlineMs != 0.0)
        d.deadlineMs = t.defaultDeadlineMs > 0.0
                           ? t.defaultDeadlineMs
                           : e.est.suggestDeadlineMs(
                                 r.shapeKey, e.queueDepth, t.factor);
    // Decided before the doom check, so that check judges the path
    // the request will actually take.
    const double qualityMs = qualityBudgetMs(t, r.req.maxQualityMs);
    if (r.alreadyDegraded || t.degrade == DegradePolicy::Force ||
        (t.degrade == DegradePolicy::Auto && qualityMs > 0.0 &&
         e.est.estimateServiceMs(r.shapeKey) > qualityMs))
        d.path = Path::Greedy;
    if (doomed(d.path, e.est, r.shapeKey, d.deadlineMs, e.queueDepth, t)) {
        // Anytime rescue: a request the ILP path cannot serve in time
        // takes the greedy path when that one is predicted to make it.
        if (d.path == Path::Greedy || t.degrade != DegradePolicy::Auto ||
            doomed(Path::Greedy, e.est, r.shapeKey, d.deadlineMs,
                   e.queueDepth, t)) {
            d.admission = Admission::RejectedHopeless;
            return d;
        }
        d.path = Path::Greedy;
    }
    d.admission = d.path == Path::Greedy ? Admission::ServedDegraded
                                         : Admission::Admitted;
    return d;
}

} // namespace smart::serve
