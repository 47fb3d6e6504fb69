/**
 * @file
 * Request/response types of the async evaluation service: what a
 * client submits (configuration, model, batch, priority, deadline),
 * what the admission controller decides, and what the request's future
 * eventually carries. See serve/service.hh for the service itself.
 */

#ifndef SMART_SERVE_REQUEST_HH
#define SMART_SERVE_REQUEST_HH

#include <cstdint>
#include <future>
#include <string>

#include "accel/config.hh"
#include "accel/perf.hh"
#include "cnn/models.hh"

namespace smart::serve
{

/** Scheduling priority; higher values dispatch first. */
enum class Priority
{
    Low = 0,
    Normal = 1,
    High = 2
};

/** One client request: an evaluation point plus scheduling intent. */
struct EvalRequest
{
    accel::AcceleratorConfig cfg;
    cnn::CnnModel model;
    int batch = 1;
    Priority priority = Priority::Normal;
    /**
     * Queue-time budget in milliseconds: a request still queued this
     * long after submission is expired (its future reports Expired)
     * instead of dispatched. 0 means no deadline. A request already
     * handed to an evaluation wave always runs to completion.
     */
    double deadlineMs = 0.0;
    /**
     * Quality budget in milliseconds: if the estimator predicts the
     * ILP-optimal path alone costs more than this, the request is
     * eligible for degraded (greedy-scheduled) serving under
     * ServiceConfig::degradePolicy Auto. 0 inherits the tenant's
     * TenantSlo::maxQualityMs (or the global ServiceConfig value);
     * negative opts out of budget-driven degradation entirely.
     */
    double maxQualityMs = 0.0;
    /**
     * Caller label, echoed in the response. Doubles as the tenant
     * identity for fair-share admission (QueueConfig::maxPerTenant)
     * and shed-victim selection: requests sharing a tag share one
     * tenant budget.
     */
    std::string tag;
};

/** Terminal state of an admitted request. */
enum class ResponseStatus
{
    Ok,      //!< Evaluated (or served from cache); result is valid.
    Shed,    //!< Evicted while queued to admit a higher-priority request.
    Expired  //!< Deadline passed before dispatch.
};

/** What an admitted request's future resolves to. */
struct EvalResponse
{
    ResponseStatus status = ResponseStatus::Ok;
    accel::InferenceResult result; //!< Valid only when status == Ok.
    bool cacheHit = false;   //!< Served from the result cache.
    bool coalesced = false;  //!< Shared another request's evaluation.
    double queueMs = 0.0;   //!< Submission -> wave dispatch.
    /** Wave dispatch -> completion (near-zero on a cache hit). */
    double serviceMs = 0.0;
    double totalMs = 0.0;    //!< Submission -> completion.
    /**
     * requestDigest of the canonical key; 0 when the request never
     * reached dispatch (shed / expired), since the key is only
     * computed on the dispatch path.
     */
    std::uint64_t digest = 0;
    std::string tag; //!< Echo of EvalRequest::tag.
    /**
     * Graceful degradation: true when this request was served through
     * the greedy (anytime) scheduler instead of the ILP. quality and
     * gapBound mirror InferenceResult::schedQuality/schedGapBound,
     * with CacheHit substituted when the result came from a cache
     * (the underlying schedule quality is inside `result`).
     */
    bool degraded = false;
    compiler::Quality quality = compiler::Quality::Optimal;
    double gapBound = 0.0;
    /**
     * Nonzero when this request was sampled by the tracer
     * (ServiceConfig::traceSampleEvery): the TraceRecorder trace id
     * its spans carry, so callers can correlate a response with its
     * slices in the Chrome trace export and with flight-recorder
     * incidents. 0 = not sampled (or tracing disarmed).
     */
    std::uint64_t traceId = 0;
};

/** Admission decision, reported synchronously by submit(). */
enum class Admission
{
    Admitted,
    RejectedFull,   //!< Queue at capacity under the Reject policy.
    RejectedQuota,  //!< Tenant over its per-tenant depth quota.
    RejectedClosed, //!< Service closed (draining or destroyed).
    /**
     * SLO-aware admission: the cost estimator predicts this request
     * cannot meet its deadline or the configured p95 SLO even if
     * admitted right now (predicted queue wait + service time already
     * over budget), so it is refused up front instead of burning a
     * queue slot and failing slowly. See ServiceConfig::
     * sloAdmissionFactor and serve/estimator.hh.
     */
    RejectedHopeless,
    /**
     * Graceful degradation: admitted, but routed through the greedy
     * (anytime) scheduler because the ILP path was predicted to blow
     * the deadline or quality budget — the request that would have
     * been RejectedHopeless under degradePolicy Off. Counts as
     * admitted(); the future resolves normally with
     * EvalResponse::degraded set.
     */
    ServedDegraded,
    /**
     * The request cannot be evaluated at all (batch < 1, a malformed
     * layer, an empty PE array, a zero-bank or zero-rate config):
     * refused before it reaches a model that would assert or divide
     * by zero on it. See serve/admission.hh invalidReason.
     */
    RejectedInvalid
};

/** Admission name for logs and tables. */
inline const char *
admissionName(Admission a)
{
    switch (a) {
      case Admission::Admitted:
        return "admitted";
      case Admission::RejectedFull:
        return "rejected-full";
      case Admission::RejectedQuota:
        return "rejected-quota";
      case Admission::RejectedClosed:
        return "rejected-closed";
      case Admission::RejectedHopeless:
        return "rejected-hopeless";
      case Admission::ServedDegraded:
        return "served-degraded";
      case Admission::RejectedInvalid:
        return "rejected-invalid";
    }
    return "?";
}

/**
 * submit()'s synchronous result. Rejections are always reported here
 * (never via a dangling future): response is valid only when admitted.
 */
struct Submission
{
    Admission admission = Admission::Admitted;
    std::future<EvalResponse> response;
    /**
     * Estimator-driven deadline assignment: on RejectedHopeless, the
     * deadline (ms) the estimator predicts this request COULD meet if
     * resubmitted — predicted queue wait + service time, scaled by the
     * tenant's admission-factor headroom. A client that resubmits with
     * `deadlineMs = suggestedDeadlineMs` passes the wait-based
     * deadline gate by construction (under unchanged estimates), so
     * it can retry purposefully instead of blind-retrying; the p95
     * SLO gate still applies, so a resubmit into a still-hopeless
     * queue is refused again (with a fresh, larger suggestion). The
     * budget covers predicted queue drain + service, not the
     * service's elective batching linger — a retry into an idle
     * long-linger service should arrive with wave-mates (or the
     * operator keeps lingers shorter than the budgets it suggests).
     * 0 on every non-hopeless outcome, and when the estimator is
     * cold.
     */
    double suggestedDeadlineMs = 0.0;

    bool admitted() const
    {
        return admission == Admission::Admitted ||
               admission == Admission::ServedDegraded;
    }
};

} // namespace smart::serve

#endif // SMART_SERVE_REQUEST_HH
