/**
 * @file
 * The serving tier's admission decision as one pure function. Given a
 * request, the cost estimator's current view and the submitting
 * tenant's resolved policy, decide() says whether the request is
 * admitted on the ILP path, admitted degraded onto the greedy path,
 * or turned away. EvalService::submit() calls it once per submission;
 * under the Block queue policy a submitter that actually blocked is
 * re-judged by the same decide() against the budget left after the
 * wait. Queue capacity and per-tenant quota are not decided here: they
 * are judged under the queue lock (RequestQueue::push).
 *
 * Rule order, after the caller resolves the tenant's SLO
 * (tenantPolicy); the first rule that settles the verdict wins:
 *
 *  1. invalid request (batch < 1, a malformed layer, an empty PE
 *     array) → RejectedInvalid, before any model code can assert;
 *  2. default deadline: a request without one inherits its tenant's
 *     (TenantSlo::defaultDeadlineMs, fixed or estimator-derived);
 *  3. path: greedy when already degraded, under Force, or under Auto
 *     when the ILP estimate exceeds the quality budget; else ILP;
 *  4. doomed on the chosen path → RejectedHopeless, unless
 *  5. Auto rescue: a doomed ILP path whose greedy twin is not doomed
 *     is served degraded instead.
 *
 * Anything left is Admitted (ILP path) or ServedDegraded (greedy).
 */

#ifndef SMART_SERVE_ADMISSION_HH
#define SMART_SERVE_ADMISSION_HH

#include <cstddef>
#include <string>

#include "serve/estimator.hh"
#include "serve/request.hh"

namespace smart::serve
{

struct ServiceConfig;

/**
 * One tenant's SLO policy (ServiceConfig::tenantSlo, keyed on the
 * request tag). An entry overrides only what it sets; every other
 * field falls back to the global knob (see tenantPolicy).
 */
struct TenantSlo
{
    /**
     * p95 end-to-end latency target (ms) for admission and adaptive
     * wave sizing: > 0 overrides the global sloP95Ms, 0 inherits it,
     * < 0 opts the tenant out of any p95 SLO.
     */
    double p95Ms = 0.0;
    /** Admission headroom: >= 0 overrides sloAdmissionFactor (0
     *  disables hopeless rejection for this tenant), < 0 inherits. */
    double admissionFactor = -1.0;
    /**
     * Deadline for requests submitted without one: 0 none, > 0 a fixed
     * queue-time budget (ms), < 0 derived from the estimator at submit
     * by the Submission::suggestedDeadlineMs formula, so requests
     * expire promptly once the queue outgrows what they can survive
     * (none while the estimator is cold).
     */
    double defaultDeadlineMs = 0.0;
    /**
     * Quality budget (ms) for requests without their own
     * EvalRequest::maxQualityMs: under degradePolicy Auto a request
     * whose predicted ILP service time exceeds it is served greedy.
     * > 0 overrides the global maxQualityMs, 0 inherits, < 0 opts out.
     */
    double maxQualityMs = 0.0;
};

/**
 * When the service may serve a request through the greedy (anytime)
 * scheduler instead of the ILP. See ServiceConfig::degradePolicy.
 */
enum class DegradePolicy
{
    Off,  //!< Never degrade; hopeless requests are rejected.
    /** Serve greedy a request whose ILP path is hopeless or over its
     *  quality budget, when the greedy path is predicted to make it. */
    Auto,
    Force //!< Every request is served greedy (load-shedding mode).
};

/** A tenant's admission policy with every global fallback resolved. */
struct TenantPolicy
{
    double p95Ms = 0.0;  //!< 0 = no p95 SLO.
    double factor = 0.0; //!< Admission headroom; 0 = never hopeless.
    /** TenantSlo::defaultDeadlineMs, tri-state kept (rule 2). */
    double defaultDeadlineMs = 0.0;
    double maxQualityMs = 0.0; //!< 0 = no quality budget.
    DegradePolicy degrade = DegradePolicy::Off;
};

/** @p tag's policy: its tenantSlo entry over the global knobs. */
TenantPolicy tenantPolicy(const ServiceConfig &cfg, const std::string &tag);

/**
 * Can an estimator-driven rule fire for a request with @p deadlineMs
 * (<= 0 = none) and its own EvalRequest::maxQualityMs
 * @p requestQualityMs? When false the verdict needs no shape key
 * (unless a default deadline is to be derived) and cannot change
 * while a Block submitter waits.
 */
bool estimatorGated(const TenantPolicy &t, double deadlineMs,
                    double requestQualityMs);

/**
 * Why @p req cannot be evaluated (the first failing check), or null
 * when it can: batch < 1, a layer failing ConvLayer::invalidReason,
 * an empty PE array, or a config failing
 * AcceleratorConfig::invalidReason (e.g. zero-bank SPMs).
 */
const char *invalidReason(const EvalRequest &req);

/** Which scheduler serves a request. */
enum class Path
{
    Ilp,   //!< The exact ILP SPM allocation.
    Greedy //!< The greedy (anytime) pass: a degraded request.
};

/**
 * True when @p est predicts a request of @p shapeKey on @p path, with
 * @p deadlineMs of queue budget left (<= 0 = none) behind
 * @p queueDepth requests, misses that budget or @p t's p95 SLO. The
 * path picks the key (the shape or its "<shape>|greedy" twin) and the
 * service read: ILP falls back to the global EWMA for an unseen shape;
 * greedy reads its twin alone, 0 when untracked, so a cold degraded
 * path is not judged by the ILP-dominated average it undercuts. The
 * wait term is shared: degrading cannot drain the queue ahead.
 */
bool doomed(Path path, const CostEstimator &est,
            const std::string &shapeKey, double deadlineMs,
            std::size_t queueDepth, const TenantPolicy &t);

/** What decide() reads of one request. */
struct RequestView
{
    const EvalRequest &req;
    /** accel::requestShapeKey of req; may be empty when no
     *  estimator-driven rule can fire (see estimatorGated). */
    const std::string &shapeKey;
    /** Queue budget left (ms, <= 0 = none). */
    double deadlineMs = 0.0;
    bool alreadyDegraded = false; //!< Already on the greedy path.
};

/** What decide() reads of the estimator. */
struct EstimatorView
{
    const CostEstimator &est;
    std::size_t queueDepth = 0; //!< Requests queued ahead.
};

/** decide()'s verdict. */
struct Decision
{
    /** Admitted, ServedDegraded, RejectedHopeless or RejectedInvalid. */
    Admission admission = Admission::Admitted;
    /** The path judged (taken when admitted). */
    Path path = Path::Ilp;
    double deadlineMs = 0.0; //!< Deadline after rule 2 (<= 0 = none).
};

/** The admission verdict for @p r (see the rule order above). */
Decision decide(const RequestView &r, const EstimatorView &e,
                const TenantPolicy &t);

} // namespace smart::serve

#endif // SMART_SERVE_ADMISSION_HH
