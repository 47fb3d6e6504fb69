/**
 * @file
 * Async evaluation service over accel::runBatch — the serving layer of
 * the ROADMAP's north star. Clients submit (configuration, model,
 * batch) requests with priorities and deadlines and get back futures;
 * a dispatcher thread coalesces queued requests into runBatch waves
 * sized by a configurable policy, so concurrent callers share the
 * thread pool the way the figure benches do.
 *
 * Three production behaviors sit between submission and evaluation:
 *
 *  - Admission control: a bounded queue with Reject / Shed / Block
 *    policies (serve/queue.hh). Rejections are reported synchronously
 *    from submit(); shed and expired requests resolve their futures
 *    with the corresponding status — nothing is silently dropped.
 *    Before the queue, one pure decide() (serve/admission.hh) refuses
 *    a malformed request (RejectedInvalid), picks the ILP or greedy
 *    path, and refuses a request the cost estimator
 *    (serve/estimator.hh) predicts cannot meet its deadline or its
 *    tenant's p95 SLO (RejectedHopeless): doomed work is turned away
 *    in microseconds instead of occupying a queue slot and failing
 *    slowly. submit() is plumbing around that call, and a Block
 *    submitter that actually waited is re-judged by the same decide()
 *    against the budget left. A hopeless rejection carries
 *    Submission::suggestedDeadlineMs — the budget the estimator
 *    predicts a resubmission could meet.
 *  - Result caching: a sharded cache keyed on the canonical
 *    accel::requestKey, so repeated sweep points (figure grids, DSE
 *    re-runs) are served without re-evaluation. Identical requests in
 *    the same wave are coalesced into a single evaluation.
 *  - Metrics: per-request latency (p50/p95/p99), throughput, queue
 *    depth, and cache hit rate (serve/metrics.hh), exportable as a
 *    BENCH_micro.json-compatible snapshot.
 *
 * Determinism contract: an admitted request's result is bit-identical
 * to a direct runInference(cfg, model, batch) call — evaluation goes
 * through the same runBatch path, and the cache key covers every
 * result-relevant input byte (see accel/hash.hh). A degraded request
 * (graceful degradation, ServiceConfig::degradePolicy) is likewise
 * bit-identical to runInference(cfg, model, batch, SchedMode::Greedy);
 * degraded results live under a distinct cache key ("<key>|greedy"),
 * though a degraded request is happy to take an already-cached
 * optimal result — better quality at the same (cached, ~zero) cost.
 */

#ifndef SMART_SERVE_SERVICE_HH
#define SMART_SERVE_SERVICE_HH

#include <chrono>
#include <map>
#include <memory>
#include <thread>

#include "accel/batch.hh"
#include "common/cache.hh"
#include "common/diskcache.hh"
#include "common/threadsafety.hh"
#include "serve/admission.hh"
#include "serve/estimator.hh"
#include "serve/metrics.hh"
#include "serve/queue.hh"
#include "serve/request.hh"

namespace smart::serve
{

/** Service shape: queue bounds, wave policy, SLO, cache policy. */
struct ServiceConfig
{
    QueueConfig queue; //!< Depth bound + admission policy + quotas.
    /** Most requests one runBatch wave may carry (coalescing cap). */
    std::size_t maxWave = 16;
    /** Adaptive wave sizing never shrinks the cap below this. */
    std::size_t minWave = 1;
    /**
     * How long the dispatcher lingers for more arrivals when fewer
     * than the wave cap requests are queued, so bursts amortize into
     * full waves. 0 dispatches immediately (lowest latency). Under an
     * SLO the effective linger scales with the adaptive wave cap.
     */
    std::chrono::milliseconds linger{0};
    /**
     * Target p95 end-to-end latency (queue + service, ms). When > 0
     * the dispatcher adapts the wave cap between minWave and maxWave:
     * each window of sloWindow completions whose p95 exceeds the SLO
     * halves the cap (and the linger with it, cutting batching delay);
     * a comfortably healthy window (p95 < 80% of the SLO) grows it
     * additively back toward maxWave for better coalescing. 0 keeps
     * the fixed maxWave/linger behavior.
     */
    double sloP95Ms = 0.0;
    /** Completions per adaptation decision when sloP95Ms > 0. */
    std::size_t sloWindow = 32;
    /**
     * SLO-aware admission headroom (see serve/admission.hh doomed()):
     * a submission is RejectedHopeless when the estimator's predicted
     * queue wait exceeds factor * deadlineMs, or predicted wait +
     * service exceeds factor * sloP95Ms. 1.0 rejects exactly at the
     * predicted budget, < 1 earlier; 0 disables hopeless rejection
     * for tenants without an override. Nothing is rejected while the
     * estimator is cold. An idle service admits every 8th consecutive
     * hopeless rejection as a probe, so a stuck-high estimate
     * re-measures instead of locking a shape out. The prediction
     * assumes a cache miss, keeping submit() free of the canonical-key
     * hash.
     */
    double sloAdmissionFactor = 1.0;
    /**
     * Per-tenant SLO table keyed on the request tag; an entry
     * overrides only the global knobs it sets (see TenantSlo).
     * Admission judges each submission by its tenant's entry; wave
     * sizing shrinks the cap when ANY tenant violates its own target
     * and grows it only when every SLO-bearing tenant is healthy.
     */
    std::map<std::string, TenantSlo> tenantSlo;
    /**
     * Result-cache entry budget, enforced by per-shard LRU eviction
     * (common/cache.hh LruCache). 0 means unbounded.
     */
    std::size_t cacheMaxEntries = 4096;
    /**
     * Result-cache byte budget (keys + deep value sizes + node
     * overhead), LRU-enforced like cacheMaxEntries. 0 = unbounded.
     */
    std::size_t cacheMaxBytes = 64ull << 20;
    /**
     * Per-tenant result-cache byte budget, keyed on the request tag:
     * a tenant over budget evicts its own least-recently-used entries
     * first, so one flooding tenant can no longer monopolize the
     * cache the way it can no longer monopolize the queue
     * (QueueConfig::maxPerTenant). Per-tenant occupancy and eviction
     * counters are exported in MetricsSnapshot::tenantCache. A
     * coalesced wave entry is charged to the tenant whose request
     * triggered the evaluation. 0 disables per-tenant budgets.
     */
    std::size_t tenantCacheBytes = 0;
    /** Cache lock granularity; 1 gives a single exact LRU order. */
    std::size_t cacheShards = 16;
    /** Graceful degradation: when a request may be served through
     *  the greedy scheduler instead of the ILP (see DegradePolicy). */
    DegradePolicy degradePolicy = DegradePolicy::Off;
    /** Global quality budget (ms) that TenantSlo::maxQualityMs and
     *  EvalRequest::maxQualityMs fall back to; 0 = none. */
    double maxQualityMs = 0.0;
    /**
     * Path of the persistent L2 schedule cache (common/diskcache.hh).
     * Empty disables it. When set, evaluated results are appended to
     * the on-disk log and L1 misses consult it before evaluating, so
     * a restarted process warm-starts instead of re-solving;
     * hit/miss/corrupt-skipped counters surface in the metrics
     * snapshot.
     */
    std::string diskCachePath;
    /**
     * Request-tracing sample rate: record a full span timeline
     * (submit → admission → queue wait → schedule → execute →
     * complete) for every Nth submission via the process-wide
     * TraceRecorder (common/tracespan.hh). 1 traces every request,
     * 16 one in sixteen; 0 (the default) disarms tracing — the
     * disarmed cost on the submit path is one relaxed atomic load.
     * Note the recorder is process-global (like FaultInjector): the
     * last service constructed with a nonzero rate owns its
     * configuration.
     */
    std::uint64_t traceSampleEvery = 0;
    /** Most flight-recorder incidents retained (FIFO eviction). */
    std::size_t incidentLogCap = 32;
};

class EvalService
{
  public:
    explicit EvalService(ServiceConfig cfg = {});

    /** Closes the queue and drains every admitted request. */
    ~EvalService();

    EvalService(const EvalService &) = delete;
    EvalService &operator=(const EvalService &) = delete;

    /**
     * Submit one request. The admission decision is synchronous; when
     * admitted, the returned future resolves once the request is
     * evaluated (status Ok), shed, or expired.
     */
    Submission submit(EvalRequest req);

    /**
     * Stop admitting new requests (submit returns RejectedClosed).
     * Already-admitted requests still run to completion.
     */
    void close();

    /**
     * Block until every admitted request has resolved. Does not close
     * the queue; new submissions after drain() are served normally.
     */
    void drain();

    /** Point-in-time metrics. */
    MetricsSnapshot metrics() const;

    /**
     * The flight recorder's incident log as a JSON array (one object
     * per expired / hopeless-rejected / failed sampled request, each
     * carrying the trace's last spans). "[]" when tracing is disarmed
     * or nothing went wrong. See common/tracespan.hh.
     */
    std::string dumpIncidents() const;

    /** The configuration the service was built with. */
    const ServiceConfig &config() const { return cfg_; }

    /** Current adaptive wave cap (== maxWave when no SLO is set). */
    std::size_t waveLimit() const
    {
        // memory_order: relaxed — monitoring read of an independent
        // counter; no other memory is published through it.
        return waveLimit_.load(std::memory_order_relaxed);
    }

    /**
     * The service's cost estimator. Exposed so operators can
     * warm-start a fresh service from a sibling's observed costs (or
     * tests can inject known samples); injected samples fold into the
     * EWMAs exactly like observed ones, and admission decisions pick
     * them up on the next submit.
     */
    CostEstimator &costEstimator() { return estimator_; }

  private:
    void dispatcherLoop();
    /**
     * The one place that retires an admitted request: records the
     * terminal metric for @p r's status, fulfills the promise, then
     * releases the drain count — in that order, so a client that sees
     * the future ready also sees it counted, and drain() returning
     * implies every future is ready.
     */
    void resolve(Pending &&p, EvalResponse &&r);
    /** Resolve a non-Ok terminal state (shed / expired). */
    void finish(Pending &&p, ResponseStatus status);
    /** Drop one request from the drain count (after its promise is set). */
    void releaseDrainSlot();
    /** Evaluate one wave: cache lookups, coalescing, runBatch. */
    void serveWave(std::vector<Pending> &&wave);
    /**
     * One SLO adaptation step (no-op until a full window of Ok
     * completions has accumulated): group the window's latencies by
     * tenant, judge each group against that tenant's effective SLO,
     * and resize the wave cap — any violated tenant (the strictest
     * violated one drives the decision) halves it; growth requires
     * every SLO-bearing tenant comfortably healthy. Called from the
     * dispatcher between waves.
     */
    void adaptWaveLimit();
    /** The linger for the current wave cap (scaled under an SLO). */
    std::chrono::milliseconds effectiveLinger() const;

    ServiceConfig cfg_;
    RequestQueue queue_;
    LruCache<accel::InferenceResult> cache_;
    /** Persistent L2 under the in-process cache; null when disabled. */
    std::unique_ptr<DiskCache> diskCache_;
    CostEstimator estimator_;
    ServiceMetrics metrics_;

    Mutex drainMu_;
    std::condition_variable drainCv_;
    /** Admitted, future not yet set. */
    std::uint64_t unresolved_ SMART_GUARDED_BY(drainMu_) = 0;
    std::atomic<std::uint64_t> seq_{0};

    std::atomic<std::size_t> waveLimit_;
    /** Consecutive idle hopeless rejections (probe admission). */
    std::atomic<std::uint32_t> hopelessStreak_{0};
    /** Any p95 SLO configured (global or per-tenant)? Set once. */
    bool sloActive_ = false;
    mutable Mutex sloMu_; //!< Guards the window + tenant rows.
    /** Current adaptation window: (tenant tag, end-to-end ms). */
    std::vector<std::pair<std::string, double>>
        sloLatencies_ SMART_GUARDED_BY(sloMu_);
    /** Windows in which each tenant violated its own SLO. */
    std::map<std::string, std::uint64_t>
        tenantViolatedWindows_ SMART_GUARDED_BY(sloMu_);
    std::atomic<std::uint64_t> sloWindows_{0};
    std::atomic<std::uint64_t> sloViolatedWindows_{0};

    std::thread dispatcher_; //!< Last member: starts fully-constructed.
};

} // namespace smart::serve

#endif // SMART_SERVE_SERVICE_HH
