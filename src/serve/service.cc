#include "serve/service.hh"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <utility>

#include "accel/hash.hh"
#include "accel/perf.hh"
#include "accel/serdes.hh"
#include "common/logging.hh"
#include "common/taskgraph.hh"
#include "common/tracespan.hh"

namespace smart::serve
{

namespace
{

using Clock = std::chrono::steady_clock;

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/** Deep size of a cached result: struct + strings + per-layer rows. */
std::size_t
inferenceResultBytes(const accel::InferenceResult &r)
{
    std::size_t b = sizeof(r) + r.model.size() + r.scheme.size();
    for (const auto &l : r.layers)
        b += sizeof(l) + l.name.size();
    return b;
}

LruCache<accel::InferenceResult>::Config
cacheConfigFor(const ServiceConfig &cfg)
{
    LruCache<accel::InferenceResult>::Config c;
    c.maxEntries = cfg.cacheMaxEntries;
    c.maxBytes = cfg.cacheMaxBytes;
    c.tagBytes = cfg.tenantCacheBytes;
    c.shards = cfg.cacheShards;
    c.valueBytes = inferenceResultBytes;
    return c;
}

/**
 * Every Nth consecutive hopeless rejection on an IDLE queue is
 * admitted anyway, as a probe. Rejected requests produce no samples,
 * so without probes one pathological first measurement (a 10x cold
 * outlier seeding the shape EWMA above the SLO) would lock that shape
 * out forever even while the service sits idle; the probe's real
 * latency refreshes the estimator and admission self-heals. Probes
 * are restricted to an empty queue: there they cost nothing and
 * cannot miss by much, while under load the admitted stream keeps
 * the estimator fresh on its own (no lockout to heal) and a probe
 * would just be a genuinely doomed request.
 */
constexpr std::uint32_t kHopelessProbeInterval = 8;

/** Clamp the wave/SLO knobs into a usable shape once, up front. */
ServiceConfig
normalized(ServiceConfig cfg)
{
    cfg.maxWave = std::max<std::size_t>(1, cfg.maxWave);
    cfg.minWave =
        std::min(std::max<std::size_t>(1, cfg.minWave), cfg.maxWave);
    cfg.sloWindow = std::max<std::size_t>(1, cfg.sloWindow);
    cfg.sloAdmissionFactor = std::max(0.0, cfg.sloAdmissionFactor);
    return cfg;
}

/** Any p95 target at all — global, or any tenant's own? */
bool
anySloConfigured(const ServiceConfig &cfg)
{
    if (cfg.sloP95Ms > 0.0)
        return true;
    for (const auto &[tag, slo] : cfg.tenantSlo)
        if (slo.p95Ms > 0.0)
            return true;
    return false;
}

} // namespace

EvalService::EvalService(ServiceConfig cfg)
    : cfg_(normalized(cfg)), queue_(cfg_.queue),
      cache_(cacheConfigFor(cfg_)),
      // The persistent L2 loads (and, if damaged, self-heals) its
      // on-disk state here, before the dispatcher thread below can
      // consult it — restarts warm-start from the first wave.
      diskCache_(cfg_.diskCachePath.empty()
                     ? nullptr
                     : std::make_unique<DiskCache>(cfg_.diskCachePath)),
      waveLimit_(cfg_.maxWave), sloActive_(anySloConfigured(cfg_)),
      dispatcher_([this]() { dispatcherLoop(); })
{
    // Arm the process-wide tracer (common/tracespan.hh) when this
    // service wants sampling. Safe after the dispatcher started: no
    // sampled request can exist before submit() is callable, and the
    // recorder's configure() is thread-safe. A zero rate leaves the
    // recorder exactly as it was (another service may own it).
    if (cfg_.traceSampleEvery > 0) {
        TraceRecorder::Config tc;
        tc.sampleEvery = cfg_.traceSampleEvery;
        tc.incidentLogCap = cfg_.incidentLogCap;
        TraceRecorder::global().configure(tc);
    }
}

EvalService::~EvalService()
{
    close();
    dispatcher_.join();
}

void
EvalService::close()
{
    queue_.close();
}

void
EvalService::drain()
{
    LockGuard lock(drainMu_);
    // Explicit loop (not a CV predicate lambda) so the analysis sees
    // unresolved_ read under drainMu_.
    while (unresolved_ != 0)
        lock.wait(drainCv_);
}

MetricsSnapshot
EvalService::metrics() const
{
    MetricsSnapshot s =
        metrics_.snapshot(queue_.depth(), queue_.highWater());
    const auto cs = cache_.stats();
    s.cacheEvictions = cs.evictions;
    s.cacheEntries = cs.entries;
    s.cacheBytes = cs.bytes;
    for (const auto &[tag, ts] : cs.tags)
        s.tenantCache.push_back(
            {tag, ts.entries, ts.bytes, ts.evictions});
    // memory_order: relaxed — monitoring reads of independent counters;
    // a snapshot is a statistical view, not a synchronization point.
    s.waveLimit = waveLimit_.load(std::memory_order_relaxed);
    s.sloP95Ms = cfg_.sloP95Ms;
    s.sloWindows = sloWindows_.load(std::memory_order_relaxed);
    s.sloViolatedWindows =
        sloViolatedWindows_.load(std::memory_order_relaxed);
    // Overlay the parts of the per-tenant SLO rows only the service
    // knows: the effective target from the SLO table and the
    // per-tenant violated-window counters from the adaptation loop. A
    // tenant that violated windows without completing a request in
    // the histogram cap still gets a row — violations must never be
    // silently invisible.
    {
        LockGuard lock(sloMu_);
        for (auto &t : s.tenantSlo) {
            t.sloP95Ms = tenantPolicy(cfg_, t.tag).p95Ms;
            auto it = tenantViolatedWindows_.find(t.tag);
            if (it != tenantViolatedWindows_.end())
                t.violatedWindows = it->second;
        }
        for (const auto &[tag, violated] : tenantViolatedWindows_) {
            const bool present = std::any_of(
                s.tenantSlo.begin(), s.tenantSlo.end(),
                [&](const auto &t) { return t.tag == tag; });
            if (!present) {
                MetricsSnapshot::TenantSloStat ts;
                ts.tag = tag;
                ts.sloP95Ms = tenantPolicy(cfg_, tag).p95Ms;
                ts.violatedWindows = violated;
                s.tenantSlo.push_back(std::move(ts));
            }
        }
        std::sort(s.tenantSlo.begin(), s.tenantSlo.end(),
                  [](const auto &a, const auto &b) {
                      return a.tag < b.tag;
                  });
    }
    const auto es = estimator_.snapshot();
    s.estServiceMs = es.serviceMs;
    s.estWaveMs = es.waveMs;
    s.estServiceSamples = es.serviceSamples;
    s.estServiceIntervalMs = es.serviceIntervalMs;
    // Per-stage latency breakdown, when this service armed the
    // process-wide tracer (stage histograms are recorder-global; a
    // service that never armed it reports none rather than another
    // service's).
    if (cfg_.traceSampleEvery > 0 &&
        TraceRecorder::global().armed()) {
        for (auto &st : TraceRecorder::global().stageStats())
            s.stages.push_back(
                {std::move(st.name), st.count, st.p50Ms, st.p95Ms});
    }
    if (diskCache_) {
        const auto ds = diskCache_->stats();
        s.l2Hits = ds.hits;
        s.l2Misses = ds.misses;
        s.l2Puts = ds.puts;
        s.l2CorruptSkipped = ds.corruptSkipped;
        s.l2Entries = ds.entries;
    }
    return s;
}

std::string
EvalService::dumpIncidents() const
{
    return TraceRecorder::global().incidentsJson();
}

Submission
EvalService::submit(EvalRequest req)
{
    metrics_.recordSubmitted();

    // Sampling decision for this submission (common/tracespan.hh).
    // Disarmed (traceSampleEvery == 0) the gate is the plain config
    // compare alone; armed, startTrace() is a relaxed load plus a
    // relaxed fetch_add. traceTag is only copied for sampled requests
    // — the flight recorder needs the tenant tag after req is moved.
    const std::uint64_t traceId = cfg_.traceSampleEvery > 0
                                      ? TraceRecorder::global().startTrace()
                                      : 0;
    const std::string traceTag = traceId ? req.tag : std::string();
    ScopedSpan submitSpan(traceId, "submit");

    // Admission (serve/admission.hh): one pure decide() from cheap
    // reads, before the request costs a queue slot, a drain slot, or
    // a blocked submitter; the canonical key waits for dispatch. A
    // closed service skips it and reports RejectedClosed, never
    // RejectedHopeless: clients back off differently from shutdown.
    // The depth is sampled once, so the verdict and the probe decision
    // below judge the same queue state.
    const std::uint64_t estimateBegin =
        traceId ? TraceRecorder::nowNs() : 0;
    const TenantPolicy policy = tenantPolicy(cfg_, req.tag);
    // The shape key is computed only when some estimator-driven rule
    // can consume it, so a service with no SLO, no deadline and no
    // tenant default keeps the zero-allocation submit path.
    const std::string shapeKey =
        policy.defaultDeadlineMs != 0.0 ||
                estimatorGated(policy, req.deadlineMs, req.maxQualityMs)
            ? accel::requestShapeKey(req.model, req.batch)
            : std::string();
    const std::size_t depthNow = queue_.depth();
    Decision d;
    d.deadlineMs = req.deadlineMs;
    if (!queue_.closed())
        d = decide({req, shapeKey, req.deadlineMs, false},
                   {estimator_, depthNow}, policy);
    req.deadlineMs = d.deadlineMs;
    if (traceId)
        TraceRecorder::global().endSpan(traceId, "estimate",
                                        estimateBegin,
                                        static_cast<std::int64_t>(depthNow),
                                        "queue_depth");

    // Every rejection leaves here. A hopeless one carries the deadline
    // a resubmission could meet behind @p depth queued requests (see
    // Submission::suggestedDeadlineMs) instead of leaving the client
    // to blind-retry.
    auto rejected = [&](Admission a, std::size_t depth) {
        Submission sub{a, std::future<EvalResponse>()};
        const bool hopeless = a == Admission::RejectedHopeless;
        if (hopeless)
            sub.suggestedDeadlineMs = estimator_.suggestDeadlineMs(
                shapeKey, depth, policy.factor);
        if (traceId) {
            auto &rec = TraceRecorder::global();
            rec.instant(traceId, "admission",
                        static_cast<std::int64_t>(a), "verdict");
            if (hopeless)
                rec.recordIncident(traceId, "rejected_hopeless", 0,
                                   traceTag);
        }
        return sub;
    };

    if (d.admission == Admission::RejectedInvalid) {
        metrics_.recordRejected();
        return rejected(d.admission, depthNow);
    }
    if (d.admission == Admission::RejectedHopeless) {
        // Probe admission (see kHopelessProbeInterval): the streak
        // only advances — and a probe only fires — when the queue is
        // idle, so burst rejections under load stay rejections.
        // memory_order: relaxed — the streak is an advisory heuristic
        // counter; a racy read admits (or skips) one probe early, which
        // the self-healing design tolerates by construction.
        const bool probe =
            depthNow == 0 &&
            hopelessStreak_.fetch_add(1, std::memory_order_relaxed) +
                    1 >=
                kHopelessProbeInterval;
        if (!probe) {
            metrics_.recordRejectedHopeless();
            return rejected(d.admission, depthNow);
        }
    }
    hopelessStreak_.store(0, std::memory_order_relaxed);

    Pending p;
    p.submitTime = Clock::now();
    p.deadline =
        req.deadlineMs > 0.0
            ? p.submitTime +
                  std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double, std::milli>(
                          req.deadlineMs))
            : Clock::time_point::max();
    // memory_order: relaxed — seq_ only needs uniqueness/monotonicity
    // of the returned values, not ordering of surrounding memory.
    p.seq = seq_.fetch_add(1, std::memory_order_relaxed);
    p.degrade = d.path == Path::Greedy;
    p.traceId = traceId;
    // The canonical key is deliberately NOT computed here: it is the
    // expensive part of submission and only dispatch needs it, so a
    // rejected request costs almost nothing (see serveWave).
    p.req = std::move(req);
    std::future<EvalResponse> fut = p.promise.get_future();

    // Admission is counted (and the drain slot taken) before the push
    // publishes the request: once the dispatcher can resolve it, it is
    // already admitted in the metrics, so a concurrent snapshot never
    // shows completed > admitted. Both are rolled back on rejection.
    metrics_.recordAdmitted();
    {
        LockGuard lock(drainMu_);
        ++unresolved_;
    }
    // Under Block, a push that actually waited is re-judged by the
    // same decide() against the state it wakes to: fresh depth and
    // EWMAs, and the budget LEFT. An expired deadline is refused
    // outright; the p95 budget, end to end from submit, loses the
    // time spent blocked (over factor, as doomed() scales by it), and
    // a budget burned while blocked is refused too — degrading cannot
    // refund wall time. The tenant default deadline was applied at
    // submit, and alreadyDegraded keeps a greedy request from being
    // degraded twice. The callback runs under the queue lock, reads
    // only leaf-locked estimator state, and is built only when it can
    // matter, sparing the common path the std::function allocation.
    RequestQueue::DoomedAfterWait rejudge;
    if (cfg_.queue.policy == AdmissionPolicy::Block &&
        estimatorGated(policy, p.req.deadlineMs, p.req.maxQualityMs)) {
        rejudge = [this, policy, shapeKey](
                      const Pending &pending,
                      std::size_t depth) -> RequestQueue::WaitVerdict {
            using Verdict = RequestQueue::WaitVerdict;
            const auto now = Clock::now();
            double leftMs = 0.0; // no deadline
            if (pending.deadline != Clock::time_point::max()) {
                leftMs = msBetween(now, pending.deadline);
                if (leftMs <= 0.0)
                    return Verdict::Reject;
            }
            TenantPolicy left = policy;
            left.defaultDeadlineMs = 0.0;
            if (left.p95Ms > 0.0 && left.factor > 0.0) {
                left.p95Ms -=
                    msBetween(pending.submitTime, now) / left.factor;
                if (left.p95Ms <= 0.0)
                    return Verdict::Reject;
            }
            const Decision again =
                decide({pending.req, shapeKey, leftMs, pending.degrade},
                       {estimator_, depth}, left);
            switch (again.admission) {
              case Admission::Admitted:
                return Verdict::Admit;
              case Admission::ServedDegraded:
                return Verdict::Degrade;
              default:
                return Verdict::Reject;
            }
        };
    }
    auto pushed = queue_.push(std::move(p), rejudge);
    if (pushed.admission != Admission::Admitted) {
        if (pushed.admission == Admission::RejectedHopeless)
            metrics_.rollbackAdmittedToHopeless();
        else
            metrics_.rollbackAdmittedToRejected();
        releaseDrainSlot();
        return rejected(pushed.admission, queue_.depth());
    }
    if (pushed.shed)
        finish(std::move(*pushed.shed), ResponseStatus::Shed);
    // PushResult::degraded echoes Pending::degrade — set above, or by
    // a WaitVerdict::Degrade re-judge inside the blocked push — so
    // the caller learns its request took the anytime path.
    const Admission verdict = pushed.degraded
                                  ? Admission::ServedDegraded
                                  : Admission::Admitted;
    if (traceId)
        TraceRecorder::global().instant(
            traceId, "admission", static_cast<std::int64_t>(verdict),
            "verdict");
    return {verdict, std::move(fut)};
}

void
EvalService::resolve(Pending &&p, EvalResponse &&r)
{
    switch (r.status) {
      case ResponseStatus::Ok:
        metrics_.recordCompleted(r.totalMs, r.cacheHit, r.coalesced,
                                 r.degraded, r.tag);
        if (sloActive_) {
            LockGuard lock(sloMu_);
            sloLatencies_.emplace_back(r.tag, r.totalMs);
        }
        break;
      case ResponseStatus::Shed:
        metrics_.recordShed();
        break;
      case ResponseStatus::Expired:
        metrics_.recordExpired();
        break;
    }
    p.promise.set_value(std::move(r));
    releaseDrainSlot();
}

void
EvalService::releaseDrainSlot()
{
    {
        LockGuard lock(drainMu_);
        --unresolved_;
    }
    drainCv_.notify_all();
}

void
EvalService::finish(Pending &&p, ResponseStatus status)
{
    smart_assert(status != ResponseStatus::Ok,
                 "finish() is for terminal non-Ok states");
    const auto now = Clock::now();
    if (p.traceId) {
        auto &rec = TraceRecorder::global();
        rec.instant(p.traceId,
                    status == ResponseStatus::Expired ? "expired"
                                                      : "shed");
        // Flight recorder: an expired sampled request is an incident
        // worth forensics (where did its budget go?); a shed one was
        // displaced by policy, not lost to latency.
        if (status == ResponseStatus::Expired)
            rec.recordIncident(p.traceId, "expired", p.digest,
                               p.req.tag);
    }
    EvalResponse r;
    r.status = status;
    r.queueMs = r.totalMs = msBetween(p.submitTime, now);
    r.digest = p.digest;
    r.traceId = p.traceId;
    r.tag = std::move(p.req.tag);
    resolve(std::move(p), std::move(r));
}

std::chrono::milliseconds
EvalService::effectiveLinger() const
{
    if (!sloActive_ || cfg_.linger.count() == 0)
        return cfg_.linger;
    // Scale the batching delay with the adaptive cap: a halved wave
    // limit halves the time requests wait for wave-mates. Floored at
    // 1 ms so a short configured linger degrades to minimal
    // coalescing rather than none (integer division would otherwise
    // zero it on the first halving).
    // memory_order: relaxed — the cap is an independent tuning knob; a
    // stale read just sizes one linger from the previous window.
    const auto cap = waveLimit_.load(std::memory_order_relaxed);
    return std::chrono::milliseconds(
        std::max<long long>(1, static_cast<long long>(cfg_.linger.count()) *
                                   static_cast<long long>(cap) /
                                   static_cast<long long>(cfg_.maxWave)));
}

namespace
{

/** Nearest-rank p95 of @p xs (destructive); NaN-safe via caller. */
double
p95Of(std::vector<double> &xs)
{
    const std::size_t rank = std::min(
        xs.size() - 1,
        static_cast<std::size_t>(std::ceil(0.95 * xs.size())) - 1);
    std::nth_element(xs.begin(),
                     xs.begin() + static_cast<std::ptrdiff_t>(rank),
                     xs.end());
    return xs[rank];
}

} // namespace

void
EvalService::adaptWaveLimit()
{
    if (!sloActive_)
        return;
    std::vector<std::pair<std::string, double>> window;
    {
        LockGuard lock(sloMu_);
        if (sloLatencies_.size() < cfg_.sloWindow)
            return;
        window.swap(sloLatencies_);
    }
    if (window.empty())
        return; // defensive: an empty window carries no decision

    // Group the window by SLO policy and judge each group against
    // its own effective target. Tenants with their own tenantSlo
    // entry get their own group; everyone else — untagged traffic
    // and tenants inheriting the global target — pools into one
    // group judged against the global SLO, exactly the pre-tenant
    // pooled-window behavior (so many small tags sharing the global
    // target can never starve adaptation of samples). The decision
    // is driven by the strictest violated group: ANY violated group
    // halves the cap — a latency-insensitive batch tenant's
    // comfortable p95 must never average away an interactive
    // tenant's violation — while growth requires every SLO-bearing
    // group comfortably healthy (p95 under 80% of its own target).
    // Per-tenant groups smaller than a handful of samples carry no
    // stable p95 (a lone scheduling outlier from a 3% tenant must
    // not halve the cap for everyone), so they are skipped; a sub-4
    // sloWindow lowers the bar with it, and the pooled group — the
    // legacy judgment — is exempt.
    const std::size_t minGroup =
        std::min<std::size_t>(4, cfg_.sloWindow);
    std::map<std::string, std::vector<double>> groups;
    for (auto &[tag, ms] : window) {
        // Own group only for tenants that set their own p95 (> 0
        // overrides, < 0 opts out — its group is then skipped as
        // target-less); an entry that merely tunes the admission
        // factor or default deadline still inherits the global
        // target and pools with everyone else.
        const auto it = cfg_.tenantSlo.find(tag);
        const bool ownTarget =
            it != cfg_.tenantSlo.end() && it->second.p95Ms != 0.0;
        groups[ownTarget ? tag : std::string()].push_back(ms);
    }
    bool judged = false;     //!< Any group carried an SLO verdict.
    bool violated = false;   //!< Some tenant over its own target.
    bool comfortable = true; //!< Every judged group under 80%.
    std::vector<std::string> violatedTags;
    for (auto &[tag, xs] : groups) {
        const bool pooled = tag.empty();
        if (!pooled && xs.size() < minGroup)
            continue; // too few samples for a stable verdict
        const double slo = tenantPolicy(cfg_, tag).p95Ms;
        if (slo <= 0.0)
            continue; // no target for this tenant: no verdict
        const double p95 = p95Of(xs);
        if (!std::isfinite(p95))
            continue; // a NaN p95 is neither healthy nor violated
        judged = true;
        if (p95 > slo) {
            violated = true;
            // Untagged traffic has no tenant row; its violations are
            // visible in the global sloViolatedWindows counter.
            if (!tag.empty())
                violatedTags.push_back(tag);
        } else if (p95 >= 0.8 * slo) {
            comfortable = false;
        }
    }
    if (!judged)
        return; // a window of opted-out tenants decides nothing

    // memory_order: relaxed — window/violation counters and the wave
    // cap are independent statistics; only the dispatcher writes the
    // cap, so the load-modify-store below has no concurrent writer.
    sloWindows_.fetch_add(1, std::memory_order_relaxed);
    std::size_t cap = waveLimit_.load(std::memory_order_relaxed);
    if (violated) {
        // Violated: halve the cap (multiplicative decrease) so queued
        // requests stop paying for large waves and long lingers.
        sloViolatedWindows_.fetch_add(1, std::memory_order_relaxed);
        {
            // Tags are client-controlled, so the per-tenant counter
            // map is bounded; past the cap, violations still count in
            // the global sloViolatedWindows_ above.
            constexpr std::size_t kMaxViolatedTagRows = 256;
            LockGuard lock(sloMu_);
            for (const auto &tag : violatedTags)
                if (tenantViolatedWindows_.count(tag) > 0 ||
                    tenantViolatedWindows_.size() < kMaxViolatedTagRows)
                    ++tenantViolatedWindows_[tag];
        }
        cap = std::max(cfg_.minWave, cap / 2);
    } else if (comfortable) {
        // Comfortably healthy across every judged tenant: grow
        // additively back toward maxWave for better coalescing.
        cap = std::min(cfg_.maxWave, cap + 1);
    }
    // memory_order: relaxed — readers (dispatcher, snapshots, linger
    // scaling) tolerate a stale cap for one wave by design.
    waveLimit_.store(cap, std::memory_order_relaxed);
}

void
EvalService::dispatcherLoop()
{
    while (true) {
        // memory_order: relaxed — the adaptive cap is written by this
        // same thread (adaptWaveLimit); no cross-thread ordering needed.
        auto wave =
            queue_.popWave(waveLimit_.load(std::memory_order_relaxed),
                           effectiveLinger());
        for (auto &p : wave.expired)
            finish(std::move(p), ResponseStatus::Expired);
        if (!wave.items.empty())
            serveWave(std::move(wave.items));
        else if (wave.expired.empty())
            break; // closed and drained
        adaptWaveLimit();
    }
}

void
EvalService::serveWave(std::vector<Pending> &&wave)
{
    const auto dispatch = Clock::now();

    // Requests whose key already has a ready cache entry complete
    // immediately; the rest are grouped by key so identical requests
    // in one wave share a single evaluation (coalescing).
    struct Group
    {
        /** Cache/coalescing key: the canonical key, plus
         *  accel::kGreedyKeySuffix for degraded groups. */
        std::string evalKey;
        std::vector<Pending> members;
    };
    std::vector<Group> groups;
    std::unordered_map<std::string, std::size_t> group_of;

    auto resolveOk = [&](Pending &&p, const accel::InferenceResult &res,
                         bool cache_hit, bool coalesced) {
        const auto now = Clock::now();
        // One "serve" span per sampled request: wave dispatch →
        // resolution. Together with queue_wait (submit → dispatch,
        // closed in popWave) the two spans partition the request's
        // end-to-end time.
        if (p.traceId) {
            const auto ns = [](Clock::time_point t) {
                return static_cast<std::uint64_t>(
                    std::chrono::duration_cast<
                        std::chrono::nanoseconds>(t.time_since_epoch())
                        .count());
            };
            TraceRecorder::global().recordSpan(
                p.traceId, "serve", ns(dispatch), ns(now),
                cache_hit ? 1 : 0, "cache_hit");
        }
        EvalResponse r;
        r.status = ResponseStatus::Ok;
        r.result = res;
        r.cacheHit = cache_hit;
        r.coalesced = coalesced;
        // Quality surfacing: a degrade-marked request only reports
        // degraded when the result it got actually came off the
        // greedy path — one satisfied by a cached optimal result was
        // served at full quality and must not inflate the degraded
        // counters.
        r.quality = cache_hit ? compiler::Quality::CacheHit
                              : res.schedQuality;
        r.gapBound = res.schedGapBound;
        r.degraded = p.degrade &&
                     res.schedQuality == compiler::Quality::Greedy;
        r.queueMs = msBetween(p.submitTime, dispatch);
        r.serviceMs = msBetween(dispatch, now);
        r.totalMs = msBetween(p.submitTime, now);
        r.digest = p.digest;
        r.traceId = p.traceId;
        r.tag = std::move(p.req.tag);
        resolve(std::move(p), std::move(r));
    };

    // A degrade-marked request is happily served by a cached OPTIMAL
    // result — strictly better quality at cache-hit cost — so its
    // lookup tries the optimal key first, then its own greedy twin.
    // The reverse never holds: degraded results live under the
    // suffixed key and are invisible to full-quality requests. An L1
    // miss consults the persistent L2 (same key order); a decodable
    // L2 hit is promoted into the in-process cache under the key it
    // was found with.
    auto cacheLookup = [&](const Pending &p, const std::string &evalKey,
                           accel::InferenceResult &out) {
        auto &rec = TraceRecorder::global();
        if (cache_.get(p.key, out) ||
            (p.degrade && cache_.get(evalKey, out))) {
            rec.instant(p.traceId, "schedule_cache_hit");
            return true;
        }
        auto l2Hit = [&](const std::string &k) {
            std::string bytes;
            if (!diskCache_->get(k, bytes) ||
                !accel::deserializeInferenceResult(bytes, out))
                return false;
            cache_.put(k, out, p.req.tag);
            rec.instant(p.traceId, "schedule_l2_hit");
            return true;
        };
        return diskCache_ &&
               (l2Hit(p.key) || (p.degrade && l2Hit(evalKey)));
    };

    for (auto &p : wave) {
        accel::appendRequestKey(p.key, p.req.cfg, p.req.model,
                                p.req.batch);
        p.digest = accel::requestDigest(p.key);
        // Degraded evaluations are keyed (L1, L2, and coalescing
        // groups) under the canonical key plus the greedy suffix, so
        // the two paths never collide in the cache or share a wave
        // item.
        std::string evalKey =
            p.degrade ? p.key + accel::kGreedyKeySuffix : p.key;
        accel::InferenceResult cached;
        if (cacheLookup(p, evalKey, cached)) {
            resolveOk(std::move(p), cached, /*cache_hit=*/true,
                      /*coalesced=*/false);
            continue;
        }
        auto [it, fresh] = group_of.try_emplace(evalKey, groups.size());
        if (fresh)
            groups.push_back({std::move(evalKey), {}});
        groups[it->second].members.push_back(std::move(p));
    }
    if (groups.empty())
        return;

    metrics_.recordWave(groups.size());

    try {
        // Each coalescing group is one stealable task on the global
        // work-stealing scheduler. The dispatcher joins by helping
        // (TaskGroup::wait executes pending tasks instead of
        // sleeping), so it contributes a lane exactly like the old
        // pool-parallel runBatch — and nested per-layer pFor inside
        // runInference now feeds the same deques instead of running
        // serially. Fulfilment is race-free without extra locking:
        // group membership is disjoint, and put() enforces the LRU
        // budget per shard, so a full cache evicts its coldest
        // entries instead of wiping concurrent tasks' inserts.
        const auto waveStart = Clock::now();
        TaskGroup tasks;
        for (auto &g : groups) {
            tasks.run([&]() {
                // The evaluation runs under the group head's trace id
                // (the request that triggered it); a sampled member
                // coalesced behind an unsampled head still gets its
                // serve span, just not the schedule/execute
                // internals. The scheduler carries the spawner's
                // ambient trace to the stealing thread; the explicit
                // scope here narrows it to this group's head.
                const Pending &head = g.members.front();
                TraceRecorder::TraceScope trace(head.traceId);
                const accel::InferenceResult res = accel::runInference(
                    head.req.cfg, head.req.model, head.req.batch,
                    head.degrade ? accel::SchedMode::Greedy
                                 : accel::SchedMode::Ilp);
                // Cache ownership and the cost sample both follow the
                // group head; read its fields before resolveOk moves
                // them into the response. Degraded groups write under
                // the greedy key and feed the greedy shape EWMA,
                // keeping both paths' cost models separate.
                cache_.put(g.evalKey, res, head.req.tag);
                if (diskCache_)
                    diskCache_->put(g.evalKey,
                                    accel::serializeInferenceResult(res));
                estimator_.recordService(
                    accel::requestShapeKey(head.req.model,
                                           head.req.batch) +
                        (head.degrade ? accel::kGreedyKeySuffix : ""),
                    msBetween(dispatch, Clock::now()));
                bool first = true;
                for (auto &p : g.members) {
                    resolveOk(std::move(p), res, /*cache_hit=*/false,
                              /*coalesced=*/!first);
                    first = false;
                }
            });
        }
        tasks.wait();
        estimator_.recordWave(msBetween(waveStart, Clock::now()),
                              groups.size());
    } catch (...) {
        // A failed wave must still resolve every future: promises the
        // hook already satisfied throw future_error and are skipped.
        // Each exception-resolved request is counted as failed so the
        // admitted == completed + shed + expired + failed accounting
        // stays closed.
        for (auto &g : groups) {
            for (auto &p : g.members) {
                try {
                    p.promise.set_exception(std::current_exception());
                } catch (const std::future_error &) {
                    continue;
                }
                // Flight recorder: a failed evaluation (including
                // FaultInjector-style injected faults) snapshots the
                // sampled request's span history for forensics.
                if (p.traceId)
                    TraceRecorder::global().recordIncident(
                        p.traceId, "wave_failed", p.digest, p.req.tag);
                metrics_.recordFailed();
                releaseDrainSlot();
            }
        }
    }
}

} // namespace smart::serve
