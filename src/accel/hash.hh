/**
 * @file
 * Canonical request hashing for (configuration, model, batch)
 * evaluation points. The serving layer's result cache and any
 * cross-run memoization key on requestKey(): a byte-exact
 * serialization of every field the performance/energy model reads, so
 * two requests share a key if and only if runInference is guaranteed
 * to produce bit-identical results for both. Distinct configurations
 * can therefore never alias (the PR 1 ilp_cache under-keying bug class
 * is structurally excluded: the key is the full input, not a digest of
 * a subset).
 *
 * Doubles are serialized in hexfloat so the key round-trips every bit
 * of the value; requestDigest() folds the key to 64 bits (FNV-1a) for
 * logging and shard selection only — never use the digest alone as a
 * cache key.
 *
 * This module also spells the schedule memo key (scheduleKey) and the
 * greedy suffix every degraded key carries, so each cache key in the
 * tree is written in one place. The builders append with snprintf into
 * the destination string after a single up-front reserve.
 */

#ifndef SMART_ACCEL_HASH_HH
#define SMART_ACCEL_HASH_HH

#include <cstdint>
#include <string>
#include <string_view>

#include "accel/config.hh"
#include "accel/perf.hh"
#include "cnn/models.hh"

namespace smart::accel
{

/**
 * Suffix that keys a greedy-scheduled (degraded) evaluation apart from
 * its ILP twin. The serve result cache, its L2 and coalescing groups
 * append it to the request key, the cost estimator to the shape key,
 * and the schedule memo to the schedule key.
 */
inline constexpr char kGreedyKeySuffix[] = "|greedy";

/**
 * Canonical cache key of one evaluation request: covers the complete
 * AcceleratorConfig (scheme, PE array, clocks, all SPM specs, RANDOM
 * array + tech + overrides, prefetch/ILP flags, DRAM bandwidth, every
 * calibration knob), the full per-layer model description, and the
 * batch size. Deterministic across threads and processes.
 */
std::string requestKey(const AcceleratorConfig &cfg,
                       const cnn::CnnModel &model, int batch);

/**
 * Append the canonical key to @p out (one reserve, no temporaries).
 * Byte-identical to requestKey(); the serve dispatcher builds
 * Pending::key with it.
 */
void appendRequestKey(std::string &out, const AcceleratorConfig &cfg,
                      const cnn::CnnModel &model, int batch);

/**
 * Coarse (model, batch) shape class of a request — the model/batch
 * prefix dimensions of requestKey without the configuration fields or
 * the per-layer byte-exact serialization. Two requests sharing a shape
 * key have the same model name, layer count, total work, and batch
 * size, so their evaluation cost is comparable; the serving layer's
 * online cost estimator (serve/estimator.hh) keys its EWMAs on this.
 * Deliberately NOT a cache key: distinct configurations (and models
 * differing only in layer internals) collapse to one shape class.
 */
std::string requestShapeKey(const cnn::CnnModel &model, int batch);

/** Append form of requestShapeKey (same bytes, caller's buffer). */
void appendRequestShapeKey(std::string &out, const cnn::CnnModel &model,
                           int batch);

/**
 * The SchedParams part of scheduleKey: every field at full precision.
 * runInference builds it once per configuration.
 */
std::string schedParamsKey(const compiler::SchedParams &sp);

/**
 * Key of the process-global schedule memo: the shape of @p layer (not
 * its name, so repeated blocks share one solve), the PE array @p pe
 * the demand was analyzed against, @p spKey (schedParamsKey) and, for
 * SchedMode::Greedy, kGreedyKeySuffix. Everything the scheduler's
 * output depends on, so no two inputs that schedule differently alias.
 */
std::string scheduleKey(const systolic::ConvLayer &layer,
                        const systolic::ArrayDims &pe,
                        const std::string &spKey, SchedMode mode);

/** 64-bit FNV-1a digest of a canonical key (display/sharding only). */
std::uint64_t requestDigest(std::string_view key);

} // namespace smart::accel

#endif // SMART_ACCEL_HASH_HH
