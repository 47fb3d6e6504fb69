/**
 * @file
 * The one concurrency-safe cache shared by the evaluation workers: a
 * byte-accounted sharded LRU with single-flight getOrCompute(). It
 * backs both the per-layer schedule memo (accel/perf.cc) and the
 * serving layer's result store (serve/service.cc).
 */

#ifndef SMART_COMMON_CACHE_HH
#define SMART_COMMON_CACHE_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "common/threadsafety.hh"

namespace smart
{

/**
 * Sharded LRU cache with byte-accounted capacity — the bounded result
 * store of the serving layer and, through getOrCompute(), the
 * single-flight schedule memo. Each shard owns an intrusive
 * most-recent-first list threaded through heap-allocated nodes plus an
 * index keyed by string_views into the nodes' own key storage, so get
 * and put are O(1) and a key is stored exactly once. When an insert
 * pushes a shard past its share of the byte or entry budget, entries
 * are evicted strictly least-recently-used-first (never a full-shard
 * wipe), and every eviction is counted in Stats — under cache
 * pressure the hit rate degrades to the cold tail instead of
 * collapsing to zero the way clear-on-overflow did.
 *
 * Capacity is enforced per shard (budget / shards, floored, with the
 * shard count clamped to maxEntries so every shard keeps at least one
 * entry) so eviction never takes more than one shard lock; a skewed
 * key distribution can therefore evict slightly before the global
 * budget is reached, never after it. An entry larger than a whole
 * shard budget is refused up front and counted as an eviction —
 * oversized values are not cacheable by definition, and letting one
 * pass through would flush the shard's resident working set.
 *
 * Multi-tenant isolation: put() optionally labels the entry with a
 * tag, and Config::tagBytes bounds each tag's resident bytes (again
 * per shard, floored). A tag pushed past its budget evicts its own
 * least-recently-used entries first — before global pressure is even
 * considered — so one flooding tenant can fill at most its slice of
 * the cache and can never flush another tenant's working set. Per-tag
 * occupancy and eviction counters are aggregated into Stats::tags;
 * an entry's tag is set by the put() that (re)inserts it. Per-tag
 * state is bounded against hostile tag churn: at most kMaxTags
 * distinct tags are tracked per shard (later tags are cached
 * untagged under the global budgets only), and tag rows that carry
 * no information (no entries, no evictions) are dropped eagerly.
 */
template <typename Value>
class LruCache
{
  public:
    struct Config
    {
        std::size_t maxEntries = 0; //!< Entry budget; 0 = unlimited.
        std::size_t maxBytes = 0;   //!< Byte budget; 0 = unlimited.
        /**
         * Per-tag byte budget for tagged put()s; 0 disables tag
         * accounting limits (occupancy counters are still kept for
         * any tagged entries). Enforced per shard like maxBytes.
         */
        std::size_t tagBytes = 0;
        std::size_t shards = 16;    //!< Lock granularity (>= 1).
        /** Deep size of a value; defaults to sizeof(Value). */
        std::function<std::size_t(const Value &)> valueBytes;
    };

    /** One tag's slice of the cache (aggregated over shards). */
    struct TagStats
    {
        std::size_t entries = 0;
        std::size_t bytes = 0;
        std::uint64_t evictions = 0; //!< Entries this tag lost.
    };

    /** Point-in-time counters, aggregated over shards. */
    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t insertions = 0;
        std::uint64_t evictions = 0;
        std::size_t entries = 0;
        std::size_t bytes = 0; //!< Accounted key + value + node bytes.
        /**
         * Per-tag occupancy/eviction slices, ordered by tag for
         * deterministic export. A tag stays listed after its last
         * entry is evicted so cumulative eviction counts survive;
         * tags that never evicted disappear with their last entry,
         * and at most kMaxTags tags are tracked per shard (beyond
         * that, new tags are cached untagged), so this map is
         * bounded no matter what tags clients send.
         */
        std::map<std::string, TagStats> tags;
    };

    explicit LruCache(Config cfg = {}) : cfg_(std::move(cfg))
    {
        if (cfg_.shards < 1)
            cfg_.shards = 1;
        // Budgets are floored per shard (and the shard count clamped
        // so each shard may hold at least one entry): the sum of the
        // shard budgets never exceeds the configured global bound.
        if (cfg_.maxEntries && cfg_.shards > cfg_.maxEntries)
            cfg_.shards = cfg_.maxEntries;
        // The byte budgets get the same treatment: spread too thin
        // over many shards, every slice would be smaller than one
        // small entry and the oversized-refusal path would silently
        // disable the cache (or, for tagBytes, one whole tenant).
        // Shrink the shard count until the tightest slice fits at
        // least a modest entry (or give up sharding).
        constexpr std::size_t kMinShardBytes = kNodeOverhead + 512;
        std::size_t tightest = cfg_.maxBytes;
        if (cfg_.tagBytes && (!tightest || cfg_.tagBytes < tightest))
            tightest = cfg_.tagBytes;
        if (tightest && tightest / cfg_.shards < kMinShardBytes)
            cfg_.shards =
                std::max<std::size_t>(1, tightest / kMinShardBytes);
        if (!cfg_.valueBytes)
            cfg_.valueBytes = [](const Value &) { return sizeof(Value); };
        shardMaxEntries_ =
            cfg_.maxEntries ? cfg_.maxEntries / cfg_.shards : 0;
        shardMaxBytes_ =
            cfg_.maxBytes
                ? std::max<std::size_t>(1, cfg_.maxBytes / cfg_.shards)
                : 0;
        shardTagBytes_ =
            cfg_.tagBytes
                ? std::max<std::size_t>(1, cfg_.tagBytes / cfg_.shards)
                : 0;
        shards_ = std::make_unique<Shard[]>(cfg_.shards);
    }

    /**
     * Copy the value for @p key into @p out and mark it most recently
     * used. Returns false (a counted miss) when absent. Only the
     * refcount is taken under the shard lock; the deep copy happens
     * outside it (the shared_ptr keeps the value alive even if the
     * entry is evicted concurrently), so large values never serialize
     * a shard's hits against its inserts.
     */
    bool get(std::string_view key, Value &out)
    {
        Holder value;
        {
            Shard &shard = shardOf(key);
            LockGuard lock(shard.mu);
            value = touch(shard, key);
            if (!value) {
                ++shard.misses;
                return false;
            }
            ++shard.hits;
        }
        out = *value;
        return true;
    }

    /**
     * Return the value for @p key, computing it with make() on a miss
     * (single-flight): a miss publishes an in-flight future under the
     * shard lock and concurrent callers of the key wait on it. make()
     * runs on the caller's own stack, outside the lock and never
     * through the task pool, so waiting cannot deadlock pool workers;
     * its value is put() untagged, counted and evicted like any entry.
     * If make() throws, nothing is cached, every waiter gets the
     * exception and the next call retries. Computing counts as a miss,
     * anything else as a hit; clear() lets in-flight calls insert.
     */
    template <typename Make>
    Value getOrCompute(std::string_view key, Make &&make)
    {
        Shard &shard = shardOf(key);
        Holder value;
        std::optional<std::promise<Holder>> promise; // set: we compute
        std::shared_future<Holder> fut;
        {
            LockGuard lock(shard.mu);
            value = touch(shard, key);
            if (value) {
                ++shard.hits;
            } else if (auto it = shard.inflight.find(std::string(key));
                       it != shard.inflight.end()) {
                ++shard.hits;
                fut = it->second;
            } else {
                ++shard.misses;
                fut = promise.emplace().get_future().share();
                shard.inflight.emplace(std::string(key), fut);
            }
        }
        if (promise) {
            try {
                Value made = make();
                const std::size_t bytes = entryBytes(key, made);
                auto holder = std::make_shared<const Value>(std::move(made));
                insert(key, holder, bytes, std::string());
                retire(shard, key);
                promise->set_value(holder);
                value = std::move(holder);
            } catch (...) {
                retire(shard, key);
                promise->set_exception(std::current_exception());
            }
        }
        if (!value)
            value = fut.get(); // rethrows a failed computation
        return *value;
    }

    /**
     * Insert @p value (or refresh an existing entry) as most recently
     * used, then evict least-recently-used entries until the shard is
     * back within budget. A value too large to ever fit its shard's
     * byte budget is refused up front (counted as an eviction) so it
     * cannot flush the resident working set on its way through.
     *
     * A non-empty @p tag additionally charges the entry to its
     * budget (Config::tagBytes): a tag over budget evicts its own
     * least-recently-used entries first, before the global bound is
     * even consulted. Refreshing a key re-labels the entry with the
     * new put()'s tag (ownership follows the latest writer). An empty
     * tag means untagged — global accounting only.
     */
    void put(std::string_view key, Value value,
             const std::string &tag = std::string())
    {
        // Size and wrap the value before taking the shard lock; the
        // lock only covers pointer/bookkeeping updates. The node
        // copies the key bytes it keeps.
        const std::size_t bytes = entryBytes(key, value);
        insert(key, std::make_shared<const Value>(std::move(value)),
               bytes, tag);
    }

    /** Aggregate counters across shards (approximate under load). */
    Stats stats() const
    {
        Stats s;
        for (std::size_t i = 0; i < cfg_.shards; ++i) {
            Shard &shard = shards_[i];
            LockGuard lock(shard.mu);
            s.hits += shard.hits;
            s.misses += shard.misses;
            s.insertions += shard.insertions;
            s.evictions += shard.evictions;
            s.entries += shard.index.size();
            s.bytes += shard.bytes;
            for (const auto &[tag, tl] : shard.tags) {
                TagStats &ts = s.tags[tag];
                ts.entries += tl.entries;
                ts.bytes += tl.bytes;
                ts.evictions += tl.evictions;
            }
        }
        return s;
    }

    /** Total entries across shards (approximate under concurrency). */
    std::size_t size() const { return stats().entries; }

    /** Drop every entry; counters (including evictions) persist. */
    void clear()
    {
        for (std::size_t i = 0; i < cfg_.shards; ++i) {
            Shard &shard = shards_[i];
            LockGuard lock(shard.mu);
            shard.index.clear();
            shard.head = shard.tail = nullptr;
            shard.bytes = 0;
            for (auto it = shard.tags.begin();
                 it != shard.tags.end();) {
                it->second.head = it->second.tail = nullptr;
                it->second.bytes = 0;
                it->second.entries = 0;
                // Evictions persist like the global counters; a row
                // left with nothing to report is dropped so cleared
                // tags free their kMaxTags tracking slots.
                if (it->second.evictions == 0)
                    it = shard.tags.erase(it);
                else
                    ++it;
            }
        }
    }

  private:
    using Holder = std::shared_ptr<const Value>;

    /**
     * Intrusive LRU node: owns its key and tag, linked newest-first
     * on the shard's global list and (when tagged) on its tag's list.
     * The value sits behind a shared_ptr so get() can hand out a
     * reference under the lock and deep-copy outside it.
     */
    struct Node
    {
        std::string key;
        std::string tag; //!< Tenant label; empty = untagged.
        Holder value;
        std::size_t bytes = 0;
        Node *prev = nullptr;
        Node *next = nullptr;
        Node *tagPrev = nullptr;
        Node *tagNext = nullptr;
    };

    /** One tag's intrusive recency list + accounting within a shard. */
    struct TagList
    {
        Node *head = nullptr; //!< Tag's most recently used.
        Node *tail = nullptr; //!< Tag's next in-tenant victim.
        std::size_t bytes = 0;
        std::size_t entries = 0;
        std::uint64_t evictions = 0;
    };

    /** Key views into the nodes' own strings (stable: heap nodes). */
    using Index =
        std::unordered_map<std::string_view, std::unique_ptr<Node>>;

    struct Shard
    {
        mutable Mutex mu;
        Index index SMART_GUARDED_BY(mu);
        /** Most recently used. */
        Node *head SMART_GUARDED_BY(mu) = nullptr;
        /** Least recently used (next victim). */
        Node *tail SMART_GUARDED_BY(mu) = nullptr;
        /**
         * Per-tag lists, kept after a tag's last eviction so its
         * cumulative eviction counter survives (rows with no entries
         * and no evictions are dropped). Tags are client-controlled,
         * so tracking is hard-capped at kMaxTags per shard.
         */
        std::map<std::string, TagList> tags SMART_GUARDED_BY(mu);
        /** getOrCompute() computations in progress, by key. */
        std::unordered_map<std::string, std::shared_future<Holder>>
            inflight SMART_GUARDED_BY(mu);
        std::size_t bytes SMART_GUARDED_BY(mu) = 0;
        std::uint64_t hits SMART_GUARDED_BY(mu) = 0;
        std::uint64_t misses SMART_GUARDED_BY(mu) = 0;
        std::uint64_t insertions SMART_GUARDED_BY(mu) = 0;
        std::uint64_t evictions SMART_GUARDED_BY(mu) = 0;
    };

    /** Fixed per-entry overhead charged on top of key + value bytes. */
    static constexpr std::size_t kNodeOverhead = sizeof(Node) + 32;
    /**
     * Most distinct tags tracked per shard. Tags come from clients,
     * so per-tag state must be bounded: beyond this, new tags are
     * cached untagged (see tagTrackable).
     */
    static constexpr std::size_t kMaxTags = 256;

    std::size_t entryBytes(std::string_view key, const Value &value)
    {
        return key.size() + cfg_.valueBytes(value) + kNodeOverhead;
    }

    bool overBudget(const Shard &shard) const
        SMART_REQUIRES(shard.mu)
    {
        return (shardMaxBytes_ && shard.bytes > shardMaxBytes_) ||
               (shardMaxEntries_ &&
                shard.index.size() > shardMaxEntries_);
    }

    static void detach(Shard &shard, Node *n) SMART_REQUIRES(shard.mu)
    {
        if (n->prev)
            n->prev->next = n->next;
        else if (shard.head == n)
            shard.head = n->next;
        if (n->next)
            n->next->prev = n->prev;
        else if (shard.tail == n)
            shard.tail = n->prev;
        n->prev = n->next = nullptr;
    }

    static void pushFront(Shard &shard, Node *n)
        SMART_REQUIRES(shard.mu)
    {
        n->next = shard.head;
        if (shard.head)
            shard.head->prev = n;
        shard.head = n;
        if (!shard.tail)
            shard.tail = n;
    }

    static void tagDetach(TagList &tl, Node *n)
    {
        if (n->tagPrev)
            n->tagPrev->tagNext = n->tagNext;
        else if (tl.head == n)
            tl.head = n->tagNext;
        if (n->tagNext)
            n->tagNext->tagPrev = n->tagPrev;
        else if (tl.tail == n)
            tl.tail = n->tagPrev;
        n->tagPrev = n->tagNext = nullptr;
    }

    static void tagPushFront(TagList &tl, Node *n)
    {
        n->tagNext = tl.head;
        if (tl.head)
            tl.head->tagPrev = n;
        tl.head = n;
        if (!tl.tail)
            tl.tail = n;
    }

    /**
     * Whether @p tag gets (or already has) a tracked TagList in this
     * shard. Tags are client-controlled, so tracking is capped: past
     * kMaxTags distinct tags per shard, a dead row (no resident
     * entries — only a historical eviction count keeps it listed) is
     * reclaimed for the newcomer first, so tag churn can never
     * permanently disable per-tenant isolation for future tenants;
     * only when every slot holds a tag with live entries are new
     * tags cached untagged — global budgets still bound them, only
     * the per-tag slice and counters degrade to best-effort. The
     * bounded reclaim scan runs only at the cap. mu held.
     */
    static bool trackTag(Shard &shard, const std::string &tag)
        SMART_REQUIRES(shard.mu)
    {
        if (tag.empty())
            return false;
        if (shard.tags.count(tag) > 0 ||
            shard.tags.size() < kMaxTags)
            return true;
        for (auto it = shard.tags.begin(); it != shard.tags.end();
             ++it) {
            if (it->second.entries == 0) {
                shard.tags.erase(it); // its eviction history retires
                return true;
            }
        }
        return false;
    }

    /** Charge @p n (already tagged and trackable) to its tag. mu held. */
    static void tagAdd(Shard &shard, Node *n) SMART_REQUIRES(shard.mu)
    {
        TagList &tl = shard.tags[n->tag];
        tl.bytes += n->bytes;
        ++tl.entries;
        tagPushFront(tl, n);
    }

    /**
     * Undo @p n's tag accounting as it leaves its tag (eviction,
     * removal, or a refresh that re-labels it). A tag row that ends
     * up with no entries and no evictions carries no information and
     * is dropped, so transient tags do not accumulate. mu held.
     */
    static void tagUnlink(Shard &shard, Node *n)
        SMART_REQUIRES(shard.mu)
    {
        if (n->tag.empty())
            return;
        auto it = shard.tags.find(n->tag);
        tagDetach(it->second, n);
        it->second.bytes -= n->bytes;
        --it->second.entries;
        if (it->second.entries == 0 && it->second.evictions == 0)
            shard.tags.erase(it);
    }

    /**
     * Unlink @p n from both lists, undo its byte/occupancy
     * accounting, and erase it from the index (which frees it).
     * Eviction counters are the caller's call — a refused oversized
     * put charges one eviction to the incoming entry, not to the
     * stale one it drops. mu held.
     */
    static void removeNode(Shard &shard, typename Index::iterator it)
        SMART_REQUIRES(shard.mu)
    {
        Node *n = it->second.get();
        detach(shard, n);
        shard.bytes -= n->bytes;
        tagUnlink(shard, n);
        shard.index.erase(it);
    }

    /** Evict @p n LRU-style, counting it globally and per tag. */
    static void evictNode(Shard &shard, Node *n)
        SMART_REQUIRES(shard.mu)
    {
        ++shard.evictions;
        if (!n->tag.empty())
            ++shard.tags[n->tag].evictions;
        removeNode(shard, shard.index.find(std::string_view(n->key)));
    }

    /** put()'s locked half: insert or refresh, then enforce budgets. */
    void insert(std::string_view key, Holder holder, std::size_t bytes,
                const std::string &tag)
    {
        Shard &shard = shardOf(key);
        LockGuard lock(shard.mu);
        auto it = shard.index.find(key);
        // The tenant budget only constrains tags that are actually
        // tracked: when every tag slot holds live entries, an entry
        // with a fresh tag is cached untagged, so there is no
        // per-tag slice for it to be oversized for.
        const bool tracked = trackTag(shard, tag);
        const std::size_t tagCap = tracked ? shardTagBytes_ : 0;
        if ((shardMaxBytes_ && bytes > shardMaxBytes_) ||
            (tagCap && bytes > tagCap)) {
            // Oversized for the shard (or for the whole tenant
            // budget): uncacheable by definition. Drop it (and any
            // stale entry it would have refreshed) without evicting
            // the rest of the shard.
            if (it != shard.index.end())
                removeNode(shard, it);
            ++shard.evictions;
            // Charge the refusal to the tag only if it already has a
            // row: a refusal stores nothing, so materializing a row
            // for it would let oversized-value tag churn burn
            // kMaxTags slots without ever caching a byte.
            if (tagCap) {
                auto t = shard.tags.find(tag);
                if (t != shard.tags.end())
                    ++t->second.evictions;
            }
            return;
        }
        if (it != shard.index.end()) {
            Node *n = it->second.get();
            shard.bytes -= n->bytes;
            tagUnlink(shard, n);
            n->value = std::move(holder);
            n->bytes = bytes;
            n->tag = tracked ? tag : std::string();
            shard.bytes += n->bytes;
            detach(shard, n);
            pushFront(shard, n);
            if (!n->tag.empty())
                tagAdd(shard, n);
        } else {
            auto node = std::make_unique<Node>();
            node->key.assign(key.data(), key.size());
            node->value = std::move(holder);
            node->bytes = bytes;
            node->tag = tracked ? tag : std::string();
            Node *n = node.get();
            shard.index.emplace(std::string_view(n->key),
                                std::move(node));
            shard.bytes += n->bytes;
            pushFront(shard, n);
            if (!n->tag.empty())
                tagAdd(shard, n);
            ++shard.insertions;
        }
        if (tagCap) {
            // Tenant budget first: a flooding tenant pays for its own
            // overflow before global pressure can touch anyone else.
            // (find, not operator[]: an untracked tag past kMaxTags
            // has no list and no per-tag budget to enforce.)
            auto tl = shard.tags.find(tag);
            while (tl != shard.tags.end() &&
                   tl->second.bytes > tagCap && tl->second.tail)
                evictNode(shard, tl->second.tail);
        }
        while (overBudget(shard) && shard.tail)
            evictNode(shard, shard.tail);
    }

    /** @p key's value, now most recently used, or null. mu held. */
    static Holder touch(Shard &shard, std::string_view key)
        SMART_REQUIRES(shard.mu)
    {
        auto it = shard.index.find(key);
        if (it == shard.index.end())
            return nullptr;
        Node *n = it->second.get();
        detach(shard, n);
        pushFront(shard, n);
        if (!n->tag.empty()) {
            // Tag recency mirrors global recency, so the entry a
            // tenant-budget eviction picks is the tenant's own
            // least-recently-used, not its oldest insert.
            TagList &tl = shard.tags[n->tag];
            tagDetach(tl, n);
            tagPushFront(tl, n);
        }
        return n->value;
    }

    /** Drop @p key's in-flight marker once its computation settled. */
    static void retire(Shard &shard, std::string_view key)
    {
        LockGuard lock(shard.mu);
        shard.inflight.erase(std::string(key));
    }

    Shard &shardOf(std::string_view key) const
    {
        return shards_[std::hash<std::string_view>{}(key) %
                       cfg_.shards];
    }

    Config cfg_;
    std::size_t shardMaxEntries_ = 0;
    std::size_t shardMaxBytes_ = 0;
    std::size_t shardTagBytes_ = 0;
    std::unique_ptr<Shard[]> shards_;
};

} // namespace smart

#endif // SMART_COMMON_CACHE_HH
