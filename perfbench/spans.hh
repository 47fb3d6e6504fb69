/**
 * @file
 * In-memory span log of the benchmark's traced runs. Each span records
 * its name, start, end, parent span and the trace id of the grid point
 * or request it belongs to. Spans are recorded by the benchmark around
 * its own calls into the library's public functions; nothing inside
 * the library is instrumented. At exit the log is written as Chrome
 * trace-event JSON (loadable in Perfetto) with each span's self time:
 * its duration minus the part of it that its children cover.
 */

#ifndef SMART_PERFBENCH_SPANS_HH
#define SMART_PERFBENCH_SPANS_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Nanoseconds since the log's epoch. */
inline std::int64_t
nsSince(Clock::time_point epoch, Clock::time_point t)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch)
        .count();
}

struct Span
{
    const char *name = "";
    std::uint64_t traceId = 0;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    int parent = -1; //!< Index of the parent span; -1 for a root.
    std::uint32_t tid = 0;
};

class SpanLog
{
  public:
    /** A disabled log records nothing and hands out id -1. */
    explicit SpanLog(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Open a span now; returns its id (pass to end()). */
    int begin(const char *name, std::uint64_t traceId, int parent)
    {
        if (!enabled_)
            return -1;
        const std::int64_t now = nsSince(epoch_, Clock::now());
        std::lock_guard<std::mutex> lock(mu_);
        spans_.push_back({name, traceId, now, now, parent, threadIndex()});
        return static_cast<int>(spans_.size() - 1);
    }

    void end(int id)
    {
        if (id < 0)
            return;
        const std::int64_t now = nsSince(epoch_, Clock::now());
        std::lock_guard<std::mutex> lock(mu_);
        spans_[static_cast<std::size_t>(id)].endNs = now;
    }

    /** Record a finished span from timestamps taken elsewhere. */
    int record(const char *name, std::uint64_t traceId, Clock::time_point start,
               Clock::time_point end, int parent)
    {
        if (!enabled_)
            return -1;
        std::lock_guard<std::mutex> lock(mu_);
        spans_.push_back({name, traceId, nsSince(epoch_, start),
                          nsSince(epoch_, end), parent, threadIndex()});
        return static_cast<int>(spans_.size() - 1);
    }

    /** Durations (ms) of every finished span called @p name. */
    std::vector<double> durationsMs(const std::string &name) const
    {
        std::lock_guard<std::mutex> lock(mu_);
        std::vector<double> out;
        for (const auto &s : spans_)
            if (name == s.name)
                out.push_back(static_cast<double>(s.endNs - s.startNs) * 1e-6);
        return out;
    }

    /**
     * Self time of every span (ns): duration minus the union of its
     * children's intervals clipped to it. Children on other threads
     * count once however much they overlap each other.
     */
    std::vector<std::int64_t> selfTimesNs() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
            spans_.size());
        for (const auto &s : spans_)
            if (s.parent >= 0)
                kids[static_cast<std::size_t>(s.parent)].push_back(
                    {s.startNs, s.endNs});
        std::vector<std::int64_t> self(spans_.size());
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            auto &iv = kids[i];
            std::sort(iv.begin(), iv.end());
            std::int64_t covered = 0;
            std::int64_t cursor = s.startNs;
            for (auto [lo, hi] : iv) {
                lo = std::max(lo, cursor);
                hi = std::min(hi, s.endNs);
                if (hi > lo) {
                    covered += hi - lo;
                    cursor = hi;
                }
            }
            self[i] = (s.endNs - s.startNs) - covered;
        }
        return self;
    }

    /** Chrome trace-event JSON ("X" complete events, microseconds). */
    void writeChromeJson(std::ostream &os) const
    {
        const auto self = selfTimesNs();
        std::lock_guard<std::mutex> lock(mu_);
        os << "{\"traceEvents\":[";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            os << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
               << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
               << ",\"ts\":" << static_cast<double>(s.startNs) * 1e-3
               << ",\"dur\":" << static_cast<double>(s.endNs - s.startNs) * 1e-3
               << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
               << ",\"trace_id\":" << s.traceId
               << ",\"self_us\":" << static_cast<double>(self[i]) * 1e-3
               << "}}";
        }
        os << "\n],\"displayTimeUnit\":\"ms\"}\n";
    }

  private:
    /** Small dense id of the calling thread (Chrome "tid"). */
    std::uint32_t threadIndex()
    {
        const auto id = std::this_thread::get_id();
        for (std::size_t i = 0; i < threads_.size(); ++i)
            if (threads_[i] == id)
                return static_cast<std::uint32_t>(i);
        threads_.push_back(id);
        return static_cast<std::uint32_t>(threads_.size() - 1);
    }

    const bool enabled_;
    const Clock::time_point epoch_ = Clock::now();
    mutable std::mutex mu_;
    std::vector<Span> spans_;               // guarded by mu_
    std::vector<std::thread::id> threads_;  // guarded by mu_
};

/** RAII span: open on construction, close on destruction. */
class SpanScope
{
  public:
    SpanScope(SpanLog &log, const char *name, std::uint64_t traceId = 0,
              int parent = -1)
        : log_(log), id_(log.begin(name, traceId, parent))
    {}
    ~SpanScope() { log_.end(id_); }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    int id() const { return id_; }

  private:
    SpanLog &log_;
    const int id_;
};

} // namespace perfbench

#endif // SMART_PERFBENCH_SPANS_HH
