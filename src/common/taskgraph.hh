/**
 * @file
 * Work-stealing task scheduler: the parallel substrate under every
 * batch/sweep/serve workload. Each worker owns a task deque behind
 * one mutex — tasks spawned on a worker push LIFO onto the back of
 * its own deque (hot caches, depth-first descent into nested work),
 * idle workers try_lock a victim and take FIFO from the front (the
 * oldest, widest task), and a thread joining a TaskGroup helps while
 * waiting: it executes pending tasks instead of sleeping, so a parent
 * blocked on children is itself an execution lane. Nested pFor chunks
 * are stealable like any other task, so per-model → per-layer nesting
 * (figure grid, runBatch) and uneven DSE points fill the machine
 * instead of serializing a wave.
 *
 * Every piece of scheduler state outside the stats counters is
 * SMART_GUARDED_BY a smart::Mutex, so clang's thread-safety analysis
 * checks the whole protocol. The only other atomics are one relaxed
 * size hint per deque (thieves skip an empty victim without touching
 * its lock) and TaskGroup's advisory failed() flag.
 *
 * Three contracts:
 *
 *  - Determinism: pFor partitions work by index and callers write
 *    results into pre-sized slots, so serial and stolen execution
 *    produce bit-identical output regardless of which thread runs
 *    which chunk (tests/test_parallel_equivalence.cc is the net).
 *  - SMART_THREADS=1 means fully serial: no worker threads exist and
 *    every task runs inline on the spawning thread, in spawn order.
 *  - Trace context follows the TASK, not the worker thread: run()
 *    and pFor capture the spawner's ambient trace id
 *    (TraceRecorder::currentTrace()) at spawn time and re-establish
 *    it around execution on whichever thread steals the task, so
 *    spans recorded inside nested parallel work attach to the
 *    originating request without per-call-site plumbing.
 *
 * Scheduler counters (tasks run, steals, steal failures, max deque
 * depth) are exported via stats() into the bench/metrics JSON schema
 * so the nested-parallelism win is observable, not anecdotal.
 */

#ifndef SMART_COMMON_TASKGRAPH_HH
#define SMART_COMMON_TASKGRAPH_HH

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/threadsafety.hh"
#include "common/tracespan.hh"

namespace smart
{

class TaskGroup;

/**
 * The scheduler: @p threads workers, one mutex-guarded deque each,
 * plus an injection deque for tasks spawned by threads that are not
 * workers (the serve dispatcher, bench mains, test threads). Thread
 * count 1 spawns no workers at all — every task runs inline on the
 * spawning thread.
 */
class TaskScheduler
{
  public:
    /** Point-in-time scheduler counters (monotonic since start). */
    struct Stats
    {
        std::uint64_t tasksRun = 0; //!< Tasks executed to completion.
        std::uint64_t steals = 0;   //!< Tasks taken from another lane.
        /** Steal attempts that found a non-empty victim's lock held. */
        std::uint64_t stealFailures = 0;
        std::size_t maxDequeDepth = 0; //!< Deepest any deque grew.
    };

    /** Spawn @p threads workers (values <= 1 mean fully serial). */
    explicit TaskScheduler(int threads);

    /** Joins the workers after draining already-spawned tasks. */
    ~TaskScheduler();

    TaskScheduler(const TaskScheduler &) = delete;
    TaskScheduler &operator=(const TaskScheduler &) = delete;

    /**
     * Parallelism width (>= 1): the worker count, or 1 in serial
     * mode. This is the "threads" every JSON report carries.
     */
    int size() const { return width_; }

    /** True when the calling thread is one of this scheduler's workers. */
    bool onWorkerThread() const;

    /**
     * Run fn(i) for every i in [0, n), subdividing the range into
     * stealable chunks. Blocks until every index ran; the first
     * exception thrown by any fn(i) is rethrown in the caller after
     * remaining indices are abandoned. Nested calls (from inside a
     * task) spawn real stealable tasks.
     * Determinism: indices map to pre-partitioned chunks, so writes
     * into pre-sized slot i are bit-identical to a serial loop.
     */
    template <typename Fn>
    void parallelFor(std::size_t n, Fn &&fn);

    /**
     * Submit a detached nullary task; the future carries its return
     * value or exception. In serial mode the task runs inline (the
     * returned future is already ready).
     */
    template <typename Fn>
    auto submit(Fn &&fn) -> std::future<std::invoke_result_t<Fn &>>;

    /**
     * The process-wide scheduler, created on first use. Its width
     * comes from SMART_THREADS when set (clamped to [1, 256]),
     * otherwise from std::thread::hardware_concurrency().
     */
    static TaskScheduler &global();

    /** The thread count global() uses (env parsing exposed for tests). */
    static int configuredThreads();

    /** Aggregate counters (relaxed reads; exact once quiescent). */
    Stats stats() const;

    /**
     * Run one pending task on the calling thread if any is runnable
     * (own deque first, then a steal sweep, then the injection
     * queue). Returns false when nothing was found — the building
     * block of the help-while-waiting join.
     */
    bool helpOne();

    /** One unit of work: the closure, its join group, its trace context. */
    struct Task
    {
        std::function<void()> fn;
        TaskGroup *group = nullptr; //!< Null for detached submit()s.
        std::uint64_t traceId = 0;  //!< Spawner's ambient trace id.
    };
    // Defined in taskgraph.cc; public so the thread-local worker slot
    // can name it.
    struct Worker;

  private:
    friend class TaskGroup;

    /**
     * A task deque behind one mutex. The owner pushes and pops at the
     * back; thieves take the front. The relaxed size hint is written
     * under the lock and lets a taker skip an empty deque without
     * touching the lock; the lock re-decides every take.
     */
    class Deque
    {
      public:
        /** Append @p t; returns the new depth for the max gauge. */
        std::size_t push(Task t) SMART_EXCLUDES(mu_);
        /** Owner: LIFO take from the back. */
        std::optional<Task> popBack() SMART_EXCLUDES(mu_);
        /** FIFO take from the front, waiting for the lock. */
        std::optional<Task> popFront() SMART_EXCLUDES(mu_);
        /** Thief: FIFO take if the lock is free; @p busy if it was not. */
        std::optional<Task> steal(bool &busy) SMART_EXCLUDES(mu_);

      private:
        std::optional<Task> takeLocked(bool back) SMART_REQUIRES(mu_);

        Mutex mu_;
        std::deque<Task> tasks_ SMART_GUARDED_BY(mu_);
        std::atomic<std::size_t> sizeHint_{0};
    };

    /** Type-erased spawn: enqueue @p fn as a task owned by @p group. */
    void spawnImpl(std::function<void()> fn, TaskGroup *group);

    void runTask(Task &t);
    std::optional<Task> findTask(Worker *self);
    std::optional<Task> stealTask(Worker *self);
    void workerLoop(Worker *self);

    int width_ = 1;
    std::vector<std::unique_ptr<Worker>> workers_;

    /** Tasks spawned by non-worker threads (FIFO). */
    Deque injected_;

    /** Sleep/wake plumbing: idleCv_ waits on ready_ and stopping_. */
    Mutex idleMu_;
    std::condition_variable idleCv_;
    /** Spawned-but-not-yet-taken task count (the wakeup predicate). */
    std::size_t ready_ SMART_GUARDED_BY(idleMu_) = 0;
    bool stopping_ SMART_GUARDED_BY(idleMu_) = false;

    // Counters (relaxed; coarse tasks make contention irrelevant).
    std::atomic<std::uint64_t> tasksRun_{0};
    std::atomic<std::uint64_t> steals_{0};
    std::atomic<std::uint64_t> stealFailures_{0};
    std::atomic<std::size_t> maxDepth_{0};

    /** Declared last: the workers use every member above. */
    std::vector<std::thread> threads_;
};

/**
 * A join scope over spawned tasks: run() spawns, wait() blocks until
 * every spawned task finished — executing pending tasks itself while
 * it waits — then rethrows the first captured exception. Groups may
 * nest arbitrarily (a task may open its own group); the group object
 * must outlive its tasks, which wait() and the destructor guarantee.
 */
class TaskGroup
{
  public:
    explicit TaskGroup(TaskScheduler &sched = TaskScheduler::global())
        : sched_(sched)
    {
    }

    /** Waits for stragglers; a pending exception is dropped here. */
    ~TaskGroup() { drain(); }

    TaskGroup(const TaskGroup &) = delete;
    TaskGroup &operator=(const TaskGroup &) = delete;

    /**
     * Spawn one child task. The spawner's ambient trace id is
     * captured here and re-established around fn() on whichever
     * thread executes it. In serial mode fn() runs inline now; its
     * exception is still deferred to wait() for parity.
     */
    template <typename Fn>
    void run(Fn &&fn)
    {
        if (sched_.size() <= 1) {
            try {
                fn();
            } catch (...) {
                fail(std::current_exception());
            }
            return;
        }
        {
            LockGuard lock(mu_);
            ++pending_;
        }
        sched_.spawnImpl(std::function<void()>(std::forward<Fn>(fn)),
                         this);
    }

    /**
     * Block until every run() task finished, helping with pending
     * work (this group's or anyone's) instead of sleeping. Rethrows
     * the first exception any child threw; the group is reusable
     * afterwards.
     */
    void wait()
    {
        if (std::exception_ptr e = drain())
            std::rethrow_exception(e);
    }

    /**
     * Has any child thrown? pFor chunks poll this to abandon
     * remaining indices after a failure.
     */
    bool failed() const
    {
        // memory_order: relaxed — an advisory early-abandon poll; the
        // authoritative read of error_ happens under mu_ in drain().
        return failed_.load(std::memory_order_relaxed);
    }

  private:
    friend class TaskScheduler;

    /**
     * Help until pending_ reaches zero. The only exit is observing
     * zero under mu_, and the last finish() decrements and notifies
     * under the same lock, so no finisher can still be signalling
     * this group after help() returns (and the group is destroyed).
     * The 1 ms timeout lets a joiner that found nothing to run pick up
     * tasks spawned meanwhile; it is not the wakeup path.
     */
    void help() SMART_EXCLUDES(mu_)
    {
        LockGuard lock(mu_);
        while (pending_ != 0) {
            lock.unlock();
            const bool ran = sched_.helpOne();
            lock.lock();
            if (!ran && pending_ != 0)
                lock.waitUntil(waitCv_, std::chrono::steady_clock::now() +
                                            std::chrono::milliseconds(1));
        }
    }

    /** Help until done, then take (and clear) the first exception. */
    std::exception_ptr drain() SMART_EXCLUDES(mu_)
    {
        help();
        LockGuard lock(mu_);
        // memory_order: relaxed — failed_ mirrors error_, which mu_
        // guards; the flag itself orders nothing.
        failed_.store(false, std::memory_order_relaxed);
        return std::exchange(error_, nullptr);
    }

    /** Capture the first child exception (later ones are dropped). */
    void fail(std::exception_ptr e) SMART_EXCLUDES(mu_)
    {
        LockGuard lock(mu_);
        if (!error_) {
            error_ = std::move(e);
            // memory_order: relaxed — see drain().
            failed_.store(true, std::memory_order_relaxed);
        }
    }

    /** One child retired; the last one wakes the joiner. */
    void finish() SMART_EXCLUDES(mu_)
    {
        LockGuard lock(mu_);
        if (--pending_ == 0)
            waitCv_.notify_all();
    }

    TaskScheduler &sched_;
    Mutex mu_;
    std::condition_variable waitCv_;
    std::size_t pending_ SMART_GUARDED_BY(mu_) = 0;
    std::exception_ptr error_ SMART_GUARDED_BY(mu_);
    /** Set with error_; polled lock-free by failed(). */
    std::atomic<bool> failed_{false};
};

template <typename Fn>
void
TaskScheduler::parallelFor(std::size_t n, Fn &&fn)
{
    if (n == 0)
        return;
    if (n == 1 || size() <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    // Oversubdivide so uneven chunk costs rebalance by stealing, but
    // keep chunks >= 1 index so tiny ranges spawn n tasks at most.
    const std::size_t chunk = std::max<std::size_t>(
        1, n / (static_cast<std::size_t>(size()) * 8));
    TaskGroup group(*this);
    for (std::size_t lo = 0; lo < n; lo += chunk) {
        const std::size_t hi = std::min(n, lo + chunk);
        group.run([&fn, &group, lo, hi] {
            for (std::size_t i = lo; i < hi; ++i) {
                if (group.failed())
                    return; // abandon after a failure elsewhere
                fn(i);
            }
        });
    }
    group.wait();
}

template <typename Fn>
auto
TaskScheduler::submit(Fn &&fn)
    -> std::future<std::invoke_result_t<Fn &>>
{
    using Ret = std::invoke_result_t<Fn &>;
    auto task =
        std::make_shared<std::packaged_task<Ret()>>(std::forward<Fn>(fn));
    std::future<Ret> fut = task->get_future();
    if (size() <= 1) {
        (*task)();
        return fut;
    }
    // packaged_task captures any exception into the future, so this
    // detached task cannot throw into the scheduler.
    spawnImpl([task]() { (*task)(); }, nullptr);
    return fut;
}

/** pFor on the global scheduler (the substrate's workhorse verb). */
template <typename Fn>
void
pFor(std::size_t n, Fn &&fn)
{
    TaskScheduler::global().parallelFor(n, std::forward<Fn>(fn));
}

} // namespace smart

#endif // SMART_COMMON_TASKGRAPH_HH
