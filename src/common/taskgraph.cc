/**
 * @file
 * TaskScheduler internals: the mutex-guarded deque, the worker loop,
 * the steal sweep and the sleep protocol. A thief try_locks its
 * victim and counts a held lock as a steal failure; the caller's
 * outer loop retries. A worker sleeps on idleCv_ only while ready_ —
 * the count of spawned tasks nobody has taken yet — is zero, and
 * every spawn bumps ready_ under idleMu_ before it notifies, so a
 * wakeup cannot fall between a worker's last look and its wait.
 */

#include "common/taskgraph.hh"

#include <cstdlib>

#include "common/logging.hh"

namespace smart
{

struct TaskScheduler::Worker
{
    Deque deque;
    std::size_t index = 0;
};

namespace
{

/** The worker identity of the current thread, if any. */
thread_local TaskScheduler::Worker *tl_worker = nullptr;
thread_local const TaskScheduler *tl_scheduler = nullptr;

} // namespace

std::size_t
TaskScheduler::Deque::push(Task t)
{
    LockGuard lock(mu_);
    tasks_.push_back(std::move(t));
    // memory_order: relaxed — the hint only lets a taker skip an empty
    // deque; the mutex orders the task itself.
    sizeHint_.store(tasks_.size(), std::memory_order_relaxed);
    return tasks_.size();
}

std::optional<TaskScheduler::Task>
TaskScheduler::Deque::takeLocked(bool back)
{
    if (tasks_.empty())
        return std::nullopt;
    std::optional<Task> t;
    if (back) {
        t.emplace(std::move(tasks_.back()));
        tasks_.pop_back();
    } else {
        t.emplace(std::move(tasks_.front()));
        tasks_.pop_front();
    }
    // memory_order: relaxed — see push().
    sizeHint_.store(tasks_.size(), std::memory_order_relaxed);
    return t;
}

std::optional<TaskScheduler::Task>
TaskScheduler::Deque::popBack()
{
    // memory_order: relaxed — a stale nonzero hint costs one lock; a
    // zero read is re-checked after the caller syncs on idleMu_.
    if (sizeHint_.load(std::memory_order_relaxed) == 0)
        return std::nullopt;
    LockGuard lock(mu_);
    return takeLocked(true);
}

std::optional<TaskScheduler::Task>
TaskScheduler::Deque::popFront()
{
    // memory_order: relaxed — see popBack().
    if (sizeHint_.load(std::memory_order_relaxed) == 0)
        return std::nullopt;
    LockGuard lock(mu_);
    return takeLocked(false);
}

std::optional<TaskScheduler::Task>
TaskScheduler::Deque::steal(bool &busy)
{
    busy = false;
    // memory_order: relaxed — see popBack().
    if (sizeHint_.load(std::memory_order_relaxed) == 0)
        return std::nullopt;
    if (!mu_.try_lock()) {
        busy = true;
        return std::nullopt;
    }
    std::optional<Task> t = takeLocked(false);
    mu_.unlock();
    return t;
}

TaskScheduler::TaskScheduler(int threads)
{
    width_ = std::max(1, threads);
    if (width_ <= 1)
        return; // fully serial: no workers, everything runs inline
    workers_.reserve(width_);
    for (int i = 0; i < width_; ++i) {
        workers_.push_back(std::make_unique<Worker>());
        workers_.back()->index = static_cast<std::size_t>(i);
    }
    threads_.reserve(width_);
    for (int i = 0; i < width_; ++i)
        threads_.emplace_back(
            [this, w = workers_[i].get()]() { workerLoop(w); });
}

TaskScheduler::~TaskScheduler()
{
    {
        LockGuard lock(idleMu_);
        stopping_ = true;
    }
    idleCv_.notify_all();
    for (auto &t : threads_)
        t.join();
}

bool
TaskScheduler::onWorkerThread() const
{
    return tl_scheduler == this;
}

void
TaskScheduler::spawnImpl(std::function<void()> fn, TaskGroup *group)
{
    Task task{std::move(fn), group, TraceRecorder::currentTrace()};
    if (onWorkerThread()) {
        const std::size_t depth = tl_worker->deque.push(std::move(task));
        // memory_order: relaxed — maxDepth_ is a monotonic gauge read
        // only by stats(); it orders nothing.
        std::size_t prev = maxDepth_.load(std::memory_order_relaxed);
        while (prev < depth &&
               !maxDepth_.compare_exchange_weak(
                   prev, depth, std::memory_order_relaxed))
            ;
    } else {
        injected_.push(std::move(task));
    }
    {
        LockGuard lock(idleMu_);
        ++ready_;
    }
    idleCv_.notify_one();
}

std::optional<TaskScheduler::Task>
TaskScheduler::stealTask(Worker *self)
{
    const std::size_t n = workers_.size();
    if (n == 0)
        return std::nullopt;
    // Start the sweep after ourselves (or a thread-id-derived point
    // for external thieves) so thieves spread over victims.
    const std::size_t start =
        self ? self->index + 1
             : std::hash<std::thread::id>{}(
                   std::this_thread::get_id());
    for (std::size_t k = 0; k < n; ++k) {
        Worker *victim = workers_[(start + k) % n].get();
        if (victim == self)
            continue;
        bool busy = false;
        std::optional<Task> t = victim->deque.steal(busy);
        // memory_order: relaxed — steals_/stealFailures_ are stats()
        // counters only; they order nothing.
        if (t) {
            steals_.fetch_add(1, std::memory_order_relaxed);
            return t;
        }
        if (busy)
            stealFailures_.fetch_add(1, std::memory_order_relaxed);
    }
    return std::nullopt;
}

std::optional<TaskScheduler::Task>
TaskScheduler::findTask(Worker *self)
{
    std::optional<Task> t;
    if (self)
        t = self->deque.popBack();
    if (!t)
        t = stealTask(self);
    if (!t)
        t = injected_.popFront();
    if (t) {
        LockGuard lock(idleMu_);
        --ready_;
    }
    return t;
}

void
TaskScheduler::runTask(Task &t)
{
    // Scheduler-native task context: the spawner's ambient trace id
    // travels with the task across steals.
    TraceRecorder::TraceScope trace(t.traceId);
    try {
        t.fn();
    } catch (...) {
        if (t.group)
            t.group->fail(std::current_exception());
        // Detached tasks wrap a packaged_task and cannot throw.
    }
    // Destroy the closure before the join can release its captures.
    t.fn = nullptr;
    // memory_order: relaxed — tasksRun_ is a stats() counter only.
    tasksRun_.fetch_add(1, std::memory_order_relaxed);
    if (t.group)
        t.group->finish();
}

bool
TaskScheduler::helpOne()
{
    std::optional<Task> t = findTask(onWorkerThread() ? tl_worker : nullptr);
    if (!t)
        return false;
    runTask(*t);
    return true;
}

void
TaskScheduler::workerLoop(Worker *self)
{
    tl_worker = self;
    tl_scheduler = this;
    for (;;) {
        if (std::optional<Task> t = findTask(self)) {
            runTask(*t);
            continue;
        }
        // Sleep only while nothing is ready; a nonzero ready_ with an
        // empty sweep means a take is in flight, so sweep again.
        LockGuard lock(idleMu_);
        while (ready_ == 0 && !stopping_)
            lock.wait(idleCv_);
        if (ready_ == 0)
            return; // stopping, and every spawned task was taken
    }
}

TaskScheduler::Stats
TaskScheduler::stats() const
{
    Stats s;
    // memory_order: relaxed — point-in-time counter snapshot; exact
    // only once the scheduler is quiescent, as documented.
    s.tasksRun = tasksRun_.load(std::memory_order_relaxed);
    s.steals = steals_.load(std::memory_order_relaxed);
    s.stealFailures = stealFailures_.load(std::memory_order_relaxed);
    s.maxDequeDepth = maxDepth_.load(std::memory_order_relaxed);
    return s;
}

int
TaskScheduler::configuredThreads()
{
    if (const char *env = std::getenv("SMART_THREADS")) {
        char *end = nullptr;
        const long v = std::strtol(env, &end, 10);
        if (end != env && *end == '\0' && v >= 1)
            return static_cast<int>(std::min<long>(v, 256));
        smart_warn("ignoring invalid SMART_THREADS='", env, "'");
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
}

TaskScheduler &
TaskScheduler::global()
{
    static TaskScheduler sched(configuredThreads());
    return sched;
}

} // namespace smart
