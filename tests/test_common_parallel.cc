/**
 * @file
 * Task scheduler tests: parallelFor correctness on the work-stealing
 * substrate, exception propagation, nested parallelFor/submit from
 * worker threads, future-returning submit, and SMART_THREADS parsing.
 * The cache tests live in test_common_cache.cc.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "common/taskgraph.hh"

namespace
{

using namespace smart;

TEST(TaskScheduler, ParallelForCoversEveryIndexOnce)
{
    TaskScheduler sched(4);
    const std::size_t n = 1000;
    std::vector<int> hits(n, 0);
    sched.parallelFor(n, [&](std::size_t i) { hits[i]++; });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i], 1) << "index " << i;
}

TEST(TaskScheduler, ParallelForResultsMatchSerial)
{
    TaskScheduler sched(4);
    const std::size_t n = 257;
    std::vector<double> serial(n), parallel(n);
    for (std::size_t i = 0; i < n; ++i)
        serial[i] = static_cast<double>(i) * 1.5 + 2.0;
    sched.parallelFor(n, [&](std::size_t i) {
        parallel[i] = static_cast<double>(i) * 1.5 + 2.0;
    });
    EXPECT_EQ(serial, parallel);
}

TEST(TaskScheduler, ParallelForZeroAndOne)
{
    TaskScheduler sched(2);
    int calls = 0;
    sched.parallelFor(0, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    sched.parallelFor(1, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 1);
}

TEST(TaskScheduler, ExceptionPropagatesToCaller)
{
    TaskScheduler sched(4);
    EXPECT_THROW(
        sched.parallelFor(100,
                          [&](std::size_t i) {
                              if (i == 37)
                                  throw std::runtime_error("boom");
                          }),
        std::runtime_error);
}

TEST(TaskScheduler, ExceptionAbandonsRemainingWork)
{
    TaskScheduler sched(2);
    std::atomic<int> done{0};
    try {
        sched.parallelFor(100000, [&](std::size_t) {
            done.fetch_add(1);
            throw std::runtime_error("first");
        });
        FAIL() << "expected a throw";
    } catch (const std::runtime_error &) {
    }
    // Chunks poll the group's failure flag: after the first throw, at
    // most the already-started chunks finish their current index.
    EXPECT_LT(done.load(), 100000);
}

TEST(TaskScheduler, SubmitReturnsValueThroughFuture)
{
    TaskScheduler sched(2);
    auto fut = sched.submit([]() { return 6 * 7; });
    EXPECT_EQ(fut.get(), 42);
}

TEST(TaskScheduler, SubmitPropagatesExceptionThroughFuture)
{
    TaskScheduler sched(2);
    auto fut = sched.submit(
        []() -> int { throw std::logic_error("bad"); });
    EXPECT_THROW(fut.get(), std::logic_error);
}

TEST(TaskScheduler, NestedSubmitFromWorkerCompletes)
{
    TaskScheduler sched(2);
    auto outer = sched.submit([&]() {
        EXPECT_TRUE(sched.onWorkerThread());
        // A nested submit must not deadlock even with every other
        // worker busy: the waiting worker helps (drains the task it
        // just spawned — or anything else pending) instead of
        // blocking the lane.
        auto inner = sched.submit([&]() {
            EXPECT_TRUE(sched.onWorkerThread());
            return 99;
        });
        while (inner.wait_for(std::chrono::seconds(0)) !=
               std::future_status::ready)
            sched.helpOne();
        return inner.get() + 1;
    });
    EXPECT_EQ(outer.get(), 100);
}

TEST(TaskScheduler, NestedParallelForRunsAsStealableTasks)
{
    // The fixed-wave pool ran nested parallelFor serially to avoid
    // deadlock; the work-stealing scheduler runs inner chunks as
    // first-class tasks (LIFO on the spawning worker, stealable by
    // idle ones). The observable contract is unchanged: every cell
    // written exactly once.
    TaskScheduler sched(4);
    std::vector<std::vector<int>> grid(8, std::vector<int>(8, 0));
    sched.parallelFor(8, [&](std::size_t i) {
        sched.parallelFor(8, [&](std::size_t j) { grid[i][j] += 1; });
    });
    for (const auto &row : grid)
        for (int v : row)
            EXPECT_EQ(v, 1);
}

TEST(TaskScheduler, CountersSeeTasksAndSteals)
{
    TaskScheduler sched(4);
    std::atomic<int> sink{0};
    // Rooted on a worker via submit().get(): an external joiner helps
    // through the injection queue and on a small host can drain every
    // chunk itself without any deque (or its depth counter) being
    // touched.
    for (int round = 0; round < 8; ++round)
        sched.submit([&] {
                 sched.parallelFor(256, [&](std::size_t) {
                     sink.fetch_add(1, std::memory_order_relaxed);
                 });
             })
            .get();
    const auto s = sched.stats();
    EXPECT_GT(s.tasksRun, 0u);
    EXPECT_GT(s.maxDequeDepth, 0u);
    // Steal counters are workload-dependent (a one-core host may
    // finish chunks before anyone wakes to steal), so only their
    // consistency is asserted here; the taskgraph stress suite
    // exercises forced-steal storms.
    EXPECT_GE(s.steals + s.stealFailures, 0u);
}

TEST(TaskScheduler, ConfiguredThreadsParsesEnv)
{
    const char *old = std::getenv("SMART_THREADS");
    std::string saved = old ? old : "";

    setenv("SMART_THREADS", "7", 1);
    EXPECT_EQ(TaskScheduler::configuredThreads(), 7);
    setenv("SMART_THREADS", "1", 1);
    EXPECT_EQ(TaskScheduler::configuredThreads(), 1);
    setenv("SMART_THREADS", "bogus", 1);
    EXPECT_GE(TaskScheduler::configuredThreads(), 1);

    if (old)
        setenv("SMART_THREADS", saved.c_str(), 1);
    else
        unsetenv("SMART_THREADS");
}

} // namespace
