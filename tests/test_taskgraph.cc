/**
 * @file
 * Work-stealing scheduler stress suite: nested pFor spawned from
 * worker threads, steal storms under FaultInjector ILP stalls,
 * exception propagation out of stolen tasks, the serial-mode
 * contract, task-native trace context, and counter sanity. The
 * bit-identical serial/parallel contract over the real evaluation
 * engine lives in tests/test_parallel_equivalence.cc; this file
 * hammers the substrate itself.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/faultinject.hh"
#include "common/taskgraph.hh"
#include "common/tracespan.hh"
#include "ilp/solver.hh"

namespace
{

using namespace smart;

/** Structurally distinct 0/1 knapsack (same family as the benches). */
ilp::Model
knapsack(int seed)
{
    ilp::Model m;
    ilp::LinExpr w1, w2, obj;
    for (int i = 0; i < 12; ++i) {
        ilp::Var v = m.addBinary();
        w1.add(v, 1.0 + ((i + seed) % 7));
        w2.add(v, 1.0 + ((i + 3 * seed) % 5));
        obj.add(v, 2.0 + ((i + 2 * seed) % 9));
    }
    m.addConstr(w1, ilp::Sense::Le, 16.0);
    m.addConstr(w2, ilp::Sense::Le, 12.0);
    m.setObjective(obj, true);
    return m;
}

TEST(TaskGraphStress, DeeplyNestedPForFromWorkersCoversEveryIndex)
{
    // Three levels of nesting, all spawned from worker threads: the
    // inner chunks are pushed LIFO onto the spawning worker's deque
    // and stolen by idle lanes. Every (i, j, k) cell must be hit
    // exactly once no matter which thread ran which chunk. The whole
    // graph is rooted through submit().get() so it runs on a WORKER
    // (an external joiner helps through the injection queue and, on a
    // small host, can otherwise drain everything itself without any
    // deque ever being touched).
    TaskScheduler sched(4);
    constexpr std::size_t N = 6;
    std::vector<int> hits(N * N * N, 0);
    sched.submit([&] {
             sched.parallelFor(N, [&](std::size_t i) {
                 sched.parallelFor(N, [&](std::size_t j) {
                     sched.parallelFor(N, [&](std::size_t k) {
                         hits[(i * N + j) * N + k]++;
                     });
                 });
             });
         })
        .get();
    for (std::size_t c = 0; c < hits.size(); ++c)
        EXPECT_EQ(hits[c], 1) << "cell " << c;
    const auto s = sched.stats();
    EXPECT_GT(s.tasksRun, 0u);
    EXPECT_GT(s.maxDequeDepth, 0u);
}

TEST(TaskGraphStress, StealStormUnderIlpStallsStaysDeterministic)
{
    // Serial reference objectives first (faults disarmed: values must
    // not depend on the injector).
    constexpr int kOuter = 8, kInner = 8;
    std::vector<double> serial(kOuter * kInner);
    for (int t = 0; t < kOuter * kInner; ++t)
        serial[t] = ilp::solve(knapsack(t)).objective;

    // Storm: every task runs the injector's ILP stall hook, so a
    // worker mid-"solve" sleeps with its deque full of nested chunks
    // and idle lanes sweep-steal them (the stall also yields the CPU,
    // so thieves get scheduled even on a small host). The graph is
    // rooted on a worker via submit().get(): stealable tasks only
    // ever sit in worker deques, never just the injection queue.
    FaultInjector::Config faults;
    faults.ilpStallMs = 0.5;
    FaultInjector::global().configure(faults);
    TaskScheduler sched(4);
    std::vector<double> stormy(kOuter * kInner);
    sched.submit([&] {
             sched.parallelFor(kOuter, [&](std::size_t i) {
                 sched.parallelFor(kInner, [&](std::size_t j) {
                     const int t = static_cast<int>(i * kInner + j);
                     FaultInjector::global().onIlpSolve(); // stall
                     stormy[t] = ilp::solve(knapsack(t)).objective;
                 });
             });
         })
        .get();
    FaultInjector::global().reset();

    EXPECT_EQ(serial, stormy); // bitwise: stalls must not leak in
    const auto s = sched.stats();
    EXPECT_GT(s.steals, 0u)
        << "a stall storm on 4 lanes must provoke actual steals";
}

TEST(TaskGraphStress, ThiefTakesChildFromBusyOwnersDeque)
{
    // A task rooted on a worker pushes one child onto its own deque
    // and then spins WITHOUT helping until the child has run. On two
    // lanes the only thread that can run that child is the other
    // worker, by stealing it from the busy owner's deque; the test
    // thread is blocked in get() and never helps.
    TaskScheduler sched(2);
    auto root = [&sched] {
        std::atomic<bool> ran{false};
        TaskGroup group(sched);
        group.run([&ran] { ran = true; });
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (!ran && std::chrono::steady_clock::now() < deadline)
            std::this_thread::yield();
        const bool seen = ran;
        group.wait(); // runs the child itself if nobody stole it
        return seen;
    };
    EXPECT_TRUE(sched.submit(root).get())
        << "no thief took the child within 10 s";
    EXPECT_GE(sched.stats().steals, 1u);
}

TEST(TaskGraphStress, ExceptionFromStolenTaskPropagatesToJoiner)
{
    TaskScheduler sched(4);
    // The throwing chunk sits behind sleepy siblings on worker
    // deques, so it is routinely executed by a thief; wherever it
    // ran, the joiner must observe the exception.
    for (int round = 0; round < 4; ++round) {
        std::atomic<int> ran{0};
        try {
            sched.parallelFor(64, [&](std::size_t i) {
                sched.parallelFor(4, [&](std::size_t j) {
                    std::this_thread::sleep_for(
                        std::chrono::microseconds(50));
                    ran.fetch_add(1, std::memory_order_relaxed);
                    if (i == 13 && j == 2)
                        throw std::runtime_error("stolen boom");
                });
            });
            FAIL() << "expected a throw (round " << round << ")";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "stolen boom");
        }
        EXPECT_GT(ran.load(), 0);
    }
}

TEST(TaskGraphStress, FaultInjectedIlpThrowSurfacesThroughNestedPFor)
{
    // The injector's hook sits on the scheduling-compiler path (the
    // raw ilp::solve is below it), so the task body invokes the hook
    // the way scheduleIlp does; the FaultInjected it throws must
    // surface through the nested join untranslated.
    FaultInjector::Config faults;
    faults.ilpThrowProb = 1.0;
    FaultInjector::global().configure(faults);
    TaskScheduler sched(4);
    EXPECT_THROW(sched.parallelFor(16,
                                   [&](std::size_t t) {
                                       FaultInjector::global()
                                           .onIlpSolve();
                                       ilp::solve(knapsack(
                                           static_cast<int>(t)));
                                   }),
                 FaultInjected);
    FaultInjector::global().reset();
}

TEST(TaskGraphStress, TaskGroupIsReusableAfterFailureAndSuccess)
{
    TaskScheduler sched(4);
    TaskGroup group(sched);
    group.run([] { throw std::logic_error("first wave"); });
    EXPECT_THROW(group.wait(), std::logic_error);
    // The group must come back clean: a second wave of tasks joins
    // normally and wait() no longer throws.
    std::atomic<int> ok{0};
    for (int i = 0; i < 16; ++i)
        group.run([&] { ok.fetch_add(1, std::memory_order_relaxed); });
    group.wait();
    EXPECT_EQ(ok.load(), 16);
}

TEST(TaskGraphStress, TraceContextFollowsTaskAcrossThreads)
{
    // Contract 3: the spawner's ambient trace id is captured at
    // spawn and re-established around execution on WHICHEVER thread
    // runs the task — workers and thieves included.
    TaskScheduler sched(4);
    constexpr std::uint64_t kTrace = 0x5eed5eedull;
    std::vector<std::uint64_t> seen(128, 0);
    {
        TraceRecorder::TraceScope scope(kTrace);
        sched.parallelFor(seen.size(), [&](std::size_t i) {
            std::this_thread::sleep_for(std::chrono::microseconds(20));
            seen[i] = TraceRecorder::currentTrace();
        });
    }
    for (std::size_t i = 0; i < seen.size(); ++i)
        EXPECT_EQ(seen[i], kTrace) << "task " << i;
}

TEST(TaskGraphStress, SerialSchedulerRunsInlineInSpawnOrder)
{
    // SMART_THREADS=1 contract: width 1 spawns no workers; run(),
    // submit(), and parallelFor all execute inline on the calling
    // thread, in spawn order.
    TaskScheduler sched(1);
    EXPECT_EQ(sched.size(), 1);
    EXPECT_FALSE(sched.onWorkerThread());
    std::vector<std::size_t> order;
    sched.parallelFor(8, [&](std::size_t i) { order.push_back(i); });
    ASSERT_EQ(order.size(), 8u);
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
    auto fut = sched.submit([] { return 5; });
    EXPECT_EQ(fut.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_EQ(fut.get(), 5);
    const auto s = sched.stats();
    EXPECT_EQ(s.tasksRun, 0u); // nothing ever reached a deque
    EXPECT_EQ(s.steals, 0u);
}

TEST(TaskGraphStress, DetachedSubmitStormDrainsAndCounts)
{
    TaskScheduler sched(4);
    constexpr int kTasks = 512;
    std::atomic<int> done{0};
    std::vector<std::future<int>> futs;
    futs.reserve(kTasks);
    for (int i = 0; i < kTasks; ++i)
        futs.push_back(sched.submit([&done, i] {
            done.fetch_add(1, std::memory_order_relaxed);
            return i;
        }));
    for (int i = 0; i < kTasks; ++i)
        EXPECT_EQ(futs[i].get(), i);
    EXPECT_EQ(done.load(), kTasks);
    // Every spawned task was executed and counted. The counter is
    // bumped just after the task body, so the last future can become
    // ready a hair before it settles — give it a moment.
    for (int spin = 0;
         spin < 2000 &&
         sched.stats().tasksRun < static_cast<std::uint64_t>(kTasks);
         ++spin)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_EQ(sched.stats().tasksRun,
              static_cast<std::uint64_t>(kTasks));
}

} // namespace
