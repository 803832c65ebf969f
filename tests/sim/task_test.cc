/** @file Unit tests for coroutine tasks over the simulation driver. */

#include <gtest/gtest.h>

#include <algorithm>
#include <coroutine>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/simulation.hh"
#include "sim/sweep.hh"
#include "sim/task.hh"

namespace {

using molecule::sim::Simulation;
using molecule::sim::SimTime;
using molecule::sim::SweepRunner;
using molecule::sim::Task;
using namespace molecule::sim::literals;

Task<>
sleeper(Simulation &sim, SimTime t, std::vector<SimTime> *log)
{
    co_await sim.delay(t);
    log->push_back(sim.now());
}

TEST(Task, DelayAdvancesClock)
{
    Simulation sim;
    std::vector<SimTime> log;
    sim.spawn(sleeper(sim, 10_us, &log));
    sim.run();
    ASSERT_EQ(log.size(), 1u);
    EXPECT_EQ(log[0], 10_us);
    EXPECT_EQ(sim.now(), 10_us);
}

TEST(Task, ParallelTasksInterleaveByTime)
{
    Simulation sim;
    std::vector<SimTime> log;
    sim.spawn(sleeper(sim, 30_us, &log));
    sim.spawn(sleeper(sim, 10_us, &log));
    sim.spawn(sleeper(sim, 20_us, &log));
    sim.run();
    ASSERT_EQ(log.size(), 3u);
    EXPECT_EQ(log[0], 10_us);
    EXPECT_EQ(log[1], 20_us);
    EXPECT_EQ(log[2], 30_us);
}

Task<int>
answer(Simulation &sim)
{
    co_await sim.delay(1_us);
    co_return 42;
}

Task<>
asker(Simulation &sim, int *out)
{
    *out = co_await answer(sim);
}

TEST(Task, ChildTaskReturnsValue)
{
    Simulation sim;
    int out = 0;
    sim.spawn(asker(sim, &out));
    sim.run();
    EXPECT_EQ(out, 42);
    EXPECT_EQ(sim.now(), 1_us);
}

Task<int>
twoStage(Simulation &sim)
{
    int a = co_await answer(sim);
    int b = co_await answer(sim);
    co_return a + b;
}

Task<>
nestedAsker(Simulation &sim, int *out)
{
    *out = co_await twoStage(sim);
}

TEST(Task, NestedChildrenAccumulateTime)
{
    Simulation sim;
    int out = 0;
    sim.spawn(nestedAsker(sim, &out));
    sim.run();
    EXPECT_EQ(out, 84);
    EXPECT_EQ(sim.now(), 2_us);
}

Task<int>
thrower(Simulation &sim)
{
    co_await sim.delay(1_us);
    throw std::runtime_error("boom");
}

Task<>
catcher(Simulation &sim, bool *caught)
{
    try {
        (void)co_await thrower(sim);
    } catch (const std::runtime_error &e) {
        *caught = std::string(e.what()) == "boom";
    }
}

TEST(Task, ExceptionsPropagateThroughAwait)
{
    Simulation sim;
    bool caught = false;
    sim.spawn(catcher(sim, &caught));
    sim.run();
    EXPECT_TRUE(caught);
}

Task<>
synchronous(int *out)
{
    *out = 7;
    co_return;
}

TEST(Task, SpawnRunsEagerlyUntilFirstSuspend)
{
    Simulation sim;
    int out = 0;
    sim.spawn(synchronous(&out));
    // No sim.run() needed: the task never suspended.
    EXPECT_EQ(out, 7);
    EXPECT_EQ(sim.pendingEvents(), 0u);
}

TEST(Task, UnstartedTaskIsDestroyedCleanly)
{
    Simulation sim;
    int out = 0;
    {
        Task<> t = synchronous(&out);
        EXPECT_TRUE(t.valid());
        // dropped without starting
    }
    EXPECT_EQ(out, 0);
}

Task<>
spawnerChain(Simulation &sim, int depth, int *count)
{
    ++*count;
    if (depth > 0) {
        co_await sim.delay(1_us);
        sim.spawn(spawnerChain(sim, depth - 1, count));
    }
}

TEST(Task, TasksCanSpawnTasks)
{
    Simulation sim;
    int count = 0;
    sim.spawn(spawnerChain(sim, 10, &count));
    sim.run();
    EXPECT_EQ(count, 11);
    EXPECT_EQ(sim.now(), 10_us);
}

TEST(Simulation, RunUntilStopsAtDeadline)
{
    Simulation sim;
    std::vector<SimTime> log;
    sim.spawn(sleeper(sim, 10_us, &log));
    sim.spawn(sleeper(sim, 100_us, &log));
    sim.runUntil(50_us);
    EXPECT_EQ(log.size(), 1u);
    EXPECT_EQ(sim.now(), 50_us);
    sim.run();
    EXPECT_EQ(log.size(), 2u);
    EXPECT_EQ(sim.now(), 100_us);
}

TEST(Simulation, ScheduleAndCancel)
{
    Simulation sim;
    int fired = 0;
    auto id = sim.schedule(5_us, [&] { ++fired; });
    sim.schedule(6_us, [&] { ++fired; });
    EXPECT_TRUE(sim.cancel(id));
    sim.run();
    EXPECT_EQ(fired, 1);
}

// ---------------------------------------------------------------------
// Frame pool: frames created during a run come from the simulation's
// own FramePool and go back to the pool they came from.
// ---------------------------------------------------------------------

/** Records the awaiting coroutine's frame address, without suspending. */
struct FrameAddress
{
    const void **out;

    bool await_ready() const noexcept { return false; }

    bool
    await_suspend(std::coroutine_handle<> h) noexcept
    {
        *out = h.address();
        return false;
    }

    void await_resume() const noexcept {}
};

Task<>
frameProbe(Simulation &sim, std::vector<const void *> *frames)
{
    const void *self = nullptr;
    co_await FrameAddress{&self};
    frames->push_back(self);
    co_await sim.delay(1_us);
}

Task<>
probeLoop(Simulation &sim, int n, std::vector<const void *> *frames)
{
    for (int i = 0; i < n; ++i)
        co_await frameProbe(sim, frames);
}

std::set<const void *>
distinct(const std::vector<const void *> &frames)
{
    return {frames.begin(), frames.end()};
}

TEST(FramePool, FramesAreReusedWithinOneSimulation)
{
    Simulation sim;
    std::vector<const void *> frames;
    sim.spawn(probeLoop(sim, 100, &frames));
    sim.run();
    ASSERT_EQ(frames.size(), 100u);
    // Each child dies before the next is created: one block serves all.
    EXPECT_EQ(distinct(frames).size(), 1u);
    EXPECT_EQ(sim.framePool().blocksAllocated(), 1u);
    EXPECT_EQ(sim.framePool().blocksCached(), 1u);
}

TEST(FramePool, TaskCreatedOutsideARunUsesTheHeap)
{
    Simulation sim;
    std::vector<const void *> frames;
    Task<> t = frameProbe(sim, &frames); // no run active: heap frame
    sim.spawn(std::move(t));
    sim.run(); // completes, and is freed, inside the run
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(sim.framePool().blocksAllocated(), 0u);
    EXPECT_EQ(sim.framePool().blocksCached(), 0u);
}

TEST(FramePool, TwoSimulationsOnOneThreadNeverShareBlocks)
{
    Simulation a(1), b(2);
    std::vector<const void *> fa, fb;
    a.spawn(probeLoop(a, 20, &fa));
    b.spawn(probeLoop(b, 20, &fb));
    for (bool more = true; more;) {
        const bool ranA = a.step();
        const bool ranB = b.step();
        more = ranA || ranB;
    }
    ASSERT_EQ(fa.size(), 20u);
    ASSERT_EQ(fb.size(), 20u);
    const auto sa = distinct(fa), sb = distinct(fb);
    EXPECT_EQ(sa.size(), 1u);
    EXPECT_EQ(sb.size(), 1u);
    EXPECT_NE(*sa.begin(), *sb.begin());
    EXPECT_EQ(a.framePool().blocksAllocated(), 1u);
    EXPECT_EQ(b.framePool().blocksAllocated(), 1u);
}

Task<>
stash(Simulation &sim, Task<> *out, std::vector<const void *> *frames)
{
    *out = frameProbe(sim, frames); // created, never started
    co_return;
}

Task<>
drop(Task<> *victim)
{
    Task<> dying = std::move(*victim);
    co_return;
}

TEST(FramePool, FrameReturnsToThePoolItCameFrom)
{
    Simulation a(1), b(2);
    std::vector<const void *> frames;
    Task<> held;
    a.spawn(stash(a, &held, &frames));
    ASSERT_TRUE(held.valid());
    EXPECT_EQ(a.framePool().blocksAllocated(), 1u);
    EXPECT_EQ(a.framePool().blocksCached(), 0u);
    // Destroyed while b is the active pool: the header sends it home.
    b.spawn(drop(&held));
    EXPECT_FALSE(held.valid());
    EXPECT_EQ(a.framePool().blocksCached(), 1u);
    EXPECT_EQ(b.framePool().blocksCached(), 0u);
    EXPECT_EQ(b.framePool().blocksAllocated(), 0u);
}

TEST(FramePool, SweepLanesEachUseTheirOwnPool)
{
    SweepRunner runner(4);
    using Counts = std::pair<std::size_t, std::size_t>;
    const auto counts = runner.map<Counts>(16, [](std::size_t i) {
        Simulation sim(i);
        std::vector<const void *> frames;
        for (int c = 0; c < 3; ++c)
            sim.spawn(probeLoop(sim, 50 + int(i), &frames));
        sim.run();
        return Counts{sim.framePool().blocksAllocated(),
                      sim.framePool().blocksCached()};
    });
    // Three concurrent loops need three blocks, in every lane: a pool
    // shared across lanes would hand out more, or fewer, and race.
    for (const Counts &c : counts) {
        EXPECT_EQ(c.first, 3u);
        EXPECT_EQ(c.second, 3u);
    }
}

#if defined(__SANITIZE_ADDRESS__)
TEST(FramePoolDeathTest, UseOfADestroyedPooledFrameIsReported)
{
    EXPECT_DEATH(
        {
            Simulation sim;
            std::vector<const void *> frames;
            sim.spawn(probeLoop(sim, 1, &frames));
            sim.run();
            // The child frame is parked, poisoned, in the pool.
            const volatile char c =
                *static_cast<const volatile char *>(frames.front());
            (void)c;
        },
        "use-after-poison");
}
#endif

} // namespace
