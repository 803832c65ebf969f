/**
 * @file
 * Exact allocation gate for the warm invocation path.
 *
 * This binary replaces the global operator new with a counting one and
 * drives a small warm, single-node scenario: closed-loop clients
 * invoking one CPU/DPU function on a CPU+DPU server. Heap allocations
 * are a deterministic count, so the gates are hard, with no tolerance:
 *  - in steady state a warm completion allocates at most once (coroutine
 *    frames come from the simulation's FramePool, placement reuses the
 *    scheduler's view buffer, warm-pool keys copy no strings);
 *  - a second fresh Simulation on the same thread allocates exactly as
 *    much as the first (no thread-lifetime cache makes later runs
 *    cheaper than earlier ones);
 *  - a warm Alexa chain, on instances an earlier chain wired, allocates
 *    an exact committed count (the chain's bookkeeping and record; no
 *    XPU-FIFO, client, grant or connection is made again);
 *  - each named cluster shape (the saturated ladder rung, the policy
 *    race under each placement policy, the churn rung) schedules,
 *    allocates and completes exactly its committed counts.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "cluster/scenario.hh"
#include "core/molecule.hh"
#include "hw/computer.hh"
#include "workloads/catalog.hh"

namespace {

std::atomic<std::uint64_t> gAllocs{0};

void *
counted(std::size_t n)
{
    gAllocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n == 0 ? 1 : n))
        return p;
    throw std::bad_alloc();
}

void *
countedAligned(std::size_t n, std::align_val_t al)
{
    gAllocs.fetch_add(1, std::memory_order_relaxed);
    const std::size_t align = std::size_t(al);
    const std::size_t size = (n + align - 1) / align * align;
    if (void *p = std::aligned_alloc(align, size == 0 ? align : size))
        return p;
    throw std::bad_alloc();
}

} // namespace

// The nothrow forms forward to these in libstdc++, so they count too.
void *operator new(std::size_t n) { return counted(n); }
void *operator new[](std::size_t n) { return counted(n); }
void *operator new(std::size_t n, std::align_val_t al)
{
    return countedAligned(n, al);
}
void *operator new[](std::size_t n, std::align_val_t al)
{
    return countedAligned(n, al);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace {

using namespace molecule;

constexpr int kClients = 4;
constexpr int kWarmupPerClient = 50;
constexpr int kSteadyPerClient = 500;

/** Closed loop: @p n back-to-back invocations of helloworld. */
sim::Task<>
client(core::Molecule &rt, int n, std::int64_t *completed)
{
    const std::string fn = "helloworld"; // short: no heap string
    for (int i = 0; i < n; ++i) {
        auto r = co_await rt.invoke(fn);
        if (r.ok() && !r.value().coldStart)
            ++*completed;
    }
}

struct GateRun
{
    /** Allocations of the whole scenario, setup and teardown included. */
    std::uint64_t total = 0;
    /** Allocations of the steady-state phase only. */
    std::uint64_t steady = 0;
    /** Warm completions of the steady-state phase. */
    std::int64_t warmCompletions = 0;
};

GateRun
runScenario()
{
    GateRun out;
    const std::uint64_t start = gAllocs.load();
    {
        sim::Simulation sim;
        auto computer = hw::buildCpuDpuServer(sim, 2, hw::DpuGeneration::Bf1);
        core::Molecule rt(*computer, core::MoleculeOptions{});
        rt.registerCpuFunction("helloworld",
                               {hw::PuType::HostCpu, hw::PuType::Dpu});
        rt.start();

        // Warm-up: cold starts, pool and buffer growth.
        std::int64_t warm = 0;
        for (int c = 0; c < kClients; ++c)
            sim.spawn(client(rt, kWarmupPerClient, &warm));
        sim.run();

        const std::uint64_t before = gAllocs.load();
        for (int c = 0; c < kClients; ++c)
            sim.spawn(client(rt, kSteadyPerClient, &out.warmCompletions));
        sim.run();
        out.steady = gAllocs.load() - before;
    }
    out.total = gAllocs.load() - start;
    return out;
}

TEST(AllocGate, WarmCompletionAllocatesAtMostOnce)
{
    const GateRun run = runScenario();
    RecordProperty("steady_allocs", std::to_string(run.steady));
    ASSERT_EQ(run.warmCompletions, kClients * kSteadyPerClient)
        << "every steady-state invocation must be a warm completion";
    EXPECT_LE(run.steady, std::uint64_t(run.warmCompletions))
        << double(run.steady) / double(run.warmCompletions)
        << " allocations per warm completion";
}

TEST(AllocGate, FreshSimulationAllocatesExactlyAsMany)
{
    const GateRun first = runScenario();
    const GateRun second = runScenario();
    EXPECT_EQ(first.total, second.total);
    EXPECT_EQ(first.steady, second.steady);
    EXPECT_EQ(first.warmCompletions, second.warmCompletions);
}

/**
 * Heap allocations of 40 warm Alexa chains across CPU + 2 DPUs: 16 per
 * chain (its bookkeeping and record), plus the keep-alive pools' deque
 * blocks (504 B, seven parked instances each), which come in bursts of
 * five on 9 of the 40 chains.
 */
constexpr int kWarmChains = 40;
constexpr std::uint64_t kWarmChainAllocs = 40 * 16 + 9 * 5;

TEST(AllocGate, WarmChainAllocatesExactly)
{
    sim::Simulation sim;
    auto computer = hw::buildCpuDpuServer(sim, 2, hw::DpuGeneration::Bf1);
    core::Molecule rt(*computer, core::MoleculeOptions{});
    for (const auto &fn : workloads::Catalog::alexaChain())
        rt.registerCpuFunction(fn, {hw::PuType::HostCpu, hw::PuType::Dpu});
    rt.start();
    const core::ChainSpec spec = core::ChainSpec::alexa();
    const std::vector<int> cross{0, 1, 0, 1, 2};
    // The first chain starts and wires the instances; the second grows
    // what grows once (frame pool, buffers).
    for (int i = 0; i < 2; ++i)
        ASSERT_TRUE(rt.runSync(rt.invokeChain(spec, cross)).ok());
    const std::uint64_t before = gAllocs.load();
    for (int i = 0; i < kWarmChains; ++i)
        ASSERT_TRUE(rt.runSync(rt.invokeChain(spec, cross)).ok());
    EXPECT_EQ(gAllocs.load() - before, kWarmChainAllocs);
}

/**
 * Exact counters of one named cluster shape, seed 42, 10 sim-s: events
 * scheduled, heap allocations and completions, all taken across
 * Scenario::run() (the gateway, the open-loop stream and the drain;
 * fleet boot is outside). Each is a deterministic integer, so the gate
 * has no tolerance: any change, up or down, fails until the constants
 * are re-pinned, with the reason recorded in CHANGES.md.
 */
struct ExactCounts
{
    std::uint64_t events = 0;
    std::uint64_t allocs = 0;
    std::int64_t completed = 0;
};

constexpr std::uint64_t kExactSeed = 42;
const sim::SimTime kExactHorizon = sim::SimTime::fromSeconds(10.0);

ExactCounts
countRun(const cluster::ScenarioSpec &spec)
{
    sim::Simulation sim(kExactSeed);
    cluster::Scenario scenario(sim, spec);
    const std::uint64_t events = sim.eventsScheduled();
    const std::uint64_t allocs = gAllocs.load();
    const cluster::ScenarioResult r = scenario.run();
    ExactCounts out;
    out.allocs = gAllocs.load() - allocs;
    out.events = sim.eventsScheduled() - events;
    out.completed = r.summary.completed;
    return out;
}

void
expectExact(const cluster::ScenarioSpec &spec, const ExactCounts &pinned)
{
    const ExactCounts got = countRun(spec);
    testing::Test::RecordProperty("events", std::to_string(got.events));
    testing::Test::RecordProperty("allocs", std::to_string(got.allocs));
    testing::Test::RecordProperty("completed",
                                  std::to_string(got.completed));
    EXPECT_EQ(got.events, pinned.events);
    EXPECT_EQ(got.allocs, pinned.allocs);
    EXPECT_EQ(got.completed, pinned.completed);
}

/** policyRace at 1.6x its ceiling (overload_warm's rung) with LRU. */
cluster::ScenarioSpec
saturatedRace(const core::PlacementConfig &placement)
{
    cluster::ScenarioSpec spec = cluster::policyRace(
        kExactSeed, 1.6 * cluster::kRaceCeilingPerSecond, kExactHorizon);
    spec.fleet.runtime.placement = placement;
    spec.fleet.runtime.startup.keepAlive = core::KeepAliveConfig::lru();
    return spec;
}

TEST(AllocGate, ExactCountersLadderSaturated)
{
    expectExact(cluster::clusterLadder(
                    kExactSeed, 1.6 * cluster::kLadderAdmittedPerSecond,
                    kExactHorizon),
                {14874, 2085, 3194});
}

TEST(AllocGate, ExactCountersRacePriceOrdered)
{
    expectExact(saturatedRace(core::PlacementConfig::priceOrdered()),
                {38743, 6069, 7699});
}

TEST(AllocGate, ExactCountersRaceLoadAware)
{
    expectExact(saturatedRace(core::PlacementConfig::loadAware()),
                {31969, 4723, 7699});
}

TEST(AllocGate, ExactCountersRaceLocality)
{
    expectExact(saturatedRace(core::PlacementConfig::locality()),
                {31755, 4536, 7699});
}

/** churnRace at cold_churn's 240 inv/s: keep-alive evicts. */
TEST(AllocGate, ExactCountersChurn)
{
    expectExact(cluster::churnRace(kExactSeed, 240.0, kExactHorizon),
                {30374, 22444, 2378});
}

} // namespace
