/**
 * @file
 * Fleet: construction, catalog fan-out, core table — and the cluster
 * golden: generator and fleet digests bit-identical across replays,
 * serial and on sim::SweepRunner workers, and with the whole
 * observation stack attached.
 */

#include "cluster/fleet.hh"

#include <gtest/gtest.h>

#include <optional>

#include "cluster/scenario.hh"
#include "obs/flight_recorder.hh"
#include "obs/slo.hh"
#include "obs/timeseries.hh"
#include "obs/trace.hh"
#include "sim/simulation.hh"
#include "sim/sweep.hh"

namespace {

using namespace molecule;
using cluster::Fleet;
using cluster::FleetSpec;
using sim::SimTime;

TEST(FleetTest, BuildsTheRequestedShape)
{
    sim::Simulation sim;
    FleetSpec spec;
    spec.nodes = 3;
    spec.dpusPerNode = 2;
    Fleet fleet(sim, spec);
    EXPECT_EQ(fleet.size(), 3);
    EXPECT_EQ(fleet.totalPus(), 9); // host + 2 DPUs per node
    for (int i = 0; i < fleet.size(); ++i)
        EXPECT_EQ(fleet.computer(i).puCount(), 3);
}

TEST(FleetTest, CoreTableCoversEveryPu)
{
    sim::Simulation sim;
    FleetSpec spec;
    spec.nodes = 2;
    spec.dpusPerNode = 1;
    Fleet fleet(sim, spec);
    const auto cores = fleet.coreTable();
    EXPECT_EQ(int(cores.size()), fleet.totalPus());
    for (const auto &[key, n] : cores)
        EXPECT_GT(n, 0);
}

TEST(FleetTest, RegistrationFansOutToEveryNode)
{
    sim::Simulation sim;
    FleetSpec spec;
    spec.nodes = 2;
    spec.dpusPerNode = 1;
    Fleet fleet(sim, spec);
    fleet.registerCpuFunction("helloworld",
                              {hw::PuType::HostCpu, hw::PuType::Dpu});
    fleet.start();
    for (int i = 0; i < fleet.size(); ++i) {
        const auto rec = fleet.node(i).runSync(
            fleet.node(i).invoke("helloworld"));
        ASSERT_TRUE(rec.ok()) << "node " << i;
        EXPECT_GT(rec.value().endToEnd, SimTime(0));
    }
}

constexpr std::uint64_t kSeeds[] = {42, 7, 1, 1234, 5678};

/**
 * Everything that can watch a cluster run: a tracer on every node, a
 * TimeSeries with an SloMonitor and a FlightRecorder behind it.
 */
struct Observers
{
    Observers(sim::Simulation &sim, std::uint64_t seed,
              std::uint32_t tenants)
        : tracer(sim, seed), ts(sim, {SimTime::milliseconds(250)}),
          monitor(ts, sloSpec(tenants)), recorder(ts)
    {
        monitor.addSink(&recorder);
        recorder.attachTracer(tracer);
    }

    static obs::SloSpec
    sloSpec(std::uint32_t tenants)
    {
        obs::SloSpec spec;
        spec.tenants = tenants;
        spec.objectives = {{.name = "latency-p99", .thresholdUs = 5'000.0}};
        return spec;
    }

    obs::Tracer tracer;
    obs::TimeSeries ts;
    obs::SloMonitor monitor;
    obs::FlightRecorder recorder;
};

/**
 * One small end-to-end cluster run; returns (stream, fleet) digests.
 * @p observed also enables the conflict detector and attaches the
 * Observers, which must see the run without changing it.
 */
std::pair<std::uint64_t, std::uint64_t>
goldenRun(std::uint64_t seed, bool observed = false)
{
    load::TraceSpec trace;
    trace.seed = seed;
    trace.ratePerSecond = 120.0;
    trace.duration = SimTime::fromSeconds(3);
    trace.functions = {"helloworld", "pyaes"};
    trace.tenants = {
        {"alpha", 2.0, 1.2, 1},
        {"beta", 1.0, 0.9, 2},
    };

    sim::Simulation sim(seed);
    std::optional<Observers> observers;
    if (observed) {
        sim.enableConflictTracking();
        observers.emplace(sim, seed, trace.tenantCount());
    }
    cluster::ScenarioSpec spec;
    spec.fleet.nodes = 2;
    spec.fleet.dpusPerNode = 1;
    if (observers)
        spec.fleet.runtime.tracer = &observers->tracer;
    spec.trace = trace;
    spec.admission.tokensPerSecond = 100.0;
    spec.admission.bucketCapacity = 20.0;
    cluster::Scenario scenario(sim, spec);

    cluster::WarmAffinityPolicy policy;
    cluster::ScenarioHooks hooks{.dispatch = &policy};
    if (observers) {
        scenario.stats().attachTelemetry(&observers->ts);
        hooks.recorder = &observers->recorder;
    }
    const cluster::ScenarioResult run = scenario.run(hooks);
    if (observers) {
        // Each observer really watched the run.
        observers->ts.flush();
        EXPECT_GT(observers->tracer.records().size(), 0u);
        EXPECT_GT(observers->ts.windowsClosed(), 0u);
        EXPECT_GT(sim.accessLog()->recordCount(), 0u);
    }
    return {load::streamDigest(trace), run.statsDigest};
}

TEST(ClusterGoldenTest, DigestsReplayBitForBitSerially)
{
    for (std::uint64_t seed : {42ULL, 7ULL, 1ULL}) {
        const auto a = goldenRun(seed);
        const auto b = goldenRun(seed);
        EXPECT_EQ(a.first, b.first) << "stream, seed " << seed;
        EXPECT_EQ(a.second, b.second) << "fleet, seed " << seed;
    }
}

TEST(ClusterGoldenTest, ThreadedReplicasMatchTheSerialGolden)
{
    constexpr std::size_t kN = std::size(kSeeds);

    std::vector<std::pair<std::uint64_t, std::uint64_t>> serial;
    serial.reserve(kN);
    for (std::uint64_t seed : kSeeds)
        serial.push_back(goldenRun(seed));

    sim::SweepRunner pool;
    using Digests = std::pair<std::uint64_t, std::uint64_t>;
    const auto threaded = pool.map<Digests>(
        kN, [&](std::size_t i) { return goldenRun(kSeeds[i]); });

    for (std::size_t i = 0; i < kN; ++i) {
        EXPECT_EQ(serial[i].first, threaded[i].first)
            << "stream, seed " << kSeeds[i];
        EXPECT_EQ(serial[i].second, threaded[i].second)
            << "fleet, seed " << kSeeds[i];
    }
    // Distinct seeds produce distinct streams (sanity on the golden).
    EXPECT_NE(serial[0].first, serial[1].first);
}

TEST(ClusterGoldenTest, PinnedDigests)
{
    // (stream, fleet) digests of goldenRun, one pair per kSeeds entry.
    // The other golden tests only compare runs with one another; this
    // one fails when a change moves the cluster event stream itself.
    constexpr std::pair<std::uint64_t, std::uint64_t> kPinned[] = {
        {0x4c6d4cfda613dc3bULL, 0x3792a4b858b598b2ULL},
        {0xcef78fd03effc972ULL, 0x8946140ab2817ff8ULL},
        {0xd1608cc0f83b396eULL, 0x8d681a57937733e7ULL},
        {0x0587a4705d60a85aULL, 0x1a48ec2158ba6e48ULL},
        {0x500d48930a64a2f6ULL, 0x4790c5cc35cdb4ddULL},
    };
    static_assert(std::size(kPinned) == std::size(kSeeds));
    for (std::size_t i = 0; i < std::size(kSeeds); ++i) {
        const auto got = goldenRun(kSeeds[i]);
        EXPECT_EQ(got.first, kPinned[i].first)
            << "stream, seed " << kSeeds[i] << ": 0x" << std::hex
            << got.first;
        EXPECT_EQ(got.second, kPinned[i].second)
            << "fleet, seed " << std::dec << kSeeds[i] << ": 0x"
            << std::hex << got.second;
    }
}

TEST(ClusterGoldenTest, FullObservationStackDoesNotMoveTheDigests)
{
    for (std::uint64_t seed : kSeeds) {
        const auto plain = goldenRun(seed);
        const auto observed = goldenRun(seed, true);
        EXPECT_EQ(plain.first, observed.first) << "stream, seed " << seed;
        EXPECT_EQ(plain.second, observed.second) << "fleet, seed " << seed;
    }
}

} // namespace
