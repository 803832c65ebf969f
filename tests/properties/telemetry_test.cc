/**
 * @file
 * Telemetry-plane determinism properties.
 *
 * An over-saturated two-node cluster with the full observation stack
 * attached (TimeSeries windows, SloMonitor burn-rate alerts) must
 * produce a bit-identical (stats, window, alert) digest triple across
 * serial runs, re-runs, and sim::SweepRunner replicas, and the window
 * deltas must conserve exactly against the run totals — per seed.
 * tools/slo_report.cc drives the same property at CI scale; this is
 * the tier-1 distillation.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "cluster/scenario.hh"
#include "obs/slo.hh"
#include "obs/timeseries.hh"
#include "sim/simulation.hh"
#include "sim/sweep.hh"

namespace {

using namespace molecule;
using sim::SimTime;

struct Triple
{
    std::uint64_t stats = 0;
    std::uint64_t windows = 0;
    std::uint64_t alerts = 0;

    bool operator==(const Triple &) const = default;
};

/** Over-saturate 2 nodes so queues grow and latency alerts must
 * fire; return the digest triple (and check conservation inline). */
Triple
saturatedRun(std::uint64_t seed)
{
    cluster::ScenarioSpec spec;
    spec.fleet.nodes = 2;
    spec.fleet.dpusPerNode = 1;
    spec.trace.seed = seed;
    spec.trace.ratePerSecond = 400.0;
    spec.trace.duration = SimTime::seconds(10);
    spec.trace.functions = {"helloworld", "pyaes"};
    spec.admission.tokensPerSecond = 0.0;
    spec.admission.queueCapacity = 8192;
    spec.admission.maxOutstandingPerNode = 48;
    sim::Simulation sim(seed);
    cluster::Scenario scenario(sim, spec);

    obs::TimeSeries ts(sim, {SimTime::seconds(1)});
    scenario.stats().attachTelemetry(&ts);

    obs::SloSpec sloSpec;
    sloSpec.tenants = 1;
    obs::SloObjective o;
    o.name = "latency-p99";
    o.thresholdUs = 20'000.0;
    sloSpec.objectives = {o};
    obs::SloMonitor monitor(ts, sloSpec);

    const cluster::ScenarioResult run = scenario.run();
    ts.flush();

    // Window deltas conserve against the run totals.
    const auto completedId = ts.counterId("tenant.completed", 0);
    std::int64_t windowSum = 0;
    for (const auto &w : ts.windows())
        if (const obs::WindowPoint *p = w.find(completedId))
            windowSum += p->count;
    EXPECT_EQ(windowSum, ts.counterValue(completedId));
    EXPECT_EQ(windowSum, run.summary.completed);

    // Saturation means the latency objective cannot stay green.
    EXPECT_GT(monitor.alertCount(), 0u);
    EXPECT_GT(ts.windowsClosed(), 0u);

    return {run.statsDigest, ts.digest(), monitor.alertDigest()};
}

TEST(TelemetryDeterminism, TripleMatchesSerialRerunAndSweepRunner)
{
    const std::vector<std::uint64_t> seeds = {42, 7, 1};

    std::vector<Triple> serial;
    for (const auto seed : seeds)
        serial.push_back(saturatedRun(seed));
    // Distinct seeds must not collide (the triple is load-bearing).
    EXPECT_NE(serial[0], serial[1]);
    EXPECT_NE(serial[1], serial[2]);

    std::vector<Triple> rerun;
    for (const auto seed : seeds)
        rerun.push_back(saturatedRun(seed));
    EXPECT_EQ(serial, rerun);

    sim::SweepRunner pool;
    const auto threaded = pool.map<Triple>(
        seeds.size(),
        [&](std::size_t i) { return saturatedRun(seeds[i]); });
    EXPECT_EQ(serial, threaded);
}

} // namespace
