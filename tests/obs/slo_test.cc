/**
 * @file
 * SloMonitor burn-rate tests (obs/slo.hh).
 *
 * Synthetic feeds drive the dual-window rule through its edges: a
 * burst too short for the long window must not fire, a sustained burn
 * must fire exactly once and resolve exactly once after recovery,
 * error-rate objectives read the completed/errors counters, alerts
 * reach sinks at the window close that tipped them, and the alert
 * digest reproduces bit-for-bit across runs.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "obs/slo.hh"
#include "obs/timeseries.hh"
#include "sim/simulation.hh"
#include "sim/time.hh"

namespace {

using namespace molecule;
using sim::SimTime;

obs::SloSpec
latencySpec(double thresholdUs = 1000.0, double target = 0.99,
            double burn = 4.0)
{
    obs::SloSpec spec;
    spec.tenants = 1;
    obs::SloObjective o;
    o.name = "lat";
    o.kind = obs::SloObjective::Kind::Latency;
    o.thresholdUs = thresholdUs;
    o.targetFraction = target;
    o.burnThreshold = burn;
    o.shortWindows = 2;
    o.longWindows = 6;
    spec.objectives = {o};
    return spec;
}

/** Feed @p bad slow + @p good fast samples in window @p w. */
void
feedWindow(sim::Simulation &sim, obs::TimeSeries &ts, std::uint32_t id,
           int w, int good, int bad)
{
    sim.schedule(SimTime::milliseconds(w * 1000 + 500),
                 [&ts, id, good, bad] {
                     for (int i = 0; i < good; ++i)
                         ts.observe(id, 100.0);
                     for (int i = 0; i < bad; ++i)
                         ts.observe(id, 50'000.0);
                 });
}

TEST(SloMonitor, SustainedBurnFiresOnceAndResolvesOnce)
{
    sim::Simulation sim(1);
    obs::TimeSeries ts(sim);
    obs::SloMonitor monitor(ts, latencySpec());
    const auto lat = ts.histogramId("tenant.e2e_us", 0);

    // 4 windows of heavy burn (50% bad >> 4x the 1% budget), then 8
    // clean windows so both burn windows drain below threshold.
    for (int w = 0; w < 4; ++w)
        feedWindow(sim, ts, lat, w, 50, 50);
    for (int w = 4; w < 12; ++w)
        feedWindow(sim, ts, lat, w, 100, 0);
    sim.run();
    ts.flush();

    ASSERT_EQ(monitor.alertCount(), 2u);
    const obs::AlertEvent &fire = monitor.alerts()[0];
    const obs::AlertEvent &resolve = monitor.alerts()[1];
    EXPECT_TRUE(fire.fired);
    EXPECT_EQ(fire.tenant, 0u);
    EXPECT_GE(fire.burnShort, 4.0);
    EXPECT_GE(fire.burnLong, 4.0);
    EXPECT_FALSE(resolve.fired);
    EXPECT_GT(resolve.window, fire.window);
    EXPECT_FALSE(monitor.firing(0, 0));
}

TEST(SloMonitor, ShortBurstAloneDoesNotFire)
{
    sim::Simulation sim(1);
    obs::TimeSeries ts(sim);
    // Long window = 6: one bad window over a clean history cannot
    // push the 6-window burn over threshold.
    obs::SloSpec spec = latencySpec();
    obs::SloMonitor monitor(ts, spec);
    const auto lat = ts.histogramId("tenant.e2e_us", 0);

    for (int w = 0; w < 5; ++w)
        feedWindow(sim, ts, lat, w, 100, 0);
    feedWindow(sim, ts, lat, 5, 92, 8); // 8% bad, one window only
    for (int w = 6; w < 10; ++w)
        feedWindow(sim, ts, lat, w, 100, 0);
    sim.run();
    ts.flush();

    EXPECT_EQ(monitor.alertCount(), 0u);
    EXPECT_FALSE(monitor.firing(0, 0));
}

TEST(SloMonitor, ErrorRateObjectiveReadsCounters)
{
    sim::Simulation sim(1);
    obs::TimeSeries ts(sim);
    obs::SloSpec spec;
    spec.tenants = 2;
    obs::SloObjective o;
    o.name = "errors";
    o.kind = obs::SloObjective::Kind::ErrorRate;
    o.targetFraction = 0.99;
    o.burnThreshold = 4.0;
    o.shortWindows = 1;
    o.longWindows = 2;
    spec.objectives = {o};
    obs::SloMonitor monitor(ts, spec);
    const auto done0 = ts.counterId("tenant.completed", 0);
    const auto err0 = ts.counterId("tenant.errors", 0);
    const auto done1 = ts.counterId("tenant.completed", 1);

    // Tenant 0 burns its error budget; tenant 1 stays clean.
    for (int w = 0; w < 3; ++w)
        sim.schedule(SimTime::milliseconds(w * 1000 + 500),
                     [&ts, done0, err0, done1] {
                         ts.count(done0, 80);
                         ts.count(err0, 20);
                         ts.count(done1, 100);
                     });
    sim.run();
    ts.flush();

    EXPECT_TRUE(monitor.firing(0, 0));
    EXPECT_FALSE(monitor.firing(1, 0));
    const auto totals = monitor.totals(0, 0);
    EXPECT_EQ(totals.good, 240);
    EXPECT_EQ(totals.bad, 60);
}

struct CountingSink final : obs::AlertSink
{
    std::vector<obs::AlertEvent> seen;

    void onAlert(const obs::AlertEvent &a) override
    {
        seen.push_back(a);
    }
};

TEST(SloMonitor, SinksSeeTransitionsAtWindowClose)
{
    sim::Simulation sim(1);
    obs::TimeSeries ts(sim);
    obs::SloMonitor monitor(ts, latencySpec());
    CountingSink sink;
    monitor.addSink(&sink);
    const auto lat = ts.histogramId("tenant.e2e_us", 0);

    for (int w = 0; w < 4; ++w)
        feedWindow(sim, ts, lat, w, 0, 100);
    sim.run();
    ts.flush();

    ASSERT_EQ(sink.seen.size(), monitor.alertCount());
    ASSERT_FALSE(sink.seen.empty());
    // The transition instant is the close of the tipping window.
    EXPECT_EQ(sink.seen[0].at,
              SimTime::seconds(std::int64_t(sink.seen[0].window) + 1));
}

TEST(SloMonitor, AlertDigestReproduces)
{
    const auto run = [] {
        sim::Simulation sim(9);
        obs::TimeSeries ts(sim);
        obs::SloMonitor monitor(ts, latencySpec());
        const auto lat = ts.histogramId("tenant.e2e_us", 0);
        for (int w = 0; w < 4; ++w)
            feedWindow(sim, ts, lat, w, 10, 90);
        for (int w = 4; w < 12; ++w)
            feedWindow(sim, ts, lat, w, 100, 0);
        sim.run();
        ts.flush();
        return monitor.alertDigest();
    };
    const std::uint64_t a = run();
    EXPECT_NE(a, 0u);
    EXPECT_EQ(a, run());
}

} // namespace
