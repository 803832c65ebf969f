/**
 * @file
 * Per-tenant accounting through the cluster plane.
 *
 * Tenant ids ride every arrival from the generator through admission
 * to the completion record; the scoreboard's per-tenant rows must
 * conserve against the cluster totals at every stage (arrivals,
 * admitted, shed, dropped, completed, errors), under both drop
 * policies. Attaching the telemetry plane must not move the stats
 * digest — observation is read-only.
 */

#include "cluster/scenario.hh"

#include <gtest/gtest.h>

#include <cstdint>

#include "obs/timeseries.hh"
#include "sim/simulation.hh"

namespace {

using namespace molecule;
using cluster::AdmissionOptions;
using cluster::ClusterStats;
using cluster::ClusterSummary;
using cluster::DropPolicy;
using sim::SimTime;

load::TraceSpec
twoTenantTrace(double ratePerSecond, double seconds,
               std::uint64_t seed = 42)
{
    load::TraceSpec trace;
    trace.seed = seed;
    trace.ratePerSecond = ratePerSecond;
    trace.duration = SimTime::fromSeconds(seconds);
    trace.functions = {"helloworld", "pyaes"};
    load::TenantSpec alpha;
    alpha.name = "alpha";
    alpha.share = 3.0;
    alpha.permuteSalt = 1;
    load::TenantSpec beta;
    beta.name = "beta";
    beta.share = 1.0;
    beta.zipfExponent = 0.8;
    beta.permuteSalt = 2;
    trace.tenants = {alpha, beta};
    return trace;
}

/** A 2-node, 1-DPU fleet behind @p admission, fed @p trace. */
cluster::ScenarioSpec
spec(const AdmissionOptions &admission, const load::TraceSpec &trace)
{
    cluster::ScenarioSpec s;
    s.fleet.nodes = 2;
    s.fleet.dpusPerNode = 1;
    s.trace = trace;
    s.admission = admission;
    return s;
}

ClusterSummary
run(const AdmissionOptions &admission, const load::TraceSpec &trace)
{
    const cluster::ScenarioResult r =
        cluster::runScenario(spec(admission, trace));
    EXPECT_TRUE(r.drained);
    return r.summary;
}

void
expectTenantRowsConserve(const ClusterSummary &s)
{
    ASSERT_EQ(s.tenants.size(), 2u);
    std::int64_t arrivals = 0;
    std::int64_t admitted = 0;
    std::int64_t shed = 0;
    std::int64_t dropped = 0;
    std::int64_t completed = 0;
    std::int64_t errors = 0;
    for (const auto &t : s.tenants) {
        EXPECT_EQ(t.arrivals, t.admitted + t.shed + t.dropped);
        EXPECT_EQ(t.admitted, t.completed + t.errors);
        arrivals += t.arrivals;
        admitted += t.admitted;
        shed += t.shed;
        dropped += t.dropped;
        completed += t.completed;
        errors += t.errors;
    }
    EXPECT_EQ(arrivals, s.arrivals);
    EXPECT_EQ(admitted, s.admitted);
    EXPECT_EQ(shed, s.shed);
    EXPECT_EQ(dropped, s.dropped);
    EXPECT_EQ(completed, s.completed);
    EXPECT_EQ(errors, s.errors);
}

TEST(TenantAccountingTest, RowsConserveUnderShedding)
{
    AdmissionOptions admission;
    admission.tokensPerSecond = 50.0;
    admission.bucketCapacity = 10.0;
    const auto s = run(admission, twoTenantTrace(300.0, 4.0));
    EXPECT_GT(s.shed, 0);
    expectTenantRowsConserve(s);
    // The 3:1 share split shows up in per-tenant arrivals.
    EXPECT_GT(s.tenants[0].arrivals, s.tenants[1].arrivals);
    EXPECT_NEAR(double(s.tenants[0].arrivals),
                0.75 * double(s.arrivals),
                0.05 * double(s.arrivals));
}

TEST(TenantAccountingTest, RowsConserveUnderDropNewest)
{
    AdmissionOptions admission;
    admission.maxOutstandingPerNode = 1;
    admission.queueCapacity = 4;
    admission.dropPolicy = DropPolicy::DropNewest;
    const auto s = run(admission, twoTenantTrace(400.0, 2.0));
    EXPECT_GT(s.dropped, 0);
    expectTenantRowsConserve(s);
}

TEST(TenantAccountingTest, RowsConserveUnderDropOldestEviction)
{
    // DropOldest charges the drop to the *evicted* arrival's tenant,
    // not the newcomer's — per-tenant conservation only balances if
    // the attribution is consistent on both sides of the eviction.
    AdmissionOptions admission;
    admission.maxOutstandingPerNode = 1;
    admission.queueCapacity = 4;
    admission.dropPolicy = DropPolicy::DropOldest;
    const auto s = run(admission, twoTenantTrace(400.0, 2.0));
    EXPECT_GT(s.dropped, 0);
    expectTenantRowsConserve(s);
    EXPECT_GT(s.tenants[0].dropped + s.tenants[1].dropped, 0);
}

TEST(TenantAccountingTest, LatencyRowsArePerTenant)
{
    AdmissionOptions admission;
    const auto s = run(admission, twoTenantTrace(100.0, 3.0));
    for (const auto &t : s.tenants) {
        ASSERT_GT(t.completed, 0);
        EXPECT_GT(t.p50Us, 0.0);
        EXPECT_LE(t.p50Us, t.p99Us);
        EXPECT_GT(t.meanUs, 0.0);
    }
}

TEST(TenantAccountingTest, DigestCoversTenantSplit)
{
    // Same totals, different per-tenant split => different digest.
    obs::Registry regA;
    ClusterStats a(regA);
    a.onArrival(0);
    a.onArrival(1);
    obs::Registry regB;
    ClusterStats b(regB);
    b.onArrival(0);
    b.onArrival(0);
    EXPECT_NE(a.digest(), b.digest());
}

TEST(TenantAccountingTest, TelemetryAttachmentDoesNotPerturb)
{
    const auto digest = [](bool telemetry) {
        AdmissionOptions admission;
        admission.tokensPerSecond = 80.0;
        sim::Simulation sim(42);
        cluster::Scenario scenario(
            sim, spec(admission, twoTenantTrace(150.0, 3.0)));
        obs::TimeSeries ts(sim, {SimTime::seconds(1)});
        if (telemetry)
            scenario.stats().attachTelemetry(&ts);
        const cluster::ScenarioResult r = scenario.run();
        EXPECT_TRUE(r.drained);
        if (telemetry)
            ts.flush();
        return r.statsDigest;
    };
    EXPECT_EQ(digest(false), digest(true));
}

} // namespace
