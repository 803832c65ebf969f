/**
 * @file
 * ClusterGateway: dispatch-policy picks, token-bucket shedding,
 * bounded-queue drop policies, arrival accounting conservation and
 * digest reproducibility.
 */

#include "cluster/gateway.hh"

#include <gtest/gtest.h>

#include "cluster/scenario.hh"
#include "sim/simulation.hh"

namespace {

using namespace molecule;
using cluster::AdmissionOptions;
using cluster::ClusterGateway;
using cluster::DropPolicy;
using load::Arrival;
using sim::SimTime;

Arrival
arrival(std::uint32_t fn = 0)
{
    Arrival a;
    a.fn = fn;
    return a;
}

TEST(DispatchPolicyTest, LeastOutstandingPicksArgminLowestIdTies)
{
    cluster::LeastOutstandingPolicy p;
    const int out[] = {3, 1, 1, 2};
    EXPECT_EQ(p.pick(arrival(), out, 4), 1);
    const int tied[] = {2, 2, 2};
    EXPECT_EQ(p.pick(arrival(), tied, 4), 0);
    const int full[] = {4, 4};
    EXPECT_EQ(p.pick(arrival(), full, 4), -1);
}

TEST(DispatchPolicyTest, WarmAffinityKeepsAFunctionHome)
{
    cluster::WarmAffinityPolicy p;
    const int balanced[] = {1, 0, 0};
    // First sight of fn 7: least-outstanding, adopted as home.
    EXPECT_EQ(p.pick(arrival(7), balanced, 4), 1);
    const int skewed[] = {0, 3, 3};
    // Home node 1 is busier now but not full: stay home.
    EXPECT_EQ(p.pick(arrival(7), skewed, 4), 1);
    const int homeFull[] = {0, 4, 3};
    // Home at cap: fall back and adopt the fallback.
    EXPECT_EQ(p.pick(arrival(7), homeFull, 4), 0);
    EXPECT_EQ(p.pick(arrival(7), balanced, 4), 0);
}

/** A 2-node, 1-DPU fleet serving helloworld and pyaes. */
cluster::ScenarioSpec
spec(const AdmissionOptions &admission, double ratePerSecond,
     double seconds, std::uint64_t seed = 42)
{
    cluster::ScenarioSpec s;
    s.fleet.nodes = 2;
    s.fleet.dpusPerNode = 1;
    s.trace.seed = seed;
    s.trace.ratePerSecond = ratePerSecond;
    s.trace.duration = SimTime::fromSeconds(seconds);
    s.trace.functions = {"helloworld", "pyaes"};
    s.admission = admission;
    return s;
}

cluster::ClusterSummary
run(const AdmissionOptions &admission, double ratePerSecond,
    double seconds)
{
    const cluster::ScenarioResult r =
        cluster::runScenario(spec(admission, ratePerSecond, seconds));
    EXPECT_TRUE(r.drained);
    return r.summary;
}

TEST(ClusterGatewayTest, ServesEverythingBelowTheAdmittedRate)
{
    AdmissionOptions admission;
    admission.tokensPerSecond = 200.0;
    admission.bucketCapacity = 100.0;
    const auto s = run(admission, 50.0, 4.0);
    EXPECT_GT(s.arrivals, 0);
    EXPECT_EQ(s.shed, 0);
    EXPECT_EQ(s.dropped, 0);
    EXPECT_EQ(s.errors, 0);
    EXPECT_EQ(s.completed, s.arrivals);
    EXPECT_GT(s.p50Us, 0.0);
    EXPECT_LE(s.p50Us, s.p99Us);
    EXPECT_LE(s.p99Us, s.p999Us);
}

TEST(ClusterGatewayTest, TokenBucketShedsAboveTheAdmittedRate)
{
    AdmissionOptions admission;
    admission.tokensPerSecond = 50.0;
    admission.bucketCapacity = 10.0;
    const auto s = run(admission, 400.0, 4.0);
    EXPECT_GT(s.shed, 0);
    EXPECT_EQ(s.arrivals, s.admitted + s.shed + s.dropped);
    EXPECT_EQ(s.admitted, s.completed + s.errors);
    // Admitted rate hugs the bucket rate (plus the initial burst).
    EXPECT_NEAR(double(s.admitted), 50.0 * 4.0 + 10.0,
                0.15 * double(s.admitted));
}

TEST(ClusterGatewayTest, UnlimitedBucketNeverSheds)
{
    AdmissionOptions admission;
    admission.tokensPerSecond = 0.0; // disabled
    const auto s = run(admission, 300.0, 2.0);
    EXPECT_EQ(s.shed, 0);
    EXPECT_EQ(s.completed + s.errors, s.arrivals);
}

TEST(ClusterGatewayTest, BoundedQueueDropsNewestWhenFull)
{
    AdmissionOptions admission;
    admission.maxOutstandingPerNode = 1;
    admission.queueCapacity = 4;
    admission.dropPolicy = DropPolicy::DropNewest;
    const auto s = run(admission, 400.0, 2.0);
    EXPECT_GT(s.dropped, 0);
    EXPECT_LE(s.queueMaxDepth, 4);
    EXPECT_EQ(s.arrivals, s.admitted + s.shed + s.dropped);
    EXPECT_EQ(s.admitted, s.completed + s.errors);
}

TEST(ClusterGatewayTest, DropOldestEvictsButStillServesTheBound)
{
    AdmissionOptions admission;
    admission.maxOutstandingPerNode = 1;
    admission.queueCapacity = 4;
    admission.dropPolicy = DropPolicy::DropOldest;
    const auto s = run(admission, 400.0, 2.0);
    EXPECT_GT(s.dropped, 0);
    EXPECT_LE(s.queueMaxDepth, 4);
    EXPECT_EQ(s.arrivals, s.admitted + s.shed + s.dropped);
}

TEST(ClusterGatewayTest, QueueWaitShowsUpInTheScoreboard)
{
    AdmissionOptions admission;
    admission.maxOutstandingPerNode = 1;
    admission.queueCapacity = 256;
    const auto s = run(admission, 200.0, 2.0);
    EXPECT_GT(s.queueMaxDepth, 0);
    EXPECT_GT(s.queueWaitP99Us, 0.0);
}

TEST(ClusterGatewayTest, DigestsReproduceAcrossIdenticalRuns)
{
    auto digest = [](std::uint64_t seed) {
        AdmissionOptions admission;
        admission.tokensPerSecond = 100.0;
        return cluster::runScenario(spec(admission, 150.0, 2.0, seed))
            .statsDigest;
    };
    EXPECT_EQ(digest(42), digest(42));
    EXPECT_NE(digest(42), digest(43));
}

TEST(ClusterGatewayTest, UtilizationIsChargedPerPu)
{
    AdmissionOptions admission;
    const auto s = run(admission, 100.0, 2.0);
    ASSERT_FALSE(s.utilization.empty());
    double total = 0.0;
    for (const auto &u : s.utilization) {
        EXPECT_GE(u.node, 0);
        EXPECT_LT(u.node, 2);
        total += u.utilization;
    }
    EXPECT_GT(total, 0.0);
}

TEST(ClusterGatewayTest, UnknownFunctionIndexIsATypedError)
{
    // An index past GatewayConfig::functions used to throw from
    // functions_.at() inside a detached serve task, which panics.
    sim::Simulation sim(42);
    const cluster::ScenarioSpec booting = spec({}, 100.0, 1.0);
    cluster::Scenario booted(sim, booting);
    cluster::GatewayConfig cfg = cluster::GatewayConfig::forFunctions(
        booting.trace.functions, booted.stats());
    ClusterGateway gateway(booted.fleet(), cfg);
    const SimTime t0 = sim.now();
    gateway.onArrival(arrival(0));
    gateway.onArrival(arrival(7));
    gateway.onArrival(arrival(1));
    sim.run();
    EXPECT_TRUE(gateway.idle());
    const auto s = booted.stats().summarize(sim.now() - t0,
                                            booted.fleet().coreTable());
    EXPECT_EQ(s.arrivals, 3);
    EXPECT_EQ(s.completed, 2);
    EXPECT_EQ(s.errors, 1);
    EXPECT_EQ(s.arrivals, s.admitted + s.shed + s.dropped);
    EXPECT_EQ(s.admitted, s.completed + s.errors);
    for (const auto &u : s.utilization)
        EXPECT_GE(u.node, 0) << "no node is charged for the rejection";
}

} // namespace
