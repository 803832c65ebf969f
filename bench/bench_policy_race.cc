/**
 * @file
 * Policy-layer wall-clock bench: how fast the simulator chews through
 * the policy_report race scenario under each of its three placement
 * combos, all with LRU keep-alive (invocations completed per wall
 * second, full admission + placement + keep-alive + cost accounting
 * pipeline).
 *
 * Writes BENCH_policy.json (same PerfSnapshot shape perf_check
 * reads); the committed copy at the repo root is the reference the CI
 * perf-smoke job compares against, warn-only — policy rows span the
 * entire stack and are noisier than the simcore micros.
 */

#include <chrono>

#include "bench/common.hh"
#include "cluster/scenario.hh"
#include "sim/simulation.hh"

namespace {

using namespace molecule;
using sim::SimTime;

constexpr int kRepetitions = 3;

double
wallSeconds(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/**
 * Completed invocations per wall second for one policy combo on the
 * saturated (1.6x) rung of the tools/policy_report race, with a 60 s
 * horizon.
 */
double
policyRate(const core::PlacementConfig &placement,
           const core::KeepAliveConfig &keepAlive)
{
    cluster::ScenarioSpec spec = cluster::policyRace(
        42, 1.6 * cluster::kRaceCeilingPerSecond,
        SimTime::fromSeconds(60.0));
    spec.fleet.runtime.placement = placement;
    spec.fleet.runtime.startup.keepAlive = keepAlive;
    sim::Simulation sim(42);
    cluster::Scenario scenario(sim, spec);
    const auto t0 = std::chrono::steady_clock::now();
    const cluster::ScenarioResult r = scenario.run();
    return double(r.summary.completed) / wallSeconds(t0);
}

} // namespace

int
main()
{
    using namespace molecule::bench;

    banner("policy race wall-clock throughput",
           "placement x keep-alive combos on the saturated "
           "policy_report rung");

    PerfSnapshot snap("items_per_second");
    sim::Table table("Wall-clock throughput, best of 3 repetitions");
    table.header({"case", "items/s"});

    struct Case
    {
        const char *name;
        core::PlacementConfig placement;
        core::KeepAliveConfig keepAlive;
    };
    const Case kCases[] = {
        {"PolicyPriceOrderedLru", core::PlacementConfig::priceOrdered(),
         core::KeepAliveConfig::lru()},
        {"PolicyLoadAwareLru", core::PlacementConfig::loadAware(),
         core::KeepAliveConfig::lru()},
        {"PolicyLocalityLru", core::PlacementConfig::locality(),
         core::KeepAliveConfig::lru()},
    };
    for (const auto &c : kCases) {
        double best = 0.0;
        for (int rep = 0; rep < kRepetitions; ++rep) {
            const double rate = policyRate(c.placement, c.keepAlive);
            snap.record(c.name, rate);
            best = std::max(best, rate);
        }
        table.row({c.name, sim::Table::num(best, 0)});
    }
    table.print();

    if (!snap.writeJson("BENCH_policy.json")) {
        std::fprintf(stderr, "cannot write BENCH_policy.json\n");
        return 1;
    }
    std::printf("\nsnapshot -> BENCH_policy.json\n");
    return 0;
}
