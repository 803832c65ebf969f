/**
 * @file
 * Cluster-substrate wall-clock bench: how fast the simulator chews
 * through open-loop load, as generator-only streams (arrivals
 * produced per wall second, one row per arrival process) and as the
 * full saturated fleet scenario of tools/cluster_report (invocations
 * completed per wall second, admission + dispatch + the whole
 * per-node Molecule pipeline).
 *
 * Writes BENCH_cluster.json (same PerfSnapshot shape perf_check
 * reads); the committed copy at the repo root is the reference the CI
 * perf-smoke job compares against, warn-only — the cluster rows span
 * the entire stack, so they are noisier than the simcore micros.
 */

#include <chrono>

#include "bench/common.hh"
#include "cluster/scenario.hh"
#include "load/generator.hh"
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

/** Arrivals produced per wall second for one arrival process. */
double
generatorRate(load::ArrivalKind kind)
{
    load::TraceSpec spec = cluster::catalogueTrace(
        42, 100000.0, SimTime::fromSeconds(10.0)); // ~1M arrivals
    spec.arrival = kind;
    load::OpenLoopGenerator gen(spec);
    const auto t0 = std::chrono::steady_clock::now();
    load::Arrival a;
    std::uint64_t n = 0;
    while (gen.next(a))
        ++n;
    return double(n) / wallSeconds(t0);
}

/**
 * Completed invocations per wall second for the saturated (1.6x) rung
 * of the cluster_report ladder, scaled down to bench length (100 s:
 * ~48k arrivals, ~30k served).
 */
double
clusterRate()
{
    sim::Simulation sim(42);
    cluster::Scenario scenario(
        sim, cluster::clusterLadder(
                 42, 1.6 * cluster::kLadderAdmittedPerSecond,
                 SimTime::fromSeconds(100.0)));
    const auto t0 = std::chrono::steady_clock::now();
    const cluster::ScenarioResult r = scenario.run();
    return double(r.summary.completed) / wallSeconds(t0);
}

} // namespace

int
main()
{
    bench::banner("cluster substrate saturation throughput",
                  "cluster gateway over §6 setting-1 nodes");

    bench::PerfSnapshot snap("items_per_second");
    sim::Table table("Wall-clock throughput, best of 3 repetitions");
    table.header({"case", "items/s"});

    struct GenCase
    {
        const char *name;
        load::ArrivalKind kind;
    };
    constexpr GenCase kGenCases[] = {
        {"GenPoissonStream", load::ArrivalKind::Poisson},
        {"GenMmppStream", load::ArrivalKind::Mmpp},
        {"GenDiurnalStream", load::ArrivalKind::Diurnal},
    };
    for (const auto &c : kGenCases) {
        double best = 0.0;
        for (int rep = 0; rep < kRepetitions; ++rep) {
            const double rate = generatorRate(c.kind);
            snap.record(c.name, rate);
            best = std::max(best, rate);
        }
        table.row({c.name, sim::Table::num(best, 0)});
    }
    double best = 0.0;
    for (int rep = 0; rep < kRepetitions; ++rep) {
        const double rate = clusterRate();
        snap.record("ClusterSaturatedRung", rate);
        best = std::max(best, rate);
    }
    table.row({"ClusterSaturatedRung", sim::Table::num(best, 0)});
    table.print();

    if (!snap.writeJson("BENCH_cluster.json")) {
        std::fprintf(stderr, "cannot write BENCH_cluster.json\n");
        return 1;
    }
    std::printf("\nsnapshot -> BENCH_cluster.json\n");
    return 0;
}
