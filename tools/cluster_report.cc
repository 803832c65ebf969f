/**
 * @file
 * cluster_report: race the cluster substrate to saturation and report
 * the tail-latency scoreboard.
 *
 * One scenario per seed: a 4-node CPU+DPU fleet behind a
 * ClusterGateway (token-bucket admission + bounded queue +
 * least-outstanding dispatch), fed by the seeded open-loop generator
 * with a Zipf-skewed, two-tenant function mix. The arrival-rate
 * ladder rises from half the admitted rate to well past it, so one
 * table shows the whole story: drop-free service below saturation,
 * then the token bucket shedding load while the served fraction keeps
 * bounded tails.
 *
 * --check enforces the invariants (per seed):
 *   - generator stream digests are bit-identical serial vs SweepRunner
 *     for every arrival process (Poisson, MMPP, diurnal);
 *   - arrival accounting conserves: generated = arrivals =
 *     admitted + shed + dropped, and admitted = completed + errors;
 *   - below-saturation rungs shed and drop nothing;
 *   - the top rung generates >= 1M arrivals and provably sheds;
 *   - percentiles are sane (p50 <= p99 <= p999, all > 0) and per-PU
 *     utilization is reported and nonzero.
 *
 * --json PATH writes the ladder as a JSON artifact for CI.
 */

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "cluster/scenario.hh"
#include "load/generator.hh"
#include "sim/sweep.hh"
#include "sim/table.hh"

namespace {

using namespace molecule;
using sim::SimTime;
using sim::Table;

/** Ladder rungs as multiples of the admitted rate. */
struct Rung
{
    const char *label;
    double factor;
    /** Rungs at or below 1.0 must be shed- and drop-free. */
    bool belowSaturation;
};

constexpr Rung kRungs[] = {
    {"0.5x", 0.5, true},
    {"0.8x", 0.8, true},
    {"1.6x", 1.6, false},
};

/** Arrivals the top rung must generate (acceptance floor). */
constexpr std::uint64_t kTopRungArrivals = 1'050'000;

constexpr std::uint64_t kSeeds[] = {42, 7, 1};

constexpr double kTopRate = cluster::kLadderAdmittedPerSecond *
                            kRungs[std::size(kRungs) - 1].factor;

cluster::ScenarioSpec
makeSpec(std::uint64_t seed, double rate)
{
    // Top rung duration clears the 1M-arrival floor; every rung uses
    // the same horizon so throughput columns are comparable.
    return cluster::clusterLadder(
        seed, rate,
        SimTime::fromSeconds(double(kTopRungArrivals) / kTopRate));
}

double
meanUtilization(const cluster::ClusterSummary &s)
{
    if (s.utilization.empty())
        return 0.0;
    double total = 0.0;
    for (const auto &u : s.utilization)
        total += u.utilization;
    return total / double(s.utilization.size());
}

/**
 * Cross-check every arrival process: the stream digest computed
 * serially must equal the one computed on a SweepRunner worker.
 */
bool
checkGeneratorDigests(std::uint64_t seed, Table &table)
{
    std::vector<load::TraceSpec> specs;
    for (load::ArrivalKind kind :
         {load::ArrivalKind::Poisson, load::ArrivalKind::Mmpp,
          load::ArrivalKind::Diurnal}) {
        specs.push_back(makeSpec(seed, kTopRate).trace);
        specs.back().arrival = kind;
    }

    std::vector<std::uint64_t> serial;
    serial.reserve(specs.size());
    for (const auto &spec : specs)
        serial.push_back(load::streamDigest(spec));

    sim::SweepRunner pool;
    const auto threaded = pool.map<std::uint64_t>(
        specs.size(),
        [&](std::size_t i) { return load::streamDigest(specs[i]); });

    bool ok = true;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const bool match = serial[i] == threaded[i];
        ok = ok && match;
        table.row({std::to_string(seed),
                   load::toString(specs[i].arrival),
                   Table::hex(serial[i]), match ? "yes" : "NO"});
    }
    return ok;
}

struct Row
{
    std::uint64_t seed;
    const Rung *rung;
    double rate;
    cluster::ScenarioResult outcome;
};

void
writeJson(const std::string &path, const std::vector<Row> &rows)
{
    std::ofstream out(path);
    out << "{\n  \"scenario\": \"cluster-ladder\",\n  \"rows\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row &r = rows[i];
        const cluster::ClusterSummary &s = r.outcome.summary;
        char buf[640];
        std::snprintf(
            buf, sizeof(buf),
            "    {\"seed\": %llu, \"rung\": \"%s\", \"rate\": %.1f, "
            "\"arrivals\": %lld, \"admitted\": %lld, \"shed\": %lld, "
            "\"dropped\": %lld, \"completed\": %lld, \"errors\": %lld, "
            "\"queue_max\": %lld, \"throughput\": %.1f, "
            "\"p50_us\": %.1f, \"p99_us\": %.1f, \"p999_us\": %.1f, "
            "\"util_mean\": %.4f, \"digest\": \"%s\"}%s\n",
            (unsigned long long)r.seed, r.rung->label, r.rate,
            (long long)s.arrivals, (long long)s.admitted,
            (long long)s.shed, (long long)s.dropped,
            (long long)s.completed, (long long)s.errors,
            (long long)s.queueMaxDepth, s.throughputPerSecond, s.p50Us,
            s.p99Us, s.p999Us, meanUtilization(s),
            Table::hex(r.outcome.statsDigest).c_str(),
            i + 1 < rows.size() ? "," : "");
        out << buf;
    }
    out << "  ]\n}\n";
}

int
report(bool check, const std::string &jsonPath,
       const std::vector<std::uint64_t> &seeds)
{
    bool pass = true;
    auto fail = [&pass](std::uint64_t seed, const char *rung,
                        const char *what) {
        std::fprintf(stderr, "FAIL: seed %llu rung %s: %s\n",
                     (unsigned long long)seed, rung, what);
        pass = false;
    };

    Table digests("Generator stream digests, serial vs "
                  "SweepRunner");
    digests.header({"seed", "arrival", "digest", "match"});
    for (std::uint64_t seed : seeds)
        if (!checkGeneratorDigests(seed, digests))
            fail(seed, "-", "generator digest serial != threaded");
    digests.print();
    std::printf("\n");

    Table table("Cluster ladder: 4-node CPU+DPU fleet, "
                "least-outstanding dispatch, token bucket at "
                "300/s");
    table.header({"seed", "rung", "arrivals", "admitted", "shed",
                  "dropped", "completed", "p50us", "p99us", "p999us",
                  "qmax", "util"});

    std::vector<Row> rows;
    for (std::uint64_t seed : seeds) {
        for (const Rung &rung : kRungs) {
            const double rate =
                cluster::kLadderAdmittedPerSecond * rung.factor;
            Row row{seed, &rung, rate,
                    cluster::runScenario(makeSpec(seed, rate))};
            const cluster::ClusterSummary &s = row.outcome.summary;
            table.row({std::to_string(seed), rung.label,
                       std::to_string(s.arrivals),
                       std::to_string(s.admitted),
                       std::to_string(s.shed),
                       std::to_string(s.dropped),
                       std::to_string(s.completed),
                       Table::num(s.p50Us, 1), Table::num(s.p99Us, 1),
                       Table::num(s.p999Us, 1),
                       std::to_string(s.queueMaxDepth),
                       Table::num(meanUtilization(s) * 100.0, 1)});
            rows.push_back(row);

            if (std::uint64_t(s.arrivals) != row.outcome.generated)
                fail(seed, rung.label,
                     "gateway arrivals != generator emissions");
            if (s.arrivals != s.admitted + s.shed + s.dropped)
                fail(seed, rung.label,
                     "arrivals != admitted + shed + dropped");
            if (s.admitted != s.completed + s.errors)
                fail(seed, rung.label,
                     "admitted != completed + errors");
            if (s.completed <= 0)
                fail(seed, rung.label, "nothing completed");
            if (!(s.p50Us > 0.0 && s.p50Us <= s.p99Us &&
                  s.p99Us <= s.p999Us))
                fail(seed, rung.label, "percentiles not sane");
            if (s.utilization.empty() || meanUtilization(s) <= 0.0)
                fail(seed, rung.label, "no per-PU utilization");
            if (rung.belowSaturation) {
                if (s.shed != 0 || s.dropped != 0)
                    fail(seed, rung.label,
                         "below saturation but shed/dropped work");
                if (s.errors != 0)
                    fail(seed, rung.label,
                         "below saturation but invocations errored");
            } else {
                if (std::uint64_t(s.arrivals) < 1'000'000)
                    fail(seed, rung.label,
                         "top rung generated < 1M arrivals");
                if (s.shed + s.dropped <= 0)
                    fail(seed, rung.label,
                         "saturated rung did not shed");
            }
        }
    }
    table.print();

    if (!jsonPath.empty()) {
        writeJson(jsonPath, rows);
        std::printf("\njson -> %s\n", jsonPath.c_str());
    }

    if (!check)
        return 0;
    if (pass)
        std::printf("\nOK: ladder clean — reproducible streams, "
                    "conservation holds, sheds only at saturation\n");
    else
        std::printf("\nFAIL: cluster ladder violated invariants "
                    "(see stderr)\n");
    return pass ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    bool check = false;
    std::string jsonPath;
    std::vector<std::uint64_t> seeds;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--check") {
            check = true;
        } else if (a == "--json" && i + 1 < argc) {
            jsonPath = argv[++i];
        } else if (a == "--seed" && i + 1 < argc) {
            seeds.push_back(std::strtoull(argv[++i], nullptr, 10));
        } else {
            std::fprintf(stderr,
                         "usage: cluster_report [--check] "
                         "[--json PATH] [--seed N]...\n");
            return 2;
        }
    }
    if (seeds.empty())
        seeds.assign(std::begin(kSeeds), std::end(kSeeds));
    return report(check, jsonPath, seeds);
}
