/**
 * @file
 * policy_report: race placement x keep-alive policy combos over
 * identical seeded workloads and report the cost+SLO scoreboard.
 *
 * One scenario per seed: a 4-node CPU+DPU fleet (2 BlueField-2 per
 * node) behind an open ClusterGateway (no rate policing — node
 * capacity binds), fed by the seeded open-loop generator with a
 * Zipf-skewed two-tenant mix. Each policy combo replays the *same*
 * arrival stream, so differences in throughput, tail latency and
 * accumulated dollars are attributable to the policies alone. The
 * final table marks the latency/cost Pareto frontier across combos
 * at the saturated rung.
 *
 * --check enforces the invariants (per seed):
 *   - arrival accounting conserves: arrivals = admitted + shed +
 *     dropped, and admitted = completed + errors;
 *   - percentiles are sane and every completion is costed (> $0);
 *   - policy swap does not perturb: a fleet with the default policies
 *     installed explicitly produces the same (placement, eviction,
 *     stats) digest triple as a fleet that never touched the policy
 *     knobs;
 *   - load-aware placement strictly raises completed throughput over
 *     the price-ordered default on the saturated rung (the DPU-bound
 *     ceiling is the bug this policy exists to fix);
 *   - per-combo digest triples are bit-identical serial vs re-run vs
 *     SweepRunner, and no two combos share one at the saturated rung
 *     (a combo the scenario cannot tell apart races nothing);
 *   - the Pareto frontier is non-empty and none of its points is
 *     dominated.
 *
 * --json PATH writes the scoreboard as a JSON artifact for CI.
 */

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "cluster/scenario.hh"
#include "sim/sweep.hh"
#include "sim/table.hh"

namespace {

using namespace molecule;
using cluster::kRaceCeilingPerSecond;
using cluster::ScenarioResult;
using sim::SimTime;
using sim::Table;

/** Rungs as multiples of the DPU-bound ceiling. */
struct Rung
{
    const char *label;
    double factor;
    bool saturated;
};

constexpr Rung kRungs[] = {
    {"0.5x", 0.5, false},
    {"1.6x", 1.6, true},
};

/** Shared horizon: every rung replays the same window. */
constexpr double kHorizonSeconds = 30.0;

constexpr std::uint64_t kSeeds[] = {42, 7, 1};

/**
 * One raced configuration. Every combo keeps LRU: with 256 warm
 * instances per (function, PU) and four functions nothing is ever
 * evicted here, so a keep-alive strategy cannot change this race
 * (--check asserts no two combos share a digest triple). Keep-alive
 * is raced where the warm budget binds: prop_policy_test,
 * core_keepalive_test and `paper keepalive`.
 */
struct Combo
{
    const char *label;
    core::PlacementConfig placement;
    core::KeepAliveConfig keepAlive;
};

std::vector<Combo>
combos()
{
    return {
        {"po+lru", core::PlacementConfig::priceOrdered(),
         core::KeepAliveConfig::lru()},
        {"la+lru", core::PlacementConfig::loadAware(),
         core::KeepAliveConfig::lru()},
        {"lo+lru", core::PlacementConfig::locality(),
         core::KeepAliveConfig::lru()},
    };
}

/**
 * One full fleet run under @p combo. @p installPolicies false leaves
 * the runtime options untouched (the implicit defaults) — the
 * policy-swap-does-not-perturb control arm.
 */
ScenarioResult
runCombo(std::uint64_t seed, double rate, const Combo &combo,
         bool installPolicies = true)
{
    cluster::ScenarioSpec spec = cluster::policyRace(
        seed, rate, SimTime::fromSeconds(kHorizonSeconds));
    if (installPolicies) {
        spec.fleet.runtime.placement = combo.placement;
        spec.fleet.runtime.startup.keepAlive = combo.keepAlive;
    }
    return cluster::runScenario(spec);
}

bool
sameTriple(const ScenarioResult &a, const ScenarioResult &b)
{
    return a.statsDigest == b.statsDigest &&
           a.placementDigest == b.placementDigest &&
           a.evictionDigest == b.evictionDigest;
}

struct Row
{
    std::uint64_t seed;
    const Rung *rung;
    std::string combo;
    ScenarioResult outcome;
};

void
writeJson(const std::string &path, const std::vector<Row> &rows)
{
    std::ofstream out(path);
    out << "{\n  \"scenario\": \"policy-race\",\n  \"rows\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row &r = rows[i];
        const cluster::ClusterSummary &s = r.outcome.summary;
        char buf[768];
        std::snprintf(
            buf, sizeof(buf),
            "    {\"seed\": %llu, \"rung\": \"%s\", \"combo\": \"%s\", "
            "\"arrivals\": %lld, \"admitted\": %lld, "
            "\"dropped\": %lld, \"completed\": %lld, \"errors\": %lld, "
            "\"throughput\": %.1f, \"p50_us\": %.1f, \"p99_us\": %.1f, "
            "\"cost_usd\": %.6f, \"cost_per_inv_usd\": %.9f, "
            "\"stats_digest\": \"%s\", \"place_digest\": \"%s\", "
            "\"evict_digest\": \"%s\"}%s\n",
            (unsigned long long)r.seed, r.rung->label,
            r.combo.c_str(), (long long)s.arrivals,
            (long long)s.admitted, (long long)s.dropped,
            (long long)s.completed, (long long)s.errors,
            s.throughputPerSecond, s.p50Us, s.p99Us, s.totalCost,
            s.costPerInvocation,
            Table::hex(r.outcome.statsDigest).c_str(),
            Table::hex(r.outcome.placementDigest).c_str(),
            Table::hex(r.outcome.evictionDigest).c_str(),
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
    auto fail = [&pass](std::uint64_t seed, const std::string &what) {
        std::fprintf(stderr, "FAIL: seed %llu: %s\n",
                     (unsigned long long)seed, what.c_str());
        pass = false;
    };

    const std::vector<Combo> race = combos();

    Table table("Policy race: 4-node 2xBF2 fleet, open gateway, "
                "identical seeded streams");
    table.header({"seed", "rung", "combo", "arrivals", "completed",
                  "dropped", "p50us", "p99us", "thr/s", "cost$",
                  "$/1k inv"});

    std::vector<Row> rows;
    for (std::uint64_t seed : seeds) {
        // Policy swap must not perturb: explicit defaults vs a fleet
        // that never touched the policy knobs.
        {
            const double rate =
                kRaceCeilingPerSecond * kRungs[0].factor;
            const ScenarioResult implicit =
                runCombo(seed, rate, race[0], false);
            const ScenarioResult explicitDefaults =
                runCombo(seed, rate, race[0], true);
            if (!sameTriple(implicit, explicitDefaults))
                fail(seed,
                     "installing the default policies explicitly "
                     "perturbed the digest triple");
        }

        std::vector<ScenarioResult> saturated(race.size());
        for (const Rung &rung : kRungs) {
            const double rate = kRaceCeilingPerSecond * rung.factor;
            for (std::size_t c = 0; c < race.size(); ++c) {
                const ScenarioResult o =
                    runCombo(seed, rate, race[c]);
                if (rung.saturated)
                    saturated[c] = o;
                const cluster::ClusterSummary &s = o.summary;
                table.row({std::to_string(seed), rung.label,
                           race[c].label, std::to_string(s.arrivals),
                           std::to_string(s.completed),
                           std::to_string(s.dropped),
                           Table::num(s.p50Us, 1), Table::num(s.p99Us, 1),
                           Table::num(s.throughputPerSecond, 1),
                           Table::num(s.totalCost, 4),
                           Table::num(s.costPerInvocation * 1000.0, 6)});
                rows.push_back(
                    Row{seed, &rung, race[c].label, o});

                if (s.arrivals != s.admitted + s.shed + s.dropped)
                    fail(seed, std::string(race[c].label) +
                                   ": arrivals != admitted + shed + "
                                   "dropped");
                if (s.admitted != s.completed + s.errors)
                    fail(seed, std::string(race[c].label) +
                                   ": admitted != completed + errors");
                if (s.completed <= 0)
                    fail(seed, std::string(race[c].label) +
                                   ": nothing completed");
                if (!(s.p50Us > 0.0 && s.p50Us <= s.p99Us))
                    fail(seed, std::string(race[c].label) +
                                   ": percentiles not sane");
                if (s.totalCost <= 0.0 ||
                    s.costPerInvocation <= 0.0)
                    fail(seed, std::string(race[c].label) +
                                   ": completions not costed");
            }
        }

        // The spill fix: load-aware must beat the price-ordered
        // DPU-bound ceiling once the fleet saturates. The open
        // gateway drains its backlog after the generator stops, so
        // completed counts tie — the win shows up as a strictly
        // higher service rate and a strictly lower p99.
        if (saturated[1].summary.throughputPerSecond <=
            saturated[0].summary.throughputPerSecond)
            fail(seed, "load-aware did not raise saturated service "
                       "rate over price-ordered (" +
                           Table::num(saturated[1]
                                          .summary.throughputPerSecond,
                                      1) +
                           " <= " +
                           Table::num(saturated[0]
                                          .summary.throughputPerSecond,
                                      1) +
                           "/s)");
        if (saturated[1].summary.p99Us >= saturated[0].summary.p99Us)
            fail(seed, "load-aware did not cut saturated p99 vs "
                       "price-ordered (" +
                           Table::num(saturated[1].summary.p99Us, 1) +
                           " >= " +
                           Table::num(saturated[0].summary.p99Us, 1) +
                           "us)");

        // Determinism: serial vs re-run vs SweepRunner, per combo.
        const double satRate =
            kRaceCeilingPerSecond * kRungs[std::size(kRungs) - 1].factor;
        std::vector<ScenarioResult> rerun(race.size());
        for (std::size_t c = 0; c < race.size(); ++c)
            rerun[c] = runCombo(seed, satRate, race[c]);
        sim::SweepRunner pool;
        const auto swept = pool.map<ScenarioResult>(
            race.size(), [&](std::size_t c) {
                return runCombo(seed, satRate, race[c]);
            });
        for (std::size_t c = 0; c < race.size(); ++c) {
            for (std::size_t d = c + 1; d < race.size(); ++d)
                if (sameTriple(saturated[c], saturated[d]))
                    fail(seed, std::string(race[c].label) + " and " +
                                   race[d].label +
                                   " share a digest triple: the race "
                                   "cannot tell them apart");
            if (!sameTriple(saturated[c], rerun[c]))
                fail(seed, std::string(race[c].label) +
                               ": digest triple differs on re-run");
            if (!sameTriple(saturated[c], swept[c]))
                fail(seed, std::string(race[c].label) +
                               ": digest triple differs under "
                               "SweepRunner");
        }

        // Latency/cost Pareto frontier at the saturated rung.
        std::vector<cluster::ParetoPoint> points;
        for (std::size_t c = 0; c < race.size(); ++c) {
            cluster::ParetoPoint p;
            p.label = race[c].label;
            p.p99Us = saturated[c].summary.p99Us;
            p.cost = saturated[c].summary.totalCost;
            p.throughput = saturated[c].summary.throughputPerSecond;
            points.push_back(p);
        }
        const auto frontier = cluster::paretoFrontier(points);
        Table pareto("Latency/cost Pareto, seed " +
                     std::to_string(seed) + " @ saturation");
        pareto.header({"combo", "p99us", "cost$", "thr/s", "front"});
        for (const auto &p : points)
            pareto.row({p.label, Table::num(p.p99Us, 1),
                        Table::num(p.cost, 4), Table::num(p.throughput, 1),
                        p.dominated ? "" : "*"});
        pareto.print();
        std::printf("\n");
        if (frontier.empty())
            fail(seed, "empty Pareto frontier");
        for (std::size_t i = 1; i < frontier.size(); ++i)
            if (frontier[i - 1].p99Us > frontier[i].p99Us)
                fail(seed, "Pareto frontier not sorted by p99");
    }
    table.print();

    if (!jsonPath.empty()) {
        writeJson(jsonPath, rows);
        std::printf("\njson -> %s\n", jsonPath.c_str());
    }

    if (!check)
        return 0;
    if (pass)
        std::printf("\nOK: policy race clean — swap-safe defaults, "
                    "reproducible digest triples, load-aware beats "
                    "the DPU-bound ceiling\n");
    else
        std::printf("\nFAIL: policy race violated invariants "
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
                         "usage: policy_report [--check] "
                         "[--json PATH] [--seed N]...\n");
            return 2;
        }
    }
    if (seeds.empty())
        seeds.assign(std::begin(kSeeds), std::end(kSeeds));
    return report(check, jsonPath, seeds);
}
