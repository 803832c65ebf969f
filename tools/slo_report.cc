/**
 * @file
 * slo_report: drive the telemetry plane to alert and prove it
 * deterministic.
 *
 * One scenario per seed: a deliberately under-provisioned 2-node
 * fleet behind an un-policed gateway, fed an open-loop Poisson stream
 * well above service capacity. The backlog grows, per-tenant p99
 * blows through the latency objective, and the SloMonitor's
 * multi-window burn-rate alerts fire — every run, every seed, at
 * sim-time instants that must reproduce exactly.
 *
 * --check enforces (per seed):
 *   - the (stats, window, alert) digest triple is bit-identical
 *     serial vs re-run vs on a SweepRunner worker;
 *   - window sums conserve: per-tenant completed/errors summed over
 *     closed windows equal the ClusterStats run totals, and the
 *     watched cluster.* counters do too;
 *   - the over-saturated stream actually fires latency alerts;
 *   - attaching the TimeSeries does not move the ClusterStats digest
 *     (observation must not perturb).
 *
 * --timeline PATH and --openmetrics PATH write the exporter artifacts
 * (JSON-lines windows, OpenMetrics text) for CI upload. --chaos
 * --dump PATH runs a fault-injection variant (PU crash mid-run) and
 * writes the flight recorder's post-mortem bundle.
 */

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "cluster/scenario.hh"
#include "fault/injector.hh"
#include "obs/flight_recorder.hh"
#include "obs/metrics_export.hh"
#include "obs/slo.hh"
#include "obs/timeseries.hh"
#include "sim/simulation.hh"
#include "sim/sweep.hh"
#include "sim/table.hh"

namespace {

using namespace molecule;
using sim::SimTime;
using sim::Table;

/** Offered load; well above what the 2-node fleet can serve. */
constexpr double kOfferedPerSecond = 400.0;

constexpr std::uint64_t kSeeds[] = {42, 7, 1};

/** Latency objective: 99% of requests under 20 ms. */
constexpr double kLatencyThresholdUs = 20'000.0;

cluster::ScenarioSpec
makeSpec(std::uint64_t seed)
{
    cluster::ScenarioSpec spec;
    spec.fleet.nodes = 2;
    spec.fleet.dpusPerNode = 1;
    spec.trace = cluster::catalogueTrace(seed, kOfferedPerSecond,
                                         SimTime::seconds(40));
    spec.admission.tokensPerSecond = 0.0; // no policing: let the queue grow
    spec.admission.queueCapacity = 8192;
    spec.admission.maxOutstandingPerNode = 48;
    return spec;
}

obs::SloSpec
makeSloSpec(std::uint32_t tenants)
{
    obs::SloSpec slo;
    slo.tenants = tenants;
    obs::SloObjective latency;
    latency.name = "latency-p99";
    latency.kind = obs::SloObjective::Kind::Latency;
    latency.thresholdUs = kLatencyThresholdUs;
    latency.targetFraction = 0.99;
    latency.burnThreshold = 4.0;
    latency.shortWindows = 3;
    latency.longWindows = 12;
    obs::SloObjective errors;
    errors.name = "error-rate";
    errors.kind = obs::SloObjective::Kind::ErrorRate;
    errors.targetFraction = 0.999;
    errors.burnThreshold = 4.0;
    errors.shortWindows = 3;
    errors.longWindows = 12;
    slo.objectives = {latency, errors};
    return slo;
}

struct Conservation
{
    std::string what;
    std::int64_t windowSum = 0;
    std::int64_t runTotal = 0;

    bool ok() const { return windowSum == runTotal; }
};

struct Outcome
{
    cluster::ClusterSummary summary;
    std::uint64_t statsDigest = 0;
    std::uint64_t windowDigest = 0;
    std::uint64_t alertDigest = 0;
    std::uint64_t windowsClosed = 0;
    std::size_t alertCount = 0;
    std::size_t latencyAlertsFired = 0;
    std::vector<obs::AlertEvent> alerts;
    std::vector<Conservation> conservation;
    std::uint64_t flightDumps = 0;
    std::uint64_t flightTriggers = 0;
    /** Per-window tenant rows for the timeline table. */
    struct TimelineRow
    {
        std::uint64_t window = 0;
        std::vector<std::int64_t> completed;
        std::vector<double> p99Us;
        std::vector<std::int64_t> above;
        int alertsAt = 0;
    };
    std::vector<TimelineRow> timeline;
    std::string timelineJsonl;
    std::string openMetrics;
};

struct RunConfig
{
    bool chaos = false;
    bool exports = false;
    std::string dumpPath;
};

Outcome
runObserved(std::uint64_t seed, const RunConfig &cfg = {})
{
    sim::Simulation sim(seed);
    obs::Tracer tracer(sim, seed);
    fault::FaultState faults;
    cluster::ScenarioSpec spec = makeSpec(seed);
    if (cfg.chaos) {
        // One shared fault plane: a PU index crashes on every node
        // (documented fleet-chaos semantics; the point here is the
        // recorder, not per-node blast radius).
        spec.fleet.runtime.faults = &faults;
        spec.fleet.runtime.tracer = &tracer;
    }
    cluster::Scenario scenario(sim, spec);

    obs::TimeSeriesOptions tsOpts;
    tsOpts.window = SimTime::seconds(1);
    obs::TimeSeries ts(sim, tsOpts);
    scenario.stats().attachTelemetry(&ts);

    obs::SloMonitor monitor(ts, makeSloSpec(spec.trace.tenantCount()));

    obs::FlightRecorderOptions frOpts;
    frOpts.keepWindows = 16;
    frOpts.spanTail = 128;
    obs::FlightRecorder recorder(ts, frOpts);
    monitor.addSink(&recorder);
    recorder.attachTracer(tracer);

    fault::Injector injector(sim, faults);
    injector.setRecorder(&recorder);
    if (cfg.chaos) {
        fault::InjectionPlan plan;
        plan.crashPu(1, SimTime::seconds(10), SimTime::seconds(5));
        injector.arm(plan);
    }

    const cluster::ScenarioResult run =
        scenario.run({.recorder = &recorder});
    ts.flush();

    Outcome out;
    out.summary = run.summary;
    out.statsDigest = run.statsDigest;
    out.windowDigest = ts.digest();
    out.alertDigest = monitor.alertDigest();
    out.windowsClosed = ts.windowsClosed();
    out.alertCount = monitor.alertCount();
    out.alerts = monitor.alerts();
    out.flightDumps = recorder.dumpCount();
    out.flightTriggers = recorder.triggerCount();
    for (const obs::AlertEvent &a : out.alerts)
        if (a.fired && a.objective == 0)
            ++out.latencyAlertsFired;

    // Conservation: window deltas summed over the whole run must
    // reproduce the run totals exactly — both the per-tenant series
    // fed directly and the watched cluster.* registry counters.
    const std::uint32_t tenants = spec.trace.tenantCount();
    std::vector<std::uint32_t> completedIds;
    std::vector<std::uint32_t> errorIds;
    for (std::uint32_t t = 0; t < tenants; ++t) {
        completedIds.push_back(
            ts.counterId("tenant.completed", int(t)));
        errorIds.push_back(ts.counterId("tenant.errors", int(t)));
    }
    const std::uint32_t clusterCompleted =
        ts.counterId("cluster.completed");
    const std::uint32_t clusterArrivals =
        ts.counterId("cluster.arrivals");

    std::vector<std::int64_t> sumCompleted(tenants, 0);
    std::vector<std::int64_t> sumErrors(tenants, 0);
    std::int64_t sumClusterCompleted = 0;
    std::int64_t sumClusterArrivals = 0;
    for (const obs::WindowRecord &w : ts.windows()) {
        Outcome::TimelineRow row;
        row.window = w.index;
        for (std::uint32_t t = 0; t < tenants; ++t) {
            const obs::WindowPoint *c = w.find(completedIds[t]);
            const obs::WindowPoint *e = w.find(errorIds[t]);
            if (c != nullptr)
                sumCompleted[t] += c->count;
            if (e != nullptr)
                sumErrors[t] += e->count;
            const obs::WindowPoint *lat = w.find(
                ts.histogramId("tenant.e2e_us", int(t)));
            row.completed.push_back(c != nullptr ? c->count : 0);
            row.p99Us.push_back(lat != nullptr ? lat->p99 : 0.0);
            row.above.push_back(lat != nullptr ? lat->above : 0);
        }
        const obs::WindowPoint *cc = w.find(clusterCompleted);
        const obs::WindowPoint *ca = w.find(clusterArrivals);
        if (cc != nullptr)
            sumClusterCompleted += cc->count;
        if (ca != nullptr)
            sumClusterArrivals += ca->count;
        for (const obs::AlertEvent &a : out.alerts)
            if (a.window == w.index)
                ++row.alertsAt;
        out.timeline.push_back(std::move(row));
    }

    for (const cluster::TenantSummary &trow : out.summary.tenants) {
        const auto t = std::uint32_t(trow.tenant);
        out.conservation.push_back({"tenant.completed[" +
                                        std::to_string(trow.tenant) +
                                        "]",
                                    sumCompleted[t], trow.completed});
        out.conservation.push_back({"tenant.errors[" +
                                        std::to_string(trow.tenant) +
                                        "]",
                                    sumErrors[t], trow.errors});
    }
    out.conservation.push_back({"cluster.completed",
                                sumClusterCompleted,
                                out.summary.completed});
    out.conservation.push_back({"cluster.arrivals", sumClusterArrivals,
                                out.summary.arrivals});

    if (cfg.exports) {
        out.timelineJsonl = obs::jsonLinesTimeline(ts);
        out.openMetrics = obs::openMetricsText(ts);
    }
    if (!cfg.dumpPath.empty() && recorder.dumpCount() > 0)
        recorder.writeLast(cfg.dumpPath);
    return out;
}

int
report(bool check, const RunConfig &base,
       const std::vector<std::uint64_t> &seeds)
{
    bool pass = true;
    auto fail = [&pass](std::uint64_t seed, const std::string &what) {
        std::fprintf(stderr, "FAIL: seed %llu: %s\n",
                     (unsigned long long)seed, what.c_str());
        pass = false;
    };

    // Digest triples: serial, serial re-run, SweepRunner worker.
    struct Triple
    {
        std::uint64_t stats, windows, alerts;

        bool
        operator==(const Triple &o) const
        {
            return stats == o.stats && windows == o.windows &&
                   alerts == o.alerts;
        }
    };
    // Replays must share the scenario shape (chaos on/off changes the
    // event stream by design) but never the side effects.
    RunConfig replay;
    replay.chaos = base.chaos;
    const auto triple = [&replay](std::uint64_t seed) {
        const Outcome o = runObserved(seed, replay);
        return Triple{o.statsDigest, o.windowDigest, o.alertDigest};
    };

    Table digests("Telemetry digests: serial vs re-run vs "
                  "SweepRunner");
    digests.header({"seed", "stats", "windows", "alerts", "match"});

    sim::SweepRunner pool;
    const auto threaded = pool.map<Triple>(
        seeds.size(),
        [&](std::size_t i) { return triple(seeds[i]); });

    std::vector<Outcome> outcomes;
    for (std::size_t i = 0; i < seeds.size(); ++i) {
        const std::uint64_t seed = seeds[i];
        Outcome first = runObserved(seed, replay);
        const Triple serial{first.statsDigest, first.windowDigest,
                            first.alertDigest};
        const Triple rerun = triple(seed);
        const bool match =
            serial == rerun && serial == threaded[i];
        digests.row({std::to_string(seed), Table::hex(serial.stats),
                     Table::hex(serial.windows),
                     Table::hex(serial.alerts), match ? "yes" : "NO"});
        if (!match)
            fail(seed, "digest triple serial != re-run/SweepRunner");
        outcomes.push_back(std::move(first));
    }
    digests.print();
    std::printf("\n");

    for (std::size_t i = 0; i < seeds.size(); ++i) {
        const std::uint64_t seed = seeds[i];
        const Outcome &o = outcomes[i];

        Table timeline(
            "Per-tenant timeline, seed " + std::to_string(seed) +
            " (1 s windows; alpha=tenant 0, beta=tenant 1)");
        timeline.header({"win", "t0.done", "t0.p99us", "t0.over",
                         "t1.done", "t1.p99us", "t1.over", "alerts"});
        for (const auto &row : o.timeline) {
            if (row.completed.size() < 2)
                continue;
            timeline.row({std::to_string(row.window),
                          std::to_string(row.completed[0]),
                          Table::num(row.p99Us[0], 1),
                          std::to_string(row.above[0]),
                          std::to_string(row.completed[1]),
                          Table::num(row.p99Us[1], 1),
                          std::to_string(row.above[1]),
                          std::to_string(row.alertsAt)});
        }
        timeline.print();

        Table alerts("Alert transitions, seed " +
                     std::to_string(seed));
        alerts.header(
            {"win", "tenant", "objective", "edge", "burn3", "burn12"});
        for (const obs::AlertEvent &a : o.alerts)
            alerts.row({std::to_string(a.window),
                        std::to_string(a.tenant),
                        a.objective == 0 ? "latency-p99" : "error-rate",
                        a.fired ? "FIRE" : "resolve",
                        Table::num(a.burnShort, 1),
                        Table::num(a.burnLong, 1)});
        alerts.print();
        std::printf("\n");

        if (!check)
            continue;
        for (const Conservation &c : o.conservation)
            if (!c.ok())
                fail(seed, c.what + ": window sum " +
                               std::to_string(c.windowSum) +
                               " != run total " +
                               std::to_string(c.runTotal));
        if (o.windowsClosed < 30)
            fail(seed, "expected >= 30 closed windows, got " +
                           std::to_string(o.windowsClosed));
        if (o.latencyAlertsFired == 0)
            fail(seed, "over-saturated stream fired no latency alert");
        if (o.summary.arrivals !=
            o.summary.admitted + o.summary.shed + o.summary.dropped)
            fail(seed, "arrivals != admitted + shed + dropped");
        // The bare baseline has no fault plane, so the comparison is
        // only meaningful for the fault-free scenario shape.
        if (!base.chaos) {
            const std::uint64_t bare =
                cluster::runScenario(makeSpec(seed)).statsDigest;
            if (bare != o.statsDigest)
                fail(seed,
                     "attaching TimeSeries moved the stats digest");
        }
        if (base.chaos && o.flightDumps == 0)
            fail(seed, "chaos run produced no flight-recorder dump");
    }

    if (!check)
        return 0;
    if (pass)
        std::printf("OK: alert stream reproducible, window sums "
                    "conserve, observation does not perturb\n");
    else
        std::printf("FAIL: telemetry plane violated invariants "
                    "(see stderr)\n");
    return pass ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    bool check = false;
    RunConfig cfg;
    std::string timelinePath;
    std::string openMetricsPath;
    std::vector<std::uint64_t> seeds;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--check") {
            check = true;
        } else if (a == "--chaos") {
            cfg.chaos = true;
        } else if (a == "--dump" && i + 1 < argc) {
            cfg.dumpPath = argv[++i];
        } else if (a == "--timeline" && i + 1 < argc) {
            timelinePath = argv[++i];
            cfg.exports = true;
        } else if (a == "--openmetrics" && i + 1 < argc) {
            openMetricsPath = argv[++i];
            cfg.exports = true;
        } else if (a == "--seed" && i + 1 < argc) {
            seeds.push_back(std::strtoull(argv[++i], nullptr, 10));
        } else {
            std::fprintf(
                stderr,
                "usage: slo_report [--check] [--chaos] [--dump PATH] "
                "[--timeline PATH] [--openmetrics PATH] [--seed N]...\n");
            return 2;
        }
    }
    if (seeds.empty())
        seeds.assign(std::begin(kSeeds), std::end(kSeeds));

    if (cfg.exports || !cfg.dumpPath.empty()) {
        // Artifact exports come from the first seed's run.
        RunConfig one = cfg;
        const Outcome o = runObserved(seeds.front(), one);
        if (!timelinePath.empty() &&
            obs::writeText(timelinePath, o.timelineJsonl))
            std::printf("timeline -> %s\n", timelinePath.c_str());
        if (!openMetricsPath.empty() &&
            obs::writeText(openMetricsPath, o.openMetrics))
            std::printf("openmetrics -> %s\n", openMetricsPath.c_str());
        if (!cfg.dumpPath.empty())
            std::printf("flight dump -> %s (dumps=%llu triggers=%llu)\n",
                        cfg.dumpPath.c_str(),
                        (unsigned long long)o.flightDumps,
                        (unsigned long long)o.flightTriggers);
    }

    return report(check, cfg, seeds);
}
