/**
 * @file
 * molbench: the Molecule simulator benchmark.
 *
 *   molbench --workload <overload_warm|cold_churn|hetero_dag>
 *            --seed <n> --seconds <s> --trace <0|1>
 *
 * Repeats the workload (set-up plus one fixed stretch of simulated
 * time) until --seconds of wall time have passed, checks that every
 * repetition computed the same thing, and prints one table row per
 * metric followed, as the last line, by a JSON object:
 *
 *   {"correct": true, "attempted": N, "failed": F, "metrics": {...}}
 *
 * --trace 0 reports the end-to-end metrics from untraced repetitions.
 * --trace 1 interleaves untraced and traced repetitions (obs::Tracer
 * attached, every seam wrapper timing) and reports the per-layer
 * metrics. Host times are medians over repetitions; simulated results
 * and counts are exact for a seed. Any failed check exits 1 without
 * the JSON line; bad arguments exit 2.
 */

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "molbench.hh"

namespace {

using namespace molbench;

struct Workload
{
    const char *name;
    Rep (*run)(const RepConfig &);
    /** Workloads with accelerators also run the concurrency probe. */
    bool acceleratorProbe;
};

constexpr Workload kWorkloads[] = {
    {"overload_warm", runOverloadWarm, false},
    {"cold_churn", runColdChurn, false},
    {"hetero_dag", runHeteroDag, true},
};

constexpr const char *kLayerNames[SpanTally::kLayers] = {
    "core", "xpu", "os", "sandbox", "hw"};

struct Args
{
    const Workload *workload = nullptr;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "molbench: %s\nusage: molbench --workload "
                 "<overload_warm|cold_churn|hetero_dag> --seed <n> "
                 "--seconds <s> --trace <0|1>\n",
                 msg);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool haveSeed = false;
    bool haveSeconds = false;
    bool haveTrace = false;
    for (int i = 1; i < argc; i += 2) {
        if (i + 1 >= argc)
            usage("missing value");
        const std::string key = argv[i];
        const char *val = argv[i + 1];
        char *end = nullptr;
        if (key == "--workload") {
            for (const Workload &w : kWorkloads)
                if (std::strcmp(w.name, val) == 0)
                    a.workload = &w;
            if (a.workload == nullptr)
                usage("unknown workload");
        } else if (key == "--seed") {
            a.seed = std::strtoull(val, &end, 10);
            haveSeed = *val != '\0' && *val != '-' && *end == '\0';
        } else if (key == "--seconds") {
            a.seconds = std::strtod(val, &end);
            haveSeconds = *end == '\0' && std::isfinite(a.seconds) &&
                          a.seconds > 0.0 && a.seconds <= 600.0;
        } else if (key == "--trace") {
            haveTrace = std::strcmp(val, "0") == 0 ||
                        std::strcmp(val, "1") == 0;
            a.trace = std::strcmp(val, "1") == 0;
        } else {
            usage("unknown flag");
        }
    }
    if (a.workload == nullptr || !haveSeed || !haveSeconds || !haveTrace)
        usage("--workload, --seed, --seconds and --trace are required");
    return a;
}

/** Median and quartiles as Python's statistics.quantiles(n=4) gives. */
struct Spread
{
    double q1 = 0.0, median = 0.0, q3 = 0.0;
    std::size_t n = 0;
};

Spread
spread(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    Spread s;
    s.n = v.size();
    if (v.size() == 1) {
        s.q1 = s.median = s.q3 = v[0];
        return s;
    }
    // Exclusive method: the i-th quartile sits at i * (n + 1) / 4.
    const auto quartile = [&](int i) {
        const double pos = double(i) * double(v.size() + 1) / 4.0;
        const auto j = std::size_t(
            std::clamp(std::floor(pos), 1.0, double(v.size() - 1)));
        const double frac = std::clamp(pos - double(j), 0.0, 1.0);
        return v[j - 1] + (v[j] - v[j - 1]) * frac;
    };
    s.q1 = quartile(1);
    s.median = quartile(2);
    s.q3 = quartile(3);
    return s;
}

/** One printed metric; no value means "not exercised by this workload". */
struct Row
{
    std::string name;
    std::optional<double> value;
    std::string unit;
    /** Sample description: exact over n operations, or a median of n
     * repetitions with quartiles. */
    std::string samples;
};

std::string
hostSamples(const Spread &s)
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), "median of n=%zu, q1=%.6g q3=%.6g",
                  s.n, s.q1, s.q3);
    return buf;
}

std::string
exactSamples(std::size_t n)
{
    return "exact, n=" + std::to_string(n);
}

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
        for (unsigned i = 0; i < 3; ++i)
            __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        std::string s(reinterpret_cast<const char *>(regs), sizeof(regs));
        s.resize(std::strlen(s.c_str()));
        const auto b = s.find_first_not_of(' ');
        return b == std::string::npos ? "unknown" : s.substr(b);
    }
#endif
    return "unknown";
}

/**
 * Peak resident memory of one untraced repetition that keeps no
 * samples, run in a forked child so that only the simulator's memory
 * counts: not the benchmark's sample buffers, not earlier
 * repetitions. Fork before any repetition, so the child starts from
 * the bare process. Returns a negative value if the child failed.
 */
double
childPeakRssMb(const Workload &wl, std::uint64_t seed)
{
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = fork();
    if (pid < 0)
        return -1.0;
    if (pid == 0) {
        RepConfig cfg;
        cfg.seed = seed;
        cfg.samples = false;
        wl.run(cfg);
        _exit(0);
    }
    int status = 0;
    rusage ru{};
    while (wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
        return -1.0;
    return double(ru.ru_maxrss) / 1024.0;
}

/** Collected failures of the correctness checks. */
struct Checks
{
    std::vector<std::string> failures;

    void
    expect(bool ok, const std::string &what)
    {
        if (!ok)
            failures.push_back(what);
    }
};

/** A repetition must have computed exactly what the first (@p ref) did. */
void
checkRep(const Rep &ref, const Rep &r, const std::string &tag,
         Checks &checks)
{
    checks.expect(r.ops > 0, tag + ": no operation completed");
    checks.expect(r.accountingError.empty(), tag + ": " + r.accountingError);
    checks.expect(r.digest == ref.digest, tag + ": digest differs");
    checks.expect(r.ops == ref.ops && r.attempted == ref.attempted &&
                      r.failed == ref.failed,
                  tag + ": operation counts differ");
    checks.expect(r.events == ref.events, tag + ": event count differs");
    checks.expect(r.simSeconds == ref.simSeconds,
                  tag + ": simulated horizon differs");
    checks.expect(r.latencyMs == ref.latencyMs,
                  tag + ": latency samples differ");
    checks.expect(r.exact == ref.exact, tag + ": exact metrics differ");
}

/** Host-independent counts must also agree within each group. */
void
checkGroups(const std::vector<Rep> &reps, const std::vector<Rep> &traced,
            Checks &checks)
{
    for (const auto *group : {&reps, &traced}) {
        for (const Rep &r : *group) {
            checks.expect(r.allocs == group->front().allocs,
                          "allocation count differs between repetitions");
            checks.expect(r.spans.spans == group->front().spans.spans &&
                              r.spans.selfNs == group->front().spans.selfNs,
                          "span tally differs between repetitions");
        }
    }
}

std::vector<double>
perRep(const std::vector<Rep> &reps,
       const std::function<double(const Rep &)> &f)
{
    std::vector<double> v;
    for (const Rep &r : reps)
        v.push_back(f(r));
    return v;
}

std::optional<double>
lookup(const std::map<std::string, double> &m, const std::string &key)
{
    if (auto it = m.find(key); it != m.end())
        return it->second;
    return std::nullopt;
}

std::vector<Row>
endToEndRows(const std::vector<Rep> &reps,
             const std::vector<double> &setupS, double peakRssMb,
             const ProbeResult &probe)
{
    const Rep &ref = reps.front();
    const double ops = double(ref.ops);
    std::vector<double> lat = ref.latencyMs;
    std::sort(lat.begin(), lat.end());
    const Spread rate = spread(
        perRep(reps, [](const Rep &r) { return double(r.ops) / r.loopCpuS; }));
    const Spread setup = spread(setupS);
    const double attempted = double(ref.attempted + probe.attempted);
    std::vector<Row> rows;
    rows.push_back({"sim_ops_per_host_s", rate.median, "1/s",
                    hostSamples(rate)});
    rows.push_back({"setup_s", setup.median, "s", hostSamples(setup)});
    rows.push_back({"peak_rss_mb", peakRssMb, "MB",
                    "one repetition without samples, in a child"});
    rows.push_back({"events_per_op", double(ref.events) / ops, "events/op",
                    exactSamples(std::size_t(ref.ops))});
    rows.push_back({"allocs_per_op", double(ref.allocs) / ops, "allocs/op",
                    exactSamples(std::size_t(ref.ops))});
    rows.push_back({"sim_p50_ms", percentile(lat, 50.0), "ms",
                    exactSamples(lat.size())});
    rows.push_back({"sim_p99_ms", percentile(lat, 99.0), "ms",
                    exactSamples(lat.size())});
    rows.push_back({"sim_p999_ms", percentile(lat, 99.9), "ms",
                    exactSamples(lat.size())});
    rows.push_back({"sim_goodput_per_s", ops / ref.simSeconds, "1/s",
                    exactSamples(std::size_t(ref.ops))});
    rows.push_back({"failed_frac",
                    double(ref.failed + probe.failed) / attempted, "frac",
                    exactSamples(std::size_t(attempted))});
    rows.push_back({"cost_cents_per_kinv",
                    lookup(ref.exact, "cost_cents_per_kinv"), "cents/kinv",
                    exactSamples(std::size_t(ref.ops))});
    return rows;
}

std::vector<Row>
perLayerRows(const std::vector<Rep> &reps, const std::vector<Rep> &traced)
{
    const Rep &ref = traced.front();
    const std::string perOps = exactSamples(std::size_t(ref.ops));
    std::vector<Row> rows;
    const auto hostNs = [&](const std::string &name, const char *unit) {
        if (!ref.layerNs.count(name)) {
            rows.push_back({name, std::nullopt, unit, ""});
            return;
        }
        const Spread s = spread(perRep(
            traced, [&](const Rep &r) { return r.layerNs.at(name); }));
        rows.push_back({name, s.median, unit, hostSamples(s)});
    };
    const auto allocs = [&](const std::string &name) {
        rows.push_back({name, lookup(ref.layerAllocs, name), "allocs/call",
                        perOps});
    };
    const auto exact = [&](const std::string &name, const char *unit) {
        rows.push_back({name, lookup(ref.exact, name), unit, perOps});
    };
    hostNs("load.next_ns", "ns/call");
    hostNs("cluster.on_arrival_ns", "ns/call");
    allocs("cluster.on_arrival_allocs");
    hostNs("cluster.pick_ns", "ns/call");
    exact("cluster.queue_wait_p99_ms", "ms");
    exact("cluster.queue_max_depth", "count");
    hostNs("core.place_ns", "ns/call");
    allocs("core.place_allocs");
    exact("core.decisions_per_op", "count/op");
    hostNs("core.keepalive_ns", "ns/op");
    exact("core.cold_frac", "frac");
    exact("core.evictions_per_op", "count/op");
    exact("xpu.edge_p50_us", "us");
    exact("hw.fpga_reconfig_frac", "frac");
    exact("hw.fpga_startup_p50_ms", "ms");
    exact("hw.gpu_cold_frac", "frac");

    const Spread perEvent = spread(perRep(reps, [](const Rep &r) {
        return r.loopCpuS * 1e9 / double(r.events);
    }));
    rows.push_back({"sim.host_ns_per_event", perEvent.median, "ns/event",
                    hostSamples(perEvent)});
    const double ops = double(ref.ops);
    for (int l = 0; l < SpanTally::kLayers; ++l) {
        const std::string layer = kLayerNames[l];
        rows.push_back({"span." + layer + ".per_op",
                        double(ref.spans.spans[l]) / ops, "spans/op",
                        perOps});
        rows.push_back({"span." + layer + ".self_ms_per_op",
                        double(ref.spans.selfNs[l]) / 1e6 / ops, "ms/op",
                        perOps});
    }
    const Spread plain =
        spread(perRep(reps, [](const Rep &r) { return r.loopCpuS; }));
    const Spread withTrace =
        spread(perRep(traced, [](const Rep &r) { return r.loopCpuS; }));
    char samples[96];
    std::snprintf(samples, sizeof(samples),
                  "medians of n=%zu traced / n=%zu untraced", withTrace.n,
                  plain.n);
    rows.push_back({"obs.trace_overhead_frac",
                    withTrace.median / plain.median - 1.0, "frac", samples});
    return rows;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const Workload &wl = *args.workload;

    std::printf("molbench workload=%s seed=%llu seconds=%g trace=%d\n",
                wl.name, (unsigned long long)args.seed, args.seconds,
                args.trace ? 1 : 0);
    std::printf("machine: nproc=%ld cpu=\"%s\" build=%s\n",
                sysconf(_SC_NPROCESSORS_ONLN), cpuModel().c_str(),
                MOLBENCH_BUILD_TYPE);

    Checks checks;
    double peakRss = 0.0;
    if (!args.trace) {
        peakRss = childPeakRssMb(wl, args.seed);
        checks.expect(peakRss > 0.0, "memory child failed");
    }
    ProbeResult probe;
    if (wl.acceleratorProbe && !args.trace) {
        probe = runAcceleratorProbe();
        for (const auto &note : probe.notes)
            std::printf("probe: %s\n", note.c_str());
    }

    // Untraced repetitions, or untraced/traced pairs in alternating
    // order (untraced first), until the time budget is spent. Set-up is
    // short next to the run loop, so each untraced repetition also
    // times a few set-ups alone. Each repetition is checked against the
    // first untraced one as it finishes; only the first keeps its
    // latency samples.
    constexpr int kExtraSetups = 4;
    const std::size_t minReps = args.trace ? 2 : 3;
    std::vector<Rep> reps, traced;
    std::vector<double> setupS;
    const auto keep = [&](std::vector<Rep> &group, Rep r) {
        const std::string tag =
            std::string(&group == &reps ? "untraced" : "traced") +
            " rep " + std::to_string(group.size());
        checkRep(reps.empty() ? r : reps.front(), r, tag, checks);
        if (!reps.empty())
            std::vector<double>().swap(r.latencyMs);
        group.push_back(std::move(r));
    };
    const double t0 = wallSeconds();
    while (reps.size() < minReps || wallSeconds() - t0 < args.seconds) {
        const bool tracedFirst = args.trace && reps.size() % 2 == 1;
        if (tracedFirst)
            keep(traced, wl.run({args.seed, true, false}));
        keep(reps, wl.run({args.seed, false, false}));
        setupS.push_back(reps.back().setupCpuS);
        if (args.trace && !tracedFirst)
            keep(traced, wl.run({args.seed, true, false}));
        for (int i = 0; i < kExtraSetups && !args.trace; ++i)
            setupS.push_back(wl.run({args.seed, false, true}).setupCpuS);
    }

    checkGroups(reps, traced, checks);
    std::vector<Row> rows;
    if (checks.failures.empty())
        rows = args.trace ? perLayerRows(reps, traced)
                          : endToEndRows(reps, setupS, peakRss, probe);
    for (const Row &r : rows)
        checks.expect(!r.value || std::isfinite(*r.value),
                      r.name + " is not finite");
    if (!checks.failures.empty()) {
        for (const auto &f : checks.failures)
            std::fprintf(stderr, "molbench: check failed: %s\n", f.c_str());
        return 1;
    }

    std::printf("%-28s %16s  %-12s %s\n", "metric", "value", "unit",
                "samples");
    for (const Row &r : rows) {
        if (r.value)
            std::printf("%-28s %16.6g  %-12s %s\n", r.name.c_str(),
                        *r.value, r.unit.c_str(), r.samples.c_str());
        else
            std::printf("%-28s %16s  %-12s not exercised by %s\n",
                        r.name.c_str(), "n/a", r.unit.c_str(), wl.name);
    }
    std::printf("counts: %s\n", reps.front().detail.c_str());
    std::printf("checks: %zu untraced + %zu traced repetitions agree "
                "(digest %016llx)\n",
                reps.size(), traced.size(),
                (unsigned long long)reps.front().digest);

    // The JSON line: failed_frac and cost_cents_per_kinv stay in the
    // table only (they are 0 or not defined on some workloads); a
    // metric a workload does not exercise is reported as 0.
    const Rep &ref = reps.front();
    std::string json = "{\"correct\": true, \"attempted\": " +
                       std::to_string(ref.attempted + probe.attempted) +
                       ", \"failed\": " +
                       std::to_string(ref.failed + probe.failed) +
                       ", \"metrics\": {";
    bool first = true;
    for (const Row &r : rows) {
        if (r.name == "failed_frac" || r.name == "cost_cents_per_kinv")
            continue;
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      first ? "" : ", ", r.name.c_str(),
                      r.value.value_or(0.0), r.unit.c_str());
        json += buf;
        first = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}
