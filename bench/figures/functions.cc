/**
 * @file
 * Functions and chains on CPU and DPU: Figures 14-a..e and 15, and
 * the keep-alive ablation.
 */

#include <algorithm>
#include <map>

#include "bench/figures/figures.hh"
#include "load/generator.hh"
#include "sim/sweep.hh"

namespace molecule::figures {

namespace {

using core::Molecule;
using hw::DpuGeneration;
using sim::SimTime;
using workloads::Catalog;

/** FunctionBench on the §6 server, baseline (homo) or with cfork. */
std::unique_ptr<Stack>
functionBench(bool cfork, DpuGeneration gen)
{
    core::MoleculeOptions options;
    options.startup.useCfork = cfork;
    return cpuDpuStack(2, gen, Catalog::functionBenchNames(), options);
}

/** Cold end-to-end latency of @p fn on @p pu. */
SimTime
coldE2e(bool cfork, DpuGeneration gen, const std::string &fn, int pu)
{
    auto s = functionBench(cfork, gen);
    return s->runtime->runSync(s->runtime->invoke(fn, {.pu = pu}))
        .value()
        .endToEnd;
}

/** Warm end-to-end latency: the instance is pre-created and cached,
 * so the first invocation shows cfork's COW penalty (§6.6). */
SimTime
warmE2e(bool cfork, const std::string &fn, int pu)
{
    auto s = functionBench(cfork, DpuGeneration::Bf1);
    auto prewarm = [](Molecule *m, std::string name,
                      int target) -> sim::Task<> {
        const core::FunctionDef &def = m->registry().find(name);
        auto acq = co_await m->startup().acquire(def, target,
                                                 m->options().managerPu);
        co_await m->startup().release(def, acq);
    };
    s->sim.spawn(prewarm(s->runtime.get(), fn, pu));
    s->sim.run();
    return s->runtime->runSync(s->runtime->invoke(fn, {.pu = pu}))
        .value()
        .endToEnd;
}

/** One Fig 14 cold table; returns {baseline, Molecule} ms per fn. */
std::map<std::string, std::pair<double, double>>
coldTable(Figure &fig, const char *title, DpuGeneration gen, int pu)
{
    sim::Table t(title);
    t.header({"function", "Baseline (ms)", "Molecule (ms)", "speedup"});
    std::map<std::string, std::pair<double, double>> out;
    for (const auto &fn : Catalog::functionBenchNames()) {
        const auto base = coldE2e(false, gen, fn, pu);
        const auto mol = coldE2e(true, gen, fn, pu);
        t.row({fn, ms(base), ms(mol),
               times(base.toMilliseconds() / mol.toMilliseconds(), 2)});
        out[fn] = {base.toMilliseconds(), mol.toMilliseconds()};
    }
    fig.tables.push_back(t);
    return out;
}

/** End-to-end latency of the linear chain @p fns. */
SimTime
chainE2e(bool moleculeMode, const std::vector<std::string> &fns,
         const std::vector<int> &placement)
{
    auto s = cpuDpuStack(2, DpuGeneration::Bf1, fns,
                         moleculeMode ? core::MoleculeOptions{}
                                      : core::MoleculeOptions::homo());
    auto spec = core::ChainSpec::linear(fns.front(), fns);
    return s->runtime->runSync(s->runtime->invokeChain(spec, placement))
        .value()
        .endToEnd;
}

/** Fig 15 axes: cfork of helloworld on the host CPU, then an IPC
 * (CPU->CPU) and an nIPC (CPU->DPU) edge. */
struct Position
{
    SimTime startup;
    SimTime samePuComm;
    SimTime crossPuComm;
};

Position
measure(std::uint64_t seed)
{
    auto s = cpuDpuStack(1, DpuGeneration::Bf1,
                         {"helloworld", "mr-splitter", "mr-mapper"}, {},
                         {hw::PuType::HostCpu, hw::PuType::Dpu}, seed);
    Molecule &runtime = *s->runtime;
    Position p;
    p.startup = runtime.runSync(
        runtime.invoke("helloworld", {.pu = 0})).value().startup;
    auto spec = core::ChainSpec::linear("pair", {"mr-splitter", "mr-mapper"});
    std::vector<int> same{0, 0};
    p.samePuComm = runtime.runSync(
        runtime.invokeChain(spec, same)).value().edgeLatencies[0];
    std::vector<int> cross{0, 1};
    p.crossPuComm = runtime.runSync(
        runtime.invokeChain(spec, cross)).value().edgeLatencies[0];
    return p;
}

/** Per-axis medians over @p seeds replicas fanned out on the
 * SweepRunner, so the chart shows the design point, not one seed. */
Position
measureSweep(std::size_t seeds)
{
    sim::SweepRunner pool;
    auto points = pool.map<Position>(seeds, [](std::size_t i) {
        return measure(std::uint64_t(i) + 1);
    });
    auto median = [&](SimTime Position::*axis) {
        std::vector<SimTime> v;
        for (const auto &p : points)
            v.push_back(p.*axis);
        std::sort(v.begin(), v.end());
        return v[v.size() / 2];
    };
    return Position{median(&Position::startup),
                    median(&Position::samePuComm),
                    median(&Position::crossPuComm)};
}

const char *
startupClass(SimTime t)
{
    if (t.toMilliseconds() > 1000)
        return "Slow (>1s)";
    if (t.toMilliseconds() > 20)
        return "Fast (~50ms)";
    return "Extreme (<=20ms)";
}

const char *
commClass(SimTime t)
{
    if (t.toMilliseconds() > 2)
        return "Network (slow)";
    if (t.toMicroseconds() > 20)
        return "IPC (fast)";
    return "Thread/Language (extreme)";
}

struct Outcome
{
    std::int64_t coldStarts = 0;
    std::int64_t warmHits = 0;
    double meanStartupMs = 0;
    double p95StartupMs = 0;
};

/**
 * One keep-alive strategy and per-PU warm budget against a seeded
 * Poisson/Zipf(1.2) stream of FunctionBench calls on the host CPU,
 * 20 req/s for 120 s, each waiting for the previous one (closed
 * loop). The stream is the same for every strategy.
 */
Outcome
runTrace(const core::KeepAliveConfig &keepAlive, std::size_t budget)
{
    core::MoleculeOptions options;
    options.startup.keepAlive = keepAlive;
    options.startup.globalWarmCapacityPerPu = budget;
    // Without video-processing: its 34 s body would dominate wall time
    // without stressing the cache.
    load::TraceSpec trace;
    for (const auto &fn : Catalog::functionBenchNames())
        if (fn != "video-processing")
            trace.functions.push_back(fn);
    auto s = cpuDpuStack(0, DpuGeneration::Bf1, trace.functions, options,
                         {hw::PuType::HostCpu});
    trace.seed = 1234;
    trace.ratePerSecond = 20;
    trace.duration = SimTime::seconds(120);
    trace.tenants = {load::TenantSpec{"trace", 1.0, 1.2, 0}};
    load::OpenLoopGenerator gen(trace);

    sim::Histogram startup;
    auto drive = [](Molecule *m, load::OpenLoopGenerator *g,
                    sim::Histogram *hist) -> sim::Task<> {
        auto &clock = m->simulation();
        load::Arrival a;
        while (g->next(a)) {
            if (a.at > clock.now())
                co_await clock.delay(a.at - clock.now());
            auto rec = co_await m->invoke(g->spec().functions[a.fn],
                                          {.pu = 0});
            hist->addTime(rec.value().startup);
        }
    };
    s->sim.spawn(drive(s->runtime.get(), &gen, &startup));
    s->sim.run();
    return Outcome{s->runtime->startup().coldStarts(),
                   s->runtime->startup().warmHits(),
                   startup.mean() / 1000.0,
                   startup.percentile(95) / 1000.0};
}

} // namespace

/**
 * Fig 14-a..d: FunctionBench end to end, baseline (Molecule-homo) vs
 * Molecule: (a) cold on the host CPU, (b) warm on the host CPU, (c)
 * cold on a BF-1 DPU, (d) cold on a BF-2 DPU.
 */
Figure
fig14a()
{
    Figure fig;
    const auto cpu = coldTable(fig, "Figure 14-a: cold boot on CPU",
                               DpuGeneration::Bf1, 0);
    double lo = 1e300, hi = 0;
    for (const auto &[fn, v] : cpu) {
        lo = std::min(lo, v.first / v.second);
        hi = std::max(hi, v.first / v.second);
    }
    fig.inBand("(a) speedup, min over fns", range(1.01, 11.12, "×"), lo, 2);
    fig.inBand("(a) speedup, max over fns", range(1.01, 11.12, "×"), hi, 2);
    fig.inBand("(a) image-resize baseline", about(198.0, " ms"),
               cpu.at("image-resize").first, 2);
    fig.inBand("(a) video-processing baseline", about(38254, " ms"),
               cpu.at("video-processing").first, 2);

    sim::Table t("Figure 14-b: warm boot on CPU");
    t.header({"function", "Baseline (ms)", "Molecule (ms)",
              "Molecule/Baseline"});
    lo = 1e300;
    for (const auto &fn : Catalog::functionBenchNames()) {
        const auto base = warmE2e(false, fn, 0);
        const auto mol = warmE2e(true, fn, 0);
        const double r = mol.toMilliseconds() / base.toMilliseconds();
        t.row({fn, ms(base), ms(mol), sim::Table::num(r, 3)});
        lo = std::min(lo, r);
    }
    fig.tables.push_back(t);
    fig.inBand("(b) warm Molecule / baseline, min over fns", atLeast(1, "×"),
               lo, 3);

    const auto bf1 = coldTable(fig, "Figure 14-c: cold boot on BF-1 DPU",
                               DpuGeneration::Bf1, 1);
    const auto bf2 = coldTable(fig, "Figure 14-d: cold boot on BF-2 DPU",
                               DpuGeneration::Bf2, 1);
    // Molecule's latency ratios over the eight functions.
    double c[2] = {1e300, 0}, d[2] = {1e300, 0};
    for (const auto &[fn, v] : bf1) {
        const double overCpu = v.second / cpu.at(fn).second;
        const double overBf2 = v.second / bf2.at(fn).second;
        c[0] = std::min(c[0], overCpu), c[1] = std::max(c[1], overCpu);
        d[0] = std::min(d[0], overBf2), d[1] = std::max(d[1], overBf2);
    }
    fig.inBand("(c) BF-1 / CPU, min over fns", range(4, 7, "×"), c[0], 2);
    fig.inBand("(c) BF-1 / CPU, max over fns", range(4, 7, "×"), c[1], 2);
    fig.inBand("(d) BF-1 / BF-2, min over fns", range(3, 4, "×"), d[0], 2);
    fig.inBand("(d) BF-1 / BF-2, max over fns", range(3, 4, "×"), d[1], 2);
    const char *why = "one swFactor/computeFactor pair per PU cannot match "
                      "all eight labels; the 4–7× band holds";
    fig.outOfBand("(c) linpack baseline on BF-1", about(1855, " ms"),
                  bf1.at("linpack").first, 0, Side::Above, why);
    fig.outOfBand("(c) video-processing baseline on BF-1", about(240, " s"),
                  bf1.at("video-processing").first / 1000.0, 1,
                  Side::Below, why);
    return fig;
}

/**
 * Fig 14-e: the Alexa and MapReduce chains end to end on CPU, DPU and
 * across PUs, baseline vs Molecule. Instances are pre-booted (§6.6),
 * so the numbers isolate communication and execution.
 */
Figure
fig14e()
{
    struct App
    {
        const char *name;
        std::vector<std::string> fns;
        /** The paper's CPU baseline label (ms) and CPU speedup band. */
        double label, lo, hi;
    };
    const std::vector<App> apps{
        {"Alexa", Catalog::alexaChain(), 38.6, 2.04, 2.47},
        {"MapReduce", Catalog::mapReduceChain(), 20.0, 3.70, 4.47}};

    Figure fig;
    for (const auto &app : apps) {
        const auto n = app.fns.size();
        std::vector<int> cross;
        for (std::size_t i = 0; i < n; ++i)
            cross.push_back(i % 2 == 0 ? 0 : 1);
        const std::pair<const char *, std::vector<int>> rows[] = {
            {"CPU", std::vector<int>(n, 0)},
            {"DPU", std::vector<int>(n, 1)},
            {"CrossPU", cross}};

        sim::Table t(std::string("Figure 14-e: ") + app.name + " (ms)");
        t.header({"placement", "Baseline", "Molecule", "speedup"});
        for (const auto &[where, placement] : rows) {
            const auto base = chainE2e(false, app.fns, placement);
            const auto mol = chainE2e(true, app.fns, placement);
            const double speedup =
                base.toMilliseconds() / mol.toMilliseconds();
            t.row({where, ms(base), ms(mol), times(speedup, 2)});
            const std::string name = std::string(app.name) + " " + where;
            if (std::string(where) != "CPU") {
                // "Lower speedups" than on the CPU.
                fig.inBand(name + " speedup", atMost(app.lo, "×"), speedup,
                           2);
                continue;
            }
            fig.inBand(name + " baseline", about(app.label, " ms"),
                       base.toMilliseconds(), 2);
            fig.inBand(name + " speedup", range(app.lo, app.hi, "×"),
                       speedup, 2);
        }
        fig.tables.push_back(t);
    }
    return fig;
}

/**
 * Fig 15 (§6.7): where this Molecule lands on the paper's startup
 * (Slow >1s, Fast ~50ms, Extreme <=10ms) and communication
 * (Network, IPC, Thread/Language) axes, same-PU and cross-PU; the
 * other systems' cells are the paper's (qualitative).
 */
Figure
fig15()
{
    const Position p = measureSweep(32);

    Figure fig;
    sim::Table a("Figure 15-a: startup design (measured for this repo)");
    a.header({"system", "mechanism", "class"});
    a.row({"Docker / Kata / gVisor / FireCracker", "cold boot",
           "Slow (>1s)"});
    a.row({"SOCK / Replayable", "zygote / snapshot", "Fast (~50ms)"});
    a.row({"Catalyzer", "sfork (hypervisor)", "Extreme (<=10ms)"});
    a.row({"Molecule [measured " + ms(p.startup) + " ms]",
           "cfork (container)", startupClass(p.startup)});
    fig.tables.push_back(a);

    sim::Table b("Figure 15-b: communication design (measured)");
    b.header({"scope", "system", "class"});
    b.row({"same-PU", "OpenWhisk", "Network (slow)"});
    b.row({"same-PU", "Nightcore", "IPC (fast)"});
    b.row({"same-PU", "Faastlane / Faasm", "Thread/Language (extreme)"});
    b.row({"same-PU", "Molecule [measured " + ms(p.samePuComm) + " ms]",
           commClass(p.samePuComm)});
    b.row({"cross-PU", "others", "Network (slow)"});
    b.row({"cross-PU",
           "Molecule nIPC [measured " + ms(p.crossPuComm) + " ms]",
           commClass(p.crossPuComm)});
    fig.tables.push_back(b);

    fig.outOfBand("startup (Extreme class)", atMost(10, " ms"),
                  p.startup.toMilliseconds(), 2, Side::Above,
                  "the cfork calibration targets Figs 10 and 11 (8.4–19 ms "
                  "by image), not this cell");
    fig.inBand("same-PU comm (IPC-fast class)", range(0.02, 2, " ms"),
               p.samePuComm.toMilliseconds(), 2);
    fig.inBand("cross-PU comm (IPC-fast class)", range(0.02, 2, " ms"),
               p.crossPuComm.toMilliseconds(), 2);
    return fig;
}

/**
 * Ablation (§5 "Keep-alive policies"): plain LRU vs FaasCache-style
 * greedy-dual keep-alive under a skewed trace and a tight warm
 * budget. Greedy-dual weighs instances by cold-start cost over size,
 * so it protects functions that are expensive to boot. Not a paper
 * figure: the paper defers this choice to FaasCache.
 */
Figure
keepAlive()
{
    using core::KeepAliveConfig;
    Figure fig;
    sim::Table t("Keep-alive ablation (7 FunctionBench fns, host CPU)");
    t.header({"budget", "policy", "cold", "warm", "mean startup (ms)",
              "p95 startup (ms)"});
    for (std::size_t budget : {2, 3, 4, 6}) {
        for (const auto &keepAlive :
             {KeepAliveConfig::lru(), KeepAliveConfig::greedyDual()}) {
            const auto o = runTrace(keepAlive, budget);
            t.row({std::to_string(budget), core::toString(keepAlive.kind),
                   std::to_string(o.coldStarts), std::to_string(o.warmHits),
                   sim::Table::num(o.meanStartupMs, 2),
                   sim::Table::num(o.p95StartupMs, 2)});
        }
    }
    fig.tables.push_back(t);
    return fig;
}

} // namespace molecule::figures
