/**
 * @file
 * Density and startup: Figures 2-a, 9, 10 and 11.
 */

#include <array>

#include "bench/figures/figures.hh"
#include "core/commercial.hh"
#include "sandbox/runc.hh"

namespace molecule::figures {

namespace {

using core::Molecule;
using sandbox::CreateRequest;
using sandbox::FunctionImage;
using sandbox::StartupPath;
using sim::SimTime;
using sim::Task;

/** Fill one machine with instances. Returns instances per PU. */
std::vector<int>
fillMachine(int dpuCount)
{
    sim::Simulation sim;
    auto computer = hw::buildCpuDpuServer(sim, dpuCount,
                                          hw::DpuGeneration::Bf1);
    // The host OS and daemons reserve memory on every PU.
    computer->pu(0).tryAllocate(6ULL << 30);
    for (int pu = 1; pu <= dpuCount; ++pu)
        computer->pu(pu).tryAllocate(512ULL << 20);

    core::MoleculeOptions options;
    options.startup.warmCapacity = 1u << 20; // never evict
    Molecule runtime(*computer, options);
    runtime.registerCpuFunction("image-resize",
                                {hw::PuType::HostCpu, hw::PuType::Dpu});
    runtime.start();

    std::vector<int> perPu(std::size_t(dpuCount) + 1, 0);
    const core::FunctionDef &def =
        runtime.registry().find("image-resize");

    // Baseline boots on the CPU (full footprint, no cfork)...
    auto boot = [](sandbox::RuncRuntime *runc, const FunctionImage *img,
                   int *count) -> Task<> {
        runc->setStartupPath(StartupPath::ColdBoot);
        while (true) {
            const CreateRequest req{
                "image-resize#" + std::to_string(*count), img};
            bool ok = co_await runc->create(req);
            if (!ok)
                break; // admission failure: the PU is full
            ok = co_await runc->start(req.sandboxId);
            if (!ok)
                break;
            ++*count;
        }
    };
    sim.spawn(boot(&runtime.deployment().runcOn(0),
                   &def.cpuWork->image, &perPu[0]));
    sim.run();
    // ...Molecule cforks on the DPUs (shared runtime region).
    auto fill = [](Molecule *m, const core::FunctionDef *fn, int pu,
                   int *count) -> Task<> {
        while (true) {
            auto acq = co_await m->startup().acquire(*fn, pu, 0);
            if (!acq.instance)
                break; // admission failure: the PU is full
            ++*count;
        }
    };
    for (int pu = 1; pu <= dpuCount; ++pu) {
        sim.spawn(fill(&runtime, &def, pu, &perPu[std::size_t(pu)]));
        sim.run();
    }
    return perPu;
}

/** Fig 9: helloworld startup and the <1 KB image-pair edge. */
std::array<SimTime, 2>
startupAndComm(const core::MoleculeOptions &options)
{
    auto s = cpuDpuStack(2, hw::DpuGeneration::Bf1,
                         {"helloworld", "image-resize", "mr-splitter"},
                         options, {hw::PuType::HostCpu});
    Molecule &runtime = *s->runtime;
    const SimTime startup = runtime.runSync(
        runtime.invoke("helloworld", {.pu = 0})).value().startup;
    auto spec = core::ChainSpec::linear(
        "img-pair", {"image-resize", "mr-splitter"});
    std::vector<int> placement{0, 0};
    auto rec = runtime.runSync(runtime.invokeChain(spec, placement)).value();
    return {startup, rec.edgeLatencies.at(0)};
}

/** Startup of @p fn on @p pu, issued from @p managerPu. */
SimTime
startupOn(bool cfork, const std::string &fn, int pu, int managerPu)
{
    core::MoleculeOptions options;
    options.startup.useCfork = cfork;
    options.managerPu = managerPu;
    auto s = cpuDpuStack(2, hw::DpuGeneration::Bf1, {fn}, options);
    return s->runtime->runSync(s->runtime->invoke(fn, {.pu = pu}))
        .value()
        .startup;
}

/** One FPGA create+start with the given runf options. */
SimTime
fpgaStartup(bool erase, bool cachedBitstream, bool reuseWarm)
{
    sim::Simulation sim;
    auto computer = hw::buildF1Server(sim, 1);
    os::LocalOs hostOs{computer->pu(0)};
    sandbox::RunfRuntime runf{hostOs, computer->fpga(0)};
    runf.options().eraseBeforeProgram = erase;
    runf.options().bitstreamCached = cachedBitstream;

    FunctionImage img;
    img.funcId = "vmult";
    img.language = sandbox::Language::FpgaOpenCl;
    img.fpgaResources = {9007, 9530, 30, 64};

    auto createIt = [](sandbox::RunfRuntime *r,
                       const FunctionImage *fi) -> Task<> {
        CreateRequest req{"sb", fi};
        bool ok = co_await r->create(req);
        MOLECULE_ASSERT(ok, "create failed");
    };
    auto startIt = [](sandbox::RunfRuntime *r) -> Task<> {
        bool ok = co_await r->start("sb");
        MOLECULE_ASSERT(ok, "start failed");
    };
    sim.spawn(createIt(&runf, &img));
    sim.run();
    // Warm-sandbox: the kernel is already resident (vectorized cache
    // hit); only the software sandbox preparation remains (53 ms).
    // Otherwise the full path: (erase +) program + sandbox preparation.
    const auto t0 = reuseWarm ? sim.now() : SimTime(0);
    sim.spawn(startIt(&runf));
    sim.run();
    return sim.now() - t0;
}

/** The tiny Python function of the Fig 11 breakdown, on the i7-9700. */
struct DesktopHarness
{
    sim::Simulation sim;
    std::unique_ptr<hw::Computer> computer = hw::buildDesktop(sim);
    os::LocalOs os{computer->pu(0)};
    sandbox::RuncRuntime runc{os};
    FunctionImage img;
    int counter = 0;

    DesktopHarness()
    {
        img.funcId = "pyfn";
        img.language = sandbox::Language::Python;
        img.mem.runtimeShared = std::uint64_t(4.5 * (1 << 20));
        img.mem.privateBytes = 8 << 20;
        img.mem.templateExtra = std::uint64_t(3.5 * (1 << 20));
    }

    void
    prepare()
    {
        auto prep = [](sandbox::RuncRuntime *r,
                       const FunctionImage *fi) -> Task<> {
            (void)co_await r->prepareTemplate(*fi);
            co_await r->prewarmFunctionContainers(24);
        };
        sim.spawn(prep(&runc, &img));
        sim.run();
    }

    SimTime
    createOnce(StartupPath path)
    {
        runc.setStartupPath(path);
        const std::string id = "sb" + std::to_string(counter++);
        const auto t0 = sim.now();
        auto doIt = [](sandbox::RuncRuntime *r,
                       CreateRequest req) -> Task<> {
            bool ok = co_await r->create(req);
            MOLECULE_ASSERT(ok, "create failed");
        };
        sim.spawn(doIt(&runc, CreateRequest{id, &img}));
        sim.run();
        return sim.now() - t0;
    }

    /** Mean {RSS, PSS} in MB over @p n instances. */
    std::array<double, 2>
    perInstance(int n, bool withTemplate)
    {
        double rss = 0, pss = 0;
        for (int i = 0; i < n; ++i) {
            const std::string id = "sb" + std::to_string(i);
            rss += double(runc.instanceRss(id));
            pss += runc.instancePss(id);
        }
        // Template resources belong to Molecule's footprint (§6.4).
        if (withTemplate)
            rss += double(runc.templateRss(sandbox::Language::Python));
        const double mb = double(1 << 20);
        return {rss / n / mb, pss / n / mb};
    }
};

} // namespace

/**
 * Fig 2-a: concurrent image-processing instances until admission
 * fails, with 0, 1 and 2 DPUs. CPU instances boot the baseline way
 * (full private footprints); DPU instances are cfork'd from the
 * per-DPU template and share its runtime region (§6.2).
 */
Figure
fig2a()
{
    Figure fig;
    sim::Table t("Figure 2-a: concurrent image-processing instances");
    t.header({"machine", "total", "per PU"});
    const double paper[] = {1000, 1256, 1512};
    for (int dpus : {0, 1, 2}) {
        auto perPu = fillMachine(dpus);
        int total = 0;
        std::string breakdown;
        for (std::size_t i = 0; i < perPu.size(); ++i) {
            total += perPu[i];
            breakdown += (i ? " + " : "") + std::to_string(perPu[i]);
        }
        const std::string label =
            dpus == 0 ? "CPU" : "+" + std::to_string(dpus) + " DPU";
        t.row({label, std::to_string(total), breakdown});
        fig.inBand(label + " instances", about(paper[dpus], ""), total, 0);
    }
    fig.tables.push_back(t);
    return fig;
}

/**
 * Fig 9: startup (helloworld, §6.3) and communication (a <1 KB
 * image-processing pair) against AWS Lambda and OpenWhisk. Molecule
 * and Molecule-homo run this stack; the commercial numbers are
 * calibrated comparator models.
 */
Figure
fig9()
{
    using core::CommercialPlatform;
    const auto mol = startupAndComm(core::MoleculeOptions{});
    const auto homo = startupAndComm(core::MoleculeOptions::homo());
    const SimTime cloud[2][2] = {
        {core::commercialStartupLatency(CommercialPlatform::AwsLambda),
         core::commercialCommLatency(CommercialPlatform::AwsLambda)},
        {core::commercialStartupLatency(CommercialPlatform::OpenWhisk),
         core::commercialCommLatency(CommercialPlatform::OpenWhisk)}};
    auto ratio = [](SimTime x, SimTime y) {
        return x.toMilliseconds() / y.toMilliseconds();
    };

    Figure fig;
    const char *what[] = {"startup", "comm"};
    const char *cloudNames[] = {"Lambda", "OpenWhisk"};
    for (int k = 0; k < 2; ++k) {
        sim::Table t(k == 0 ? "Figure 9-a: startup latency (ms)"
                            : "Figure 9-b: communication latency (ms)");
        t.header({"system", what[k], "vs Molecule"});
        t.row({k == 0 ? "AWS Lambda" : "AWS Lambda (step)",
               ms(cloud[0][k]), times(ratio(cloud[0][k], mol[k]), 1)});
        t.row({"OpenWhisk", ms(cloud[1][k]),
               times(ratio(cloud[1][k], mol[k]), 1)});
        t.row({"Molecule-Homo", ms(homo[k]),
               times(ratio(homo[k], mol[k]), 1)});
        t.row({"Molecule", ms(mol[k]), "1.0x"});
        fig.tables.push_back(t);

        for (int c = 0; c < 2; ++c) {
            const std::string vs = std::string(cloudNames[c]) + " / ";
            fig.inBand(vs + "Molecule " + what[k],
                       k == 0 ? range(37, 46, "×") : range(68, 300, "×"),
                       ratio(cloud[c][k], mol[k]), 1);
            const std::string label = vs + "Molecule-homo " + what[k];
            if (k == 0 && c == 0)
                fig.outOfBand(label, range(5, 6, "×"),
                              ratio(cloud[c][k], homo[k]), 2, Side::Below,
                              "one comparator model cannot meet both the "
                              "37–46× band over Molecule and this one; it "
                              "meets the former");
            else if (k == 0)
                fig.inBand(label, range(5, 6, "×"),
                           ratio(cloud[c][k], homo[k]), 2);
            else
                fig.inBand(label, range(4, 19, "×"),
                           ratio(cloud[c][k], homo[k]), 1);
        }
    }
    return fig;
}

/**
 * Fig 10: startup latency. (a) CPU and (b) BF-1 DPU: baseline cold
 * boot vs cfork issued locally vs from a neighbor PU (cfork-XPU), for
 * Python and Node.js; (c) the FPGA startup ladder.
 */
Figure
fig10()
{
    Figure fig;
    // Python rows: {baseline, cfork-local, cfork-XPU} on CPU and DPU.
    std::array<SimTime, 3> python[2];
    for (int pu : {0, 1}) {
        sim::Table t(pu == 0 ? "Figure 10-a: startup at CPU (ms)"
                             : "Figure 10-b: startup at BF-1 DPU (ms)");
        t.header({"runtime", "Baseline-local", "cfork-local", "cfork-XPU"});
        for (const char *fn : {"image-resize", "alexa-front"}) {
            const std::array<SimTime, 3> row{
                startupOn(false, fn, pu, pu), startupOn(true, fn, pu, pu),
                startupOn(true, fn, pu, 1 - pu)};
            const bool isPython = std::string(fn) == "image-resize";
            t.row({isPython ? "Python" : "Node.js", ms(row[0]), ms(row[1]),
                   ms(row[2])});
            if (isPython)
                python[pu] = row;
        }
        fig.tables.push_back(t);
    }

    const std::array<SimTime, 4> fpga{fpgaStartup(true, false, false),
                                      fpgaStartup(false, false, false),
                                      fpgaStartup(false, true, false),
                                      fpgaStartup(false, true, true)};
    sim::Table c("Figure 10-c: startup at FPGA (vmult)");
    c.header({"path", "latency (s)"});
    c.row({"Baseline (erase+load+prep)", secs(fpga[0])});
    c.row({"No-Erase", secs(fpga[1])});
    c.row({"Warm-image", secs(fpga[2])});
    c.row({"Warm-sandbox", secs(fpga[3], 3)});
    fig.tables.push_back(c);

    const auto &cpu = python[0];
    fig.inBand("(a) CPU Python baseline", about(180, " ms"),
               cpu[0].toMilliseconds(), 1);
    fig.inBand("(a) CPU Python cfork-local", range(10, 20, " ms"),
               cpu[1].toMilliseconds(), 1);
    fig.inBand("(a) CPU Python baseline / cfork", about(10, "×"),
               cpu[0].toMilliseconds() / cpu[1].toMilliseconds(), 1);
    fig.inBand("(a) CPU Python cfork-XPU extra", range(1, 3, " ms"),
               (cpu[2] - cpu[1]).toMilliseconds(), 1);
    fig.inBand("(b) BF-1 Python baseline", range(1200, 1600, " ms"),
               python[1][0].toMilliseconds(), 0);
    fig.outOfBand("(b) BF-1 Python cfork-XPU extra", range(1, 3, " ms"),
                  (python[1][2] - python[1][1]).toMilliseconds(), 1,
                  Side::Above, "the remote cfork runs on the slow BF-1 "
                               "executor");
    fig.inBand("(c) FPGA Baseline", atLeast(20, " s"), fpga[0].toSeconds(),
               2);
    fig.inBand("(c) No-Erase", about(3.8, " s"), fpga[1].toSeconds(), 2);
    fig.inBand("(c) Warm-image", about(1.9, " s"), fpga[2].toSeconds(), 2);
    fig.inBand("(c) Warm-sandbox", about(53, " ms"),
               fpga[3].toMilliseconds(), 0);
    return fig;
}

/**
 * Fig 11: (a) the four startup paths on the Fig 11 desktop (i7-9700);
 * (b,c) mean RSS and PSS per instance at 1..16 concurrent instances,
 * Molecule (cfork, shared template) vs baseline (cold boots).
 */
Figure
fig11()
{
    Figure fig;
    {
        DesktopHarness h;
        h.prepare();
        const StartupPath paths[] = {
            StartupPath::ColdBoot, StartupPath::CforkNaive,
            StartupPath::CforkFuncContainer, StartupPath::CforkCpusetOpt};
        const char *labels[] = {"Baseline", "+Naive cfork",
                                "+FuncContainer", "+Cpuset opt"};
        const double paper[] = {85.55, 47.25, 30.05, 8.40};
        sim::Table a("Figure 11-a: cfork breakdown on i7-9700 (ms)");
        a.header({"configuration", "startup"});
        for (int i = 0; i < 4; ++i) {
            const SimTime t = h.createOnce(paths[i]);
            a.row({labels[i], ms(t)});
            fig.inBand(std::string("(a) ") + labels[i],
                       about(paper[i], " ms"), t.toMilliseconds(), 2);
        }
        fig.tables.push_back(a);
    }

    sim::Table b("Figure 11-b/c: memory per instance (MB) vs concurrency");
    b.header({"instances", "RSS base", "RSS Molecule", "PSS base",
              "PSS Molecule"});
    std::array<double, 2> base{}, mol{};
    for (int n : {1, 2, 4, 8, 16}) {
        DesktopHarness baseline;
        for (int i = 0; i < n; ++i)
            baseline.createOnce(StartupPath::ColdBoot);
        base = baseline.perInstance(n, false);
        DesktopHarness cfork;
        cfork.prepare();
        for (int i = 0; i < n; ++i)
            cfork.createOnce(StartupPath::CforkCpusetOpt);
        mol = cfork.perInstance(n, true);
        b.row({std::to_string(n), sim::Table::num(base[0], 2),
               sim::Table::num(mol[0], 2), sim::Table::num(base[1], 2),
               sim::Table::num(mol[1], 2)});
    }
    fig.tables.push_back(b);
    // The loop leaves the 16-instance values behind.
    fig.inBand("(c) PSS saving at 16 instances", about(34, "%"),
               100.0 * (1.0 - mol[1] / base[1]), 1);
    fig.inBand("(b) RSS Molecule / base at 16 instances", atLeast(1, "×"),
               mol[0] / base[0], 2);
    return fig;
}

} // namespace molecule::figures
