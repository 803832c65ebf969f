/**
 * @file
 * FPGA functions: Figures 2-b, 13, 14-f, 14-g and 14-h, and Table 4.
 */

#include "bench/figures/figures.hh"

namespace molecule::figures {

namespace {

using workloads::Catalog;

/** AWS F1 with one card, @p fns registered as FPGA functions, started. */
std::unique_ptr<Stack>
f1Stack(const std::vector<std::string> &fns)
{
    auto s = std::make_unique<Stack>(42);
    s->computer = hw::buildF1Server(s->sim, 1);
    s->runtime = std::make_unique<core::Molecule>(*s->computer,
                                                  core::MoleculeOptions{});
    for (const auto &fn : fns)
        s->runtime->registerFpgaFunction(fn);
    s->runtime->start();
    return s;
}

/** Time the F1 host CPU takes to run FPGA workload @p fn's body. */
sim::SimTime
cpuRun(const std::string &fn, std::uint64_t units)
{
    sim::Simulation sim;
    auto computer = hw::buildF1Server(sim, 1);
    workloads::Catalog catalog;
    auto run = [](hw::ProcessingUnit *pu, sim::SimTime cost)
        -> sim::Task<> { co_await pu->compute(cost); };
    sim.spawn(run(&computer->pu(0), catalog.fpga(fn).cpuTime(units)));
    sim.run();
    return sim.now();
}

/** Execution time of a warm invocation (image resident, sandbox
 * prepared) of @p fn on @p units of input. */
sim::SimTime
fpgaWarm(core::Molecule &runtime, const std::string &fn,
         std::uint64_t units)
{
    (void)runtime.runSync(runtime.invokeFpga(fn, 0, 1)); // warm it up
    return runtime.runSync(runtime.invokeFpga(fn, 0, units))
        .value()
        .execution;
}

/** End-to-end latency of an FPGA chain on card 0, 4 KB messages. */
sim::SimTime
fpgaChain(Stack &s, const std::vector<std::string> &fns, bool shm)
{
    obs::ChainRecord rec;
    auto run = [](core::Molecule *m, std::vector<std::string> chain,
                  bool sh, obs::ChainRecord *out) -> sim::Task<> {
        auto r = co_await m->dag().runFpgaChain(chain, 0, sh, 4096);
        *out = std::move(r).value();
    };
    s.sim.spawn(run(s.runtime.get(), fns, shm, &rec));
    s.sim.run();
    return rec.endToEnd;
}

} // namespace

/**
 * Fig 13: a chain of 1..5 vector-compute functions exchanging 4 KB
 * messages on one card, copying through host DRAM vs keeping data in
 * the card's DRAM (§6.5: each host crossing is a 50-100 us DMA). The
 * stages reuse one slot sequentially (the wrapper shares a DRAM bank
 * for never-concurrent instances, §5).
 */
Figure
fig13()
{
    Figure fig;
    sim::Table t("Figure 13: chain latency (us) vs instance count");
    t.header({"chain length", "Copying", "Shm", "speedup"});
    for (int n = 1; n <= 5; ++n) {
        const std::vector<std::string> fns(std::size_t(n), "fpga-vecstage");
        const auto copying = fpgaChain(*f1Stack({"fpga-vecstage"}), fns,
                                       false);
        const auto shm = fpgaChain(*f1Stack({"fpga-vecstage"}), fns, true);
        const double speedup =
            copying.toMicroseconds() / shm.toMicroseconds();
        t.row({std::to_string(n), us(copying), us(shm), times(speedup, 2)});
        if (n < 5)
            continue;
        fig.inBand("5 functions, copying", about(1.5, " ms"),
                   copying.toMilliseconds(), 3);
        fig.inBand("5 functions, copying / shm", about(1.95, "×"), speedup,
                   2);
    }
    fig.tables.push_back(t);
    return fig;
}

/** Fig 14-f: GZip, CPU vs FPGA, 1 KB to 112 MB (the Linux tree, §6.6). */
Figure
fig14f()
{
    sim::Table t("Figure 14-f: GZip latency (s) vs file size");
    t.header({"file size", "CPU", "FPGA", "FPGA speedup"});
    const std::uint64_t mib = 1 << 20;
    struct Size
    {
        const char *label;
        std::uint64_t bytes;
    };
    const std::vector<Size> sizes{
        {"1KB", 1024},        {"1MB", mib},
        {"5MB", 5 * mib},     {"25MB", 25 * mib},
        {"50MB", 50 * mib},   {"75MB", 75 * mib},
        {"112MB (linux src)", 112 * mib}};
    Figure fig;
    for (const auto &size : sizes) {
        const auto cpu = cpuRun("fpga-gzip", size.bytes);
        const auto fpga =
            fpgaWarm(*f1Stack({"fpga-gzip"})->runtime, "fpga-gzip",
                     size.bytes);
        const double speedup = cpu.toSeconds() / fpga.toSeconds();
        t.row({size.label, secs(cpu, 3), secs(fpga, 3), times(speedup, 2)});
        const std::string label = std::string(size.label) + " speedup";
        if (size.bytes <= mib)
            fig.inBand(label + " (CPU wins)", atMost(1, "×"), speedup, 2);
        else if (size.bytes >= 75 * mib)
            fig.outOfBand(label, range(4.8, 8.3, "×"), speedup, 2,
                          Side::Above,
                          "the linear cost models keep amortizing the "
                          "FPGA's fixed overhead past 25 MB");
        else if (size.bytes >= 25 * mib)
            fig.inBand(label, range(4.8, 8.3, "×"), speedup, 2);
    }
    fig.tables.push_back(t);
    return fig;
}

/**
 * Fig 14-g: Anti-MoneyL, CPU vs FPGA, 6 K to 6 M transaction entries,
 * staged into the card's DRAM bank ahead of the invocation (data
 * retention, §4.3).
 */
Figure
fig14g()
{
    Figure fig;
    sim::Table t("Figure 14-g: Anti-MoneyL latency (ms) vs entries");
    t.header({"entries", "CPU", "FPGA", "FPGA speedup"});
    for (std::uint64_t entries :
         {6000ULL, 60000ULL, 600000ULL, 6000000ULL}) {
        const auto cpu = cpuRun("fpga-aml", entries);
        const auto fpga =
            fpgaWarm(*f1Stack({"fpga-aml"})->runtime, "fpga-aml", entries);
        const double speedup = cpu.toMilliseconds() / fpga.toMilliseconds();
        const std::string label =
            entries >= 1000000 ? std::to_string(entries / 1000000) + "M"
                               : std::to_string(entries / 1000) + "K";
        t.row({label, ms(cpu), ms(fpga), times(speedup, 1)});
        if (entries == 6000 || entries == 6000000)
            fig.inBand(label + " entries speedup",
                       about(entries == 6000 ? 4.7 : 34.6, "×"), speedup,
                       1);
    }
    fig.tables.push_back(t);
    return fig;
}

/**
 * Fig 2-b: the matrix kernels (scaling, addition, multiplication) on
 * CPU vs FPGA; Fig 14-h: the Matrix-Comput application, the three
 * chained with their operands kept in FPGA DRAM between stages.
 */
Figure
fig14h()
{
    auto f1 = f1Stack(Catalog::matrixKernels());
    f1->runtime->startup().setFpgaHotSet(0, Catalog::matrixKernels());

    Figure fig;
    sim::Table a("Figure 2-b: matrix kernels (us)");
    a.header({"kernel", "CPU function", "FPGA function", "speedup"});
    struct K
    {
        const char *label;
        const char *name;
        /** The paper's CPU label (us). */
        double cpuLabel;
        /** The speedup lies above the 2.15-2.82x band (a ≈ row). */
        bool above;
    };
    const std::vector<K> kernels{
        {"Matrix Scaling", "fpga-mscale", 192, false},
        {"Matrix Add", "fpga-madd", 324, false},
        {"Vector Multi", "fpga-vmult", 3551, true}};
    for (const auto &k : kernels) {
        const auto cpu = cpuRun(k.name, 1);
        const auto fpga = fpgaWarm(*f1->runtime, k.name, 1);
        const double speedup = cpu.toMicroseconds() / fpga.toMicroseconds();
        a.row({k.label, us(cpu), us(fpga), times(speedup, 2)});
        const std::string label = std::string("2-b ") + k.label;
        fig.inBand(label + " CPU", about(k.cpuLabel, " µs"),
                   cpu.toMicroseconds(), 0);
        if (k.above)
            fig.outOfBand(label + " speedup", range(2.15, 2.82, "×"),
                          speedup, 2, Side::Above,
                          "CPU time is calibrated to the label, FPGA time "
                          "to the card model; the ratio lands 0.3% high");
        else
            fig.inBand(label + " speedup", range(2.15, 2.82, "×"), speedup,
                       2);
    }
    fig.tables.push_back(a);

    sim::Table b("Figure 14-h: Matrix-Comput application (ms)");
    b.header({"system", "latency"});
    sim::SimTime cpuChain(0);
    for (const auto &k : kernels)
        cpuChain += cpuRun(k.name, 1);
    const auto fpgaApp = fpgaChain(*f1, Catalog::matrixKernels(), true);
    const double speedup =
        cpuChain.toMilliseconds() / fpgaApp.toMilliseconds();
    b.row({"CPU", ms(cpuChain)});
    b.row({"FPGA (chained, DRAM retention)", ms(fpgaApp)});
    b.row({"speedup", times(speedup, 2)});
    fig.tables.push_back(b);
    const char *why = "the app is only the three Fig 2-b kernels chained; "
                      "the paper's app does work the catalog lacks";
    fig.outOfBand("14-h app speedup", about(2.8, "×"), speedup, 2,
                  Side::Below, why);
    fig.outOfBand("14-h FPGA app latency", about(2.6, " ms"),
                  fpgaApp.toMilliseconds(), 2, Side::Below, why);
    return fig;
}

/**
 * Table 4: resource use of the vectorized wrapper runf's createVector
 * composes from 12 instances (4x madd, 4x mmult, 4x mscale) on AWS
 * F1, and the caching corollary (§6.4).
 */
Figure
tab4()
{
    using sandbox::CreateRequest;
    using sim::Table;

    sim::Simulation sim;
    auto computer = hw::buildF1Server(sim, 1);
    os::LocalOs hostOs{computer->pu(0)};
    sandbox::RunfRuntime runf{hostOs, computer->fpga(0)};
    workloads::Catalog catalog;

    std::vector<sandbox::FunctionImage> images;
    std::vector<CreateRequest> reqs;
    images.reserve(12);
    int counter = 0;
    for (const char *kind : {"fpga-madd", "fpga-vmult", "fpga-mscale"}) {
        for (int i = 0; i < 4; ++i) {
            images.push_back(catalog.fpga(kind).image);
            images.back().funcId += "-" + std::to_string(i);
            reqs.push_back(CreateRequest{
                "sb" + std::to_string(counter++), &images.back()});
        }
    }
    auto doIt = [](sandbox::RunfRuntime *r,
                   const std::vector<CreateRequest> *rs) -> sim::Task<> {
        auto created = co_await r->createVector(*rs);
        MOLECULE_ASSERT(created.valueOr(0) == 12, "composition failed");
    };
    sim.spawn(doIt(&runf, &reqs));
    sim.run();

    const auto used = computer->fpga(0).image().totalResources();
    const auto total = hw::FpgaResources::f1Totals();
    auto cell = [](long u, long t) {
        return std::to_string(u) + " (" +
               Table::num(100.0 * double(u) / double(t), 1) + "%)";
    };

    Figure fig;
    Table t("Table 4: resource utilization (wrapper, 12 functions)");
    t.header({"", "# LUTs", "# REGs", "# BRAMs", "# DSPs"});
    t.row({"AWS F1 Total", std::to_string(total.luts),
           std::to_string(total.regs), std::to_string(total.brams),
           std::to_string(total.dsps)});
    t.row({"Wrapper (12 func.)", cell(used.luts, total.luts),
           cell(used.regs, total.regs), cell(used.brams, total.brams),
           cell(used.dsps, total.dsps)});
    fig.tables.push_back(t);
    fig.footer = "Corollary (§6.4): 12 cached instances per card -> 96 "
                 "across the 8 F1 FPGAs.\n";

    fig.inBand("wrapper LUTs", about(119517, ""), used.luts, 0);
    fig.inBand("wrapper REGs", about(196996, ""), used.regs, 0);
    fig.inBand("wrapper BRAMs", about(486, ""), used.brams, 0);
    fig.inBand("wrapper DSPs", about(787, ""), used.dsps, 0);
    return fig;
}

} // namespace molecule::figures
