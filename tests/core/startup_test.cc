/**
 * @file
 * Unit tests for the startup manager (keep-alive strategies and
 * budgets, GPU, hot sets).
 */

#include <gtest/gtest.h>

#include <memory>

#include "core/molecule.hh"
#include "hw/computer.hh"
#include "workloads/catalog.hh"

namespace {

using namespace molecule;
using namespace molecule::sim::literals;
using core::KeepAliveConfig;
using core::Molecule;
using core::MoleculeOptions;
using hw::PuType;
using workloads::Catalog;

TEST(KeepAliveConfig, MakeBuildsTheSelectedStrategy)
{
    EXPECT_STREQ(KeepAliveConfig::lru().make()->name(), "lru");
    EXPECT_STREQ(KeepAliveConfig::greedyDual().make()->name(),
                 "greedy-dual");
    EXPECT_EQ(KeepAliveConfig::greedyDual().kind,
              KeepAliveConfig::Kind::GreedyDual);
    EXPECT_STREQ(core::toString(KeepAliveConfig::Kind::GreedyDual),
                 "greedy-dual");
}

TEST(Startup, GlobalBudgetEnforcedAcrossFunctions)
{
    sim::Simulation sim;
    auto computer = hw::buildCpuDpuServer(sim, 0,
                                          hw::DpuGeneration::Bf1);
    MoleculeOptions options;
    options.startup.globalWarmCapacityPerPu = 3;
    Molecule runtime(*computer, options);
    for (const auto &fn :
         {"helloworld", "pyaes", "dd", "matmul", "linpack"})
        runtime.registerCpuFunction(fn, {PuType::HostCpu});
    runtime.start();

    std::size_t total = 0;
    for (const auto &fn :
         {"helloworld", "pyaes", "dd", "matmul", "linpack"}) {
        (void)runtime.runSync(runtime.invoke(fn, {.pu = 0}));
        total = 0;
        for (const auto &g :
             {"helloworld", "pyaes", "dd", "matmul", "linpack"})
            total += runtime.startup().warmCount(g, 0);
        EXPECT_LE(total, 3u);
    }
}

TEST(Startup, GreedyDualKeepsHighestColdCostDensity)
{
    // FaasCache priority is freq x cold-cost / size: helloworld's
    // cold boot is almost as expensive as pyaes' (interpreter-bound)
    // at a fraction of the memory, so greedy-dual retains it even
    // when pyaes ran more recently; LRU keeps whatever ran last.
    auto helloworldWarm = [](const KeepAliveConfig &keepAlive) {
        sim::Simulation sim;
        auto computer = hw::buildCpuDpuServer(sim, 0,
                                              hw::DpuGeneration::Bf1);
        MoleculeOptions options;
        options.startup.keepAlive = keepAlive;
        options.startup.globalWarmCapacityPerPu = 1;
        options.startup.useCfork = false; // bigger cost contrast
        Molecule runtime(*computer, options);
        runtime.registerCpuFunction("helloworld", {PuType::HostCpu});
        runtime.registerCpuFunction("pyaes", {PuType::HostCpu});
        runtime.start();
        for (int i = 0; i < 4; ++i) {
            (void)runtime.runSync(runtime.invoke("helloworld", {.pu = 0}));
            // always most recent
            (void)runtime.runSync(runtime.invoke("pyaes", {.pu = 0}));
        }
        return runtime.startup().warmCount("helloworld", 0);
    };
    EXPECT_EQ(helloworldWarm(KeepAliveConfig::greedyDual()), 1u);
    EXPECT_EQ(helloworldWarm(KeepAliveConfig::lru()), 0u);
}

TEST(Startup, FpgaHotSetRecomposesOnMiss)
{
    sim::Simulation sim;
    auto computer = hw::buildF1Server(sim, 1);
    Molecule runtime(*computer, MoleculeOptions{});
    runtime.registerFpgaFunction("fpga-gzip");
    runtime.registerFpgaFunction("fpga-aml");
    runtime.start();

    runtime.startup().setFpgaHotSet(0, {"fpga-gzip"});
    auto first = runtime.runSync(
        runtime.invokeFpga("fpga-gzip", 0, 1024)).value();
    EXPECT_TRUE(first.coldStart);
    EXPECT_EQ(computer->fpga(0).programCount(), 1);

    // A miss on fpga-aml recomposes: hot set + the missed function.
    auto second = runtime.runSync(
        runtime.invokeFpga("fpga-aml", 0, 6000)).value();
    EXPECT_TRUE(second.coldStart);
    EXPECT_EQ(computer->fpga(0).programCount(), 2);
    EXPECT_TRUE(runtime.deployment().runf(0).cached("fpga-gzip"));
    EXPECT_TRUE(runtime.deployment().runf(0).cached("fpga-aml"));
}

TEST(Startup, GpuPathColdAndWarm)
{
    sim::Simulation sim;
    auto computer = hw::buildFullHetero(sim);
    Molecule runtime(*computer, MoleculeOptions{});
    runtime.registerGpuFunction("gnn-train-step", 4_ms, 2 << 20);
    runtime.start();

    auto cold = runtime.runSync(runtime.invokeGpu("gnn-train-step", 0)).value();
    EXPECT_TRUE(cold.coldStart);
    // Context creation + module load dominate the cold start.
    EXPECT_GT(cold.startup.toMilliseconds(), 200.0);
    EXPECT_GT(cold.execution.toMilliseconds(), 4.0);

    auto warm = runtime.runSync(runtime.invokeGpu("gnn-train-step", 0)).value();
    EXPECT_FALSE(warm.coldStart);
    EXPECT_LT(warm.startup.toMilliseconds(), 0.1);
    // MPS keeps many modules resident: a second function does not
    // re-create the context.
    runtime.registerGpuFunction("gnn-agg", 1_ms);
    auto other = runtime.runSync(runtime.invokeGpu("gnn-agg", 0)).value();
    EXPECT_TRUE(other.coldStart);
    EXPECT_LT(other.startup.toMilliseconds(), 50.0);
}

TEST(Startup, ShimHandlerThreadsRelieveBursts)
{
    // 8 concurrent xfifo_inits against the DPU shim: with one handler
    // thread they convoy; with four they overlap.
    auto burst = [](int threads) {
        sim::Simulation sim;
        auto computer = hw::buildCpuDpuServer(sim, 1,
                                              hw::DpuGeneration::Bf1);
        os::LocalOs cpuOs{computer->pu(0)};
        os::LocalOs dpuOs{computer->pu(1)};
        xpu::XpuShimNetwork net{*computer};
        net.addShim(cpuOs, xpu::TransportKind::Fifo);
        auto *dpuShim = net.addShim(dpuOs, xpu::TransportKind::MpscPoll);
        dpuShim->setHandlerThreads(threads);

        os::Process *proc = nullptr;
        auto boot = [](os::LocalOs *o, os::Process **p) -> sim::Task<> {
            *p = co_await o->spawnProcess("p", 1 << 20);
        };
        sim.spawn(boot(&dpuOs, &proc));
        sim.run();
        xpu::XpuClient client(*dpuShim, *proc);

        const auto t0 = sim.now();
        auto one = [](xpu::XpuClient *c, int i) -> sim::Task<> {
            (void)co_await c->xfifoInit("b" + std::to_string(i));
        };
        for (int i = 0; i < 8; ++i)
            sim.spawn(one(&client, i));
        sim.run();
        return sim.now() - t0;
    };
    const auto single = burst(1);
    const auto multi = burst(4);
    EXPECT_LT(multi, single);
}

} // namespace
