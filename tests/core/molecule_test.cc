/** @file End-to-end tests for the Molecule runtime facade. */

#include <gtest/gtest.h>

#include <memory>

#include "core/molecule.hh"
#include "hw/computer.hh"

namespace {

using molecule::core::ChainSpec;
using molecule::core::DagCommMode;
using molecule::core::Errc;
using molecule::core::Expected;
using molecule::core::InvokeOptions;
using molecule::core::Molecule;
using molecule::core::MoleculeOptions;
using molecule::hw::buildCpuDpuServer;
using molecule::hw::buildF1Server;
using molecule::hw::buildFullHetero;
using molecule::hw::Computer;
using molecule::hw::DpuGeneration;
using molecule::hw::PuType;
using molecule::obs::InvocationRecord;
using molecule::sim::Simulation;
using molecule::sim::SimTime;
using molecule::sim::Task;
using molecule::workloads::Catalog;

struct MoleculeFixture : ::testing::Test
{
    Simulation sim;
    std::unique_ptr<Computer> computer =
        buildCpuDpuServer(sim, 2, DpuGeneration::Bf1);
    std::unique_ptr<Molecule> runtime;

    void
    makeRuntime(MoleculeOptions options)
    {
        runtime = std::make_unique<Molecule>(*computer, options);
        runtime->registerCpuFunction("helloworld",
                                     {PuType::HostCpu, PuType::Dpu});
        runtime->registerCpuFunction("image-resize",
                                     {PuType::HostCpu, PuType::Dpu});
        for (const auto &fn : Catalog::alexaChain())
            runtime->registerCpuFunction(fn,
                                         {PuType::HostCpu, PuType::Dpu});
        runtime->start();
    }
};

TEST_F(MoleculeFixture, ColdThenWarmInvocation)
{
    makeRuntime(MoleculeOptions{});
    auto cold = runtime->runSync(
        runtime->invoke("helloworld", {.pu = 0})).value();
    EXPECT_TRUE(cold.coldStart);
    // cfork on the host CPU: low double-digit milliseconds.
    EXPECT_GT(cold.startup.toMilliseconds(), 5.0);
    EXPECT_LT(cold.startup.toMilliseconds(), 25.0);

    auto warm = runtime->runSync(
        runtime->invoke("helloworld", {.pu = 0})).value();
    EXPECT_FALSE(warm.coldStart);
    EXPECT_LT(warm.startup.toMilliseconds(), 0.1);
    EXPECT_LT(warm.endToEnd, cold.endToEnd);
    EXPECT_EQ(runtime->startup().warmHits(), 1);
}

TEST_F(MoleculeFixture, HomoBaselineColdStartIsSlower)
{
    makeRuntime(MoleculeOptions::homo());
    auto cold = runtime->runSync(
        runtime->invoke("helloworld", {.pu = 0})).value();
    EXPECT_TRUE(cold.coldStart);
    // Full container + interpreter boot: >100 ms on the server CPU.
    EXPECT_GT(cold.startup.toMilliseconds(), 100.0);
}

TEST_F(MoleculeFixture, CforkIsRoughly10xOverBaseline)
{
    makeRuntime(MoleculeOptions{});
    auto mol = runtime->runSync(
        runtime->invoke("image-resize", {.pu = 0})).value();

    Simulation sim2;
    auto computer2 = buildCpuDpuServer(sim2, 2, DpuGeneration::Bf1);
    Molecule homo(*computer2, MoleculeOptions::homo());
    homo.registerCpuFunction("image-resize",
                             {PuType::HostCpu, PuType::Dpu});
    homo.start();
    auto base = homo.runSync(homo.invoke("image-resize", {.pu = 0})).value();

    EXPECT_GT(base.startup.toMilliseconds() /
                  mol.startup.toMilliseconds(),
              8.0);
}

TEST_F(MoleculeFixture, RemoteStartAddsSmallNipcCost)
{
    makeRuntime(MoleculeOptions{});
    // Same function cold-started locally vs on the DPU: the remote
    // path adds the executor command round-trip (~1-3 ms at DPU
    // speed), on top of the DPU's slower cfork.
    auto local = runtime->runSync(
        runtime->invoke("helloworld", {.pu = 0})).value();
    auto remote = runtime->runSync(
        runtime->invoke("helloworld", {.pu = 1})).value();
    EXPECT_TRUE(remote.coldStart);
    EXPECT_GT(remote.startup, local.startup);
    // DPU cfork ~= 6.5x the CPU one + a few ms of command round-trip.
    EXPECT_LT(remote.startup.toMilliseconds(),
              local.startup.toMilliseconds() * 6.5 + 9.0);
}

TEST_F(MoleculeFixture, SchedulerPrefersCheaperDpu)
{
    makeRuntime(MoleculeOptions{});
    auto rec = runtime->runSync(runtime->invoke("helloworld")).value();
    // DPU profiles are priced lower, so the scheduler picks a DPU.
    EXPECT_EQ(computer->pu(rec.pu).type(), PuType::Dpu);
}

TEST_F(MoleculeFixture, ChainRunsOnSinglePuByAffinity)
{
    makeRuntime(MoleculeOptions{});
    auto spec = ChainSpec::linear("alexa", Catalog::alexaChain());
    auto rec = runtime->runSync(runtime->invokeChain(spec)).value();
    ASSERT_EQ(rec.invocations.size(), 5u);
    const int pu0 = rec.invocations[0].pu;
    for (const auto &inv : rec.invocations)
        EXPECT_EQ(inv.pu, pu0);
    EXPECT_EQ(rec.edgeLatencies.size(), 4u);
}

TEST_F(MoleculeFixture, IpcChainBeatsHttpChain)
{
    makeRuntime(MoleculeOptions{});
    auto spec = ChainSpec::linear("alexa", Catalog::alexaChain());
    std::vector<int> onCpu(5, 0);
    auto ipc = runtime->runSync(runtime->invokeChain(spec, onCpu)).value();

    Simulation sim2;
    auto computer2 = buildCpuDpuServer(sim2, 2, DpuGeneration::Bf1);
    Molecule homo(*computer2, MoleculeOptions::homo());
    for (const auto &fn : Catalog::alexaChain())
        homo.registerCpuFunction(fn, {PuType::HostCpu});
    homo.start();
    auto http = homo.runSync(homo.invokeChain(spec, onCpu)).value();

    // Fig 14-e: 2.04-2.47x less end-to-end latency for Alexa.
    const double ratio = http.endToEnd.toMilliseconds() /
                         ipc.endToEnd.toMilliseconds();
    EXPECT_GT(ratio, 1.8);
    EXPECT_LT(ratio, 2.9);
    // Fig 12-a: per-edge 15-18x faster with IPC on the same PU.
    for (std::size_t i = 0; i < 4; ++i) {
        const double edgeRatio =
            http.edgeLatencies[i].toMilliseconds() /
            ipc.edgeLatencies[i].toMilliseconds();
        EXPECT_GT(edgeRatio, 10.0);
        EXPECT_LT(edgeRatio, 25.0);
    }
}

TEST_F(MoleculeFixture, CrossPuChainUsesNipc)
{
    makeRuntime(MoleculeOptions{});
    auto spec = ChainSpec::linear("alexa", Catalog::alexaChain());
    // Alternate CPU/DPU so every edge crosses PUs (Fig 14-e CrossPU).
    std::vector<int> cross{0, 1, 0, 1, 0};
    auto rec = runtime->runSync(runtime->invokeChain(spec, cross)).value();
    ASSERT_EQ(rec.edgeLatencies.size(), 4u);
    for (const auto &edge : rec.edgeLatencies) {
        // nIPC edges stay sub-millisecond (Fig 12-c/d Molecule bars).
        EXPECT_LT(edge.toMilliseconds(), 1.2);
        EXPECT_GT(edge.toMilliseconds(), 0.1);
    }
}

TEST_F(MoleculeFixture, KeepAliveCachesAndEvicts)
{
    MoleculeOptions options;
    options.startup.warmCapacity = 2;
    makeRuntime(options);
    for (int i = 0; i < 5; ++i)
        ASSERT_TRUE(runtime->runSync(
            runtime->invoke("helloworld", {.pu = 0})).ok());
    EXPECT_LE(runtime->startup().warmCount("helloworld", 0), 2u);
    EXPECT_EQ(runtime->startup().coldStarts(), 1);
}

TEST(MoleculeFpga, InvokeColdAndWarm)
{
    Simulation sim;
    auto computer = buildF1Server(sim, 1);
    Molecule runtime(*computer, MoleculeOptions{});
    runtime.registerFpgaFunction("fpga-vmult");
    runtime.registerFpgaFunction("fpga-madd");
    runtime.start();

    auto cold = runtime.runSync(runtime.invokeFpga("fpga-vmult", 0, 1)).value();
    EXPECT_TRUE(cold.coldStart);
    // Cold FPGA start: program + sandbox prep, seconds.
    EXPECT_GT(cold.startup.toSeconds(), 1.0);

    auto warm = runtime.runSync(runtime.invokeFpga("fpga-vmult", 0, 1)).value();
    EXPECT_FALSE(warm.coldStart);
    EXPECT_LT(warm.startup.toMilliseconds(), 1.0);
    // Warm execution ~= kernel + invoke overheads.
    EXPECT_NEAR(warm.execution.toMicroseconds(), 1218.0 + 38.0, 30.0);
}

TEST(MoleculeFpga, HotSetKeepsSiblingsCached)
{
    Simulation sim;
    auto computer = buildF1Server(sim, 1);
    Molecule runtime(*computer, MoleculeOptions{});
    runtime.registerFpgaFunction("fpga-vmult");
    runtime.registerFpgaFunction("fpga-madd");
    runtime.registerFpgaFunction("fpga-mscale");
    runtime.start();

    runtime.startup().setFpgaHotSet(
        0, {"fpga-vmult", "fpga-madd", "fpga-mscale"});
    auto first = runtime.runSync(
        runtime.invokeFpga("fpga-vmult", 0, 1)).value();
    EXPECT_TRUE(first.coldStart);
    // Siblings were packed into the same image: warm for them too.
    auto second = runtime.runSync(
        runtime.invokeFpga("fpga-madd", 0, 1)).value();
    EXPECT_FALSE(second.coldStart);
    auto third = runtime.runSync(
        runtime.invokeFpga("fpga-mscale", 0, 1)).value();
    EXPECT_FALSE(third.coldStart);
    EXPECT_EQ(computer->fpga(0).programCount(), 1);
}

/** One CPU/DPU function, two FPGA kernels and one GPU module. */
struct HeteroFixture : ::testing::Test
{
    Simulation sim;
    std::unique_ptr<Computer> computer = buildFullHetero(sim);
    Molecule runtime{*computer, MoleculeOptions{}};

    void
    SetUp() override
    {
        runtime.registerCpuFunction("helloworld",
                                    {PuType::HostCpu, PuType::Dpu});
        runtime.registerFpgaFunction("fpga-madd");
        runtime.registerFpgaFunction("fpga-mscale");
        runtime.registerGpuFunction("gnn-gather",
                                    SimTime::fromMilliseconds(3));
        runtime.start();
    }
};

Task<>
collect(Task<Expected<InvocationRecord>> call,
        Expected<InvocationRecord> *slot)
{
    *slot = co_await std::move(call);
}

TEST_F(HeteroFixture, ConcurrentAcceleratorCallersAllReturn)
{
    // Two callers per device at the same instant: the second FPGA
    // composition must not replace the image under the first caller's
    // kernel, and the second GPU caller must not treat the first
    // caller's half-created sandbox as warm.
    std::vector<Expected<InvocationRecord>> out(
        4, Expected<InvocationRecord>(Errc::Hang, "pending"));
    sim.spawn(collect(runtime.invokeFpga("fpga-madd", 0, 4096), &out[0]));
    sim.spawn(collect(runtime.invokeFpga("fpga-mscale", 0, 4096), &out[1]));
    sim.spawn(collect(runtime.invokeGpu("gnn-gather", 0), &out[2]));
    sim.spawn(collect(runtime.invokeGpu("gnn-gather", 0), &out[3]));
    sim.run();
    for (std::size_t i = 0; i < out.size(); ++i)
        ASSERT_TRUE(out[i].ok()) << "caller " << i << ": "
                                 << out[i].error().toString();
    // The card ran one caller at a time: the second caller recomposed
    // after the first caller's kernel finished.
    EXPECT_TRUE(out[0].value().coldStart);
    EXPECT_TRUE(out[1].value().coldStart);
    EXPECT_GT(out[1].value().endToEnd, out[0].value().endToEnd);
    // One GPU module load; the second caller waited for it and hit warm.
    EXPECT_TRUE(out[2].value().coldStart);
    EXPECT_FALSE(out[3].value().coldStart);
}

/** Which entry point a parameterised case calls. */
enum class Entry { Cpu, Fpga, Gpu };

/** One call: @p fn through @p entry on device @p device. */
struct Call
{
    const char *name;
    Entry entry;
    const char *fn;
    int device = 0;
};

class EntryFixture : public HeteroFixture,
                     public ::testing::WithParamInterface<Call>
{
  protected:
    /** Run the parameter's call with @p opts to completion. */
    Expected<InvocationRecord>
    call(const InvokeOptions &opts = {})
    {
        const Call &c = GetParam();
        const std::string fn = c.fn;
        Expected<InvocationRecord> out(Errc::Hang, "not run");
        switch (c.entry) {
        case Entry::Cpu:
            out = runtime.runSync(runtime.invoke(fn, opts));
            break;
        case Entry::Fpga:
            out = runtime.runSync(
                runtime.invokeFpga(fn, c.device, 4096, opts));
            break;
        case Entry::Gpu:
            out = runtime.runSync(runtime.invokeGpu(fn, c.device, opts));
            break;
        }
        return out;
    }
};

std::string
callName(const ::testing::TestParamInfo<Call> &info)
{
    return info.param.name;
}

/** Print a case by name, so listed test names carry no raw bytes. */
void
PrintTo(const Call &c, std::ostream *os)
{
    *os << c.name;
}

using InvalidInvocation = EntryFixture;

TEST_P(InvalidInvocation, ReturnsInvalidArgument)
{
    const auto out = call();
    ASSERT_FALSE(out.ok());
    EXPECT_EQ(out.error().code(), Errc::InvalidArgument)
        << out.error().toString();
}

INSTANTIATE_TEST_SUITE_P(
    Inputs, InvalidInvocation,
    ::testing::Values(
        Call{"CpuOnAcceleratorOnly", Entry::Cpu, "fpga-madd"},
        Call{"FpgaWithoutProfile", Entry::Fpga, "helloworld"},
        Call{"GpuWithoutProfile", Entry::Gpu, "fpga-madd"},
        Call{"DeviceIndexOutOfRange", Entry::Fpga, "fpga-madd", 1}),
    callName);

/**
 * A cold start that blows a 1 ms budget: every kind returns
 * DeadlineExceeded without retrying, and leaves the started instance
 * usable so the next call is warm.
 */
using ColdStartPastDeadline = EntryFixture;

TEST_P(ColdStartPastDeadline, FailsOnceAndLeavesTheInstanceWarm)
{
    InvokeOptions tight;
    tight.deadline = SimTime::milliseconds(1);
    tight.maxAttempts = 3;
    const auto missed = call(tight);
    ASSERT_FALSE(missed.ok());
    EXPECT_EQ(missed.error().code(), Errc::DeadlineExceeded)
        << missed.error().toString();
    EXPECT_EQ(missed.error().retries(), 0);
    EXPECT_EQ(runtime.startup().coldStarts(), 1);

    const auto next = call();
    ASSERT_TRUE(next.ok()) << next.error().toString();
    EXPECT_FALSE(next.value().coldStart);
    EXPECT_EQ(next.value().attempts, 1);
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, ColdStartPastDeadline,
    ::testing::Values(Call{"Cpu", Entry::Cpu, "helloworld"},
                      Call{"FpgaCompose", Entry::Fpga, "fpga-madd"},
                      Call{"Gpu", Entry::Gpu, "gnn-gather"}),
    callName);

} // namespace
