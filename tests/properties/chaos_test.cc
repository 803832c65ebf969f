/**
 * @file
 * Chaos properties: fault injection is deterministic and complete.
 *
 *  - Zero impact when disabled: attaching a FaultState and arming an
 *    *empty* plan reproduces the fault-free golden digests bit for
 *    bit (the constants pinned in determinism_test.cc).
 *  - Pinned chaos digests: a fixed fault schedule produces the same
 *    digest run-to-run, serially and under the multi-threaded
 *    SweepRunner.
 *  - No hangs: under any single injected fault (every kind, a grid of
 *    instants and seeds) every invocation with retries either
 *    completes or returns a typed error — the Errc::Hang watchdog
 *    never fires.
 *  - Chains too: a PU crash at any instant of a cold or a warm chain
 *    ends it in success or a typed error, never an abort or a hang,
 *    and the chain after the restart succeeds.
 *  - Deadlines beat retries: a failed FPGA reconfiguration whose
 *    retry cannot start inside the deadline ends in DeadlineExceeded,
 *    and the card is free for the next caller.
 */

#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "core/molecule.hh"
#include "fault/injector.hh"
#include "hw/computer.hh"
#include "sim/stats.hh"
#include "sim/sweep.hh"
#include "workloads/catalog.hh"

namespace {

using namespace molecule;
using core::ChainSpec;
using core::Errc;
using core::InvokeOptions;
using core::Molecule;
using core::MoleculeOptions;
using fault::FaultKind;
using fault::FaultState;
using fault::InjectionPlan;
using hw::PuType;
using sim::SimTime;
using workloads::Catalog;

// Fault-free golden digests (determinism_test.cc). An empty plan must
// reproduce them exactly: the fault plumbing schedules no events and
// consumes no randomness when nothing is armed.
constexpr std::uint64_t kGolden42 = 0x582305e76012b3f7ULL;
constexpr std::uint64_t kGolden7 = 0x2dacb53306886fbcULL;
constexpr std::uint64_t kGolden1 = 0x799fabc445a22749ULL;

/**
 * The determinism_test scenario verbatim, with the fault subsystem
 * attached and an empty plan armed. Must hit the fault-free digests.
 */
std::uint64_t
emptyPlanDigest(std::uint64_t seed)
{
    sim::Simulation sim(seed);
    auto computer = hw::buildCpuDpuServer(sim, 2,
                                          hw::DpuGeneration::Bf1);
    FaultState faults;
    MoleculeOptions mo;
    mo.faults = &faults;
    Molecule runtime(*computer, mo);
    runtime.registerCpuFunction("helloworld",
                                {PuType::HostCpu, PuType::Dpu});
    for (const auto &fn : Catalog::alexaChain())
        runtime.registerCpuFunction(fn, {PuType::HostCpu, PuType::Dpu});
    runtime.start();

    fault::Injector injector(sim, faults);
    injector.arm(InjectionPlan{});

    sim::Fingerprint fp;
    auto cold = runtime.runSync(
        runtime.invoke("helloworld", {.pu = 0})).value();
    fp.mix(std::uint64_t(cold.endToEnd.raw()));
    auto warm = runtime.runSync(
        runtime.invoke("helloworld", {.pu = 0})).value();
    fp.mix(std::uint64_t(warm.endToEnd.raw()));
    auto remote = runtime.runSync(
        runtime.invoke("helloworld", {.pu = 1})).value();
    fp.mix(std::uint64_t(remote.startup.raw()));

    auto spec = ChainSpec::linear("alexa", Catalog::alexaChain());
    std::vector<int> cross{0, 1, 0, 1, 0};
    auto rec = runtime.runSync(runtime.invokeChain(spec, cross)).value();
    fp.mix(std::uint64_t(rec.endToEnd.raw()));
    for (const auto &edge : rec.edgeLatencies)
        fp.mix(std::uint64_t(edge.raw()));
    return fp.digest();
}

/** Mix an invocation outcome — success timings or the typed error. */
void
mixOutcome(sim::Fingerprint &fp,
           const core::Expected<obs::InvocationRecord> &out)
{
    if (out.ok()) {
        fp.mix(std::uint64_t(out.value().endToEnd.raw()));
        fp.mix(std::uint64_t(out.value().pu));
        fp.mix(std::uint64_t(out.value().pusTried.size()));
    } else {
        fp.mix(0xFA17EDULL);
        fp.mix(std::uint64_t(out.error().code()));
        fp.mix(std::uint64_t(out.error().retries()));
    }
}

/**
 * One chaos scenario: the standard workload driven with retries +
 * failover under @p plan. Returns an outcome digest; also reports
 * whether any invocation hit the Errc::Hang watchdog.
 */
std::uint64_t
chaosDigest(std::uint64_t seed, const InjectionPlan &plan,
            bool *sawHang = nullptr)
{
    sim::Simulation sim(seed);
    auto computer = hw::buildCpuDpuServer(sim, 2,
                                          hw::DpuGeneration::Bf1);
    FaultState faults;
    MoleculeOptions mo;
    mo.faults = &faults;
    Molecule runtime(*computer, mo);
    runtime.registerCpuFunction("helloworld",
                                {PuType::HostCpu, PuType::Dpu});
    runtime.registerCpuFunction("image-resize",
                                {PuType::HostCpu, PuType::Dpu});
    runtime.start();

    fault::Injector injector(sim, faults);
    injector.arm(plan);

    bool hang = false;
    sim::Fingerprint fp;
    auto track = [&](const core::Expected<obs::InvocationRecord> &out) {
        hang |= !out.ok() && out.error().code() == Errc::Hang;
        mixOutcome(fp, out);
    };

    InvokeOptions retry;
    retry.maxAttempts = 3;
    for (int round = 0; round < 4; ++round) {
        retry.pu = 1;
        track(runtime.runSync(runtime.invoke("helloworld", retry)));
        retry.pu = -1;
        track(runtime.runSync(runtime.invoke("image-resize", retry)));
    }
    if (sawHang != nullptr)
        *sawHang = hang;
    return fp.digest();
}

/** The pinned chaos schedule: one fault of every kind. */
InjectionPlan
pinnedPlan()
{
    InjectionPlan plan(0);
    plan.crashPu(1, SimTime::milliseconds(250),
                 SimTime::milliseconds(8))
        .degradeLink(0, 1, SimTime::milliseconds(280),
                     SimTime::milliseconds(4), SimTime::milliseconds(12),
                     4.0)
        .oomKill(1, "image-resize", SimTime::milliseconds(300))
        .failFpgaReconfig(0, SimTime::milliseconds(310));
    return plan;
}

// Golden chaos digests for pinnedPlan(): captured once, pinned
// forever. A change to the fault, recovery or retry path that moves
// these must recapture them and say so in the commit.
constexpr std::uint64_t kChaos42 = 0xe6292dc43c5712b8ULL;
constexpr std::uint64_t kChaos7 = 0xe20f473224b555feULL;
constexpr std::uint64_t kChaos1 = 0x9a8a7f180b46919eULL;

TEST(Chaos, EmptyPlanReproducesFaultFreeGoldenDigests)
{
    EXPECT_EQ(emptyPlanDigest(42), kGolden42);
    EXPECT_EQ(emptyPlanDigest(7), kGolden7);
    EXPECT_EQ(emptyPlanDigest(1), kGolden1);
}

TEST(Chaos, PinnedFaultScheduleHasGoldenDigests)
{
    bool hang = true;
    EXPECT_EQ(chaosDigest(42, pinnedPlan(), &hang), kChaos42);
    EXPECT_FALSE(hang);
    EXPECT_EQ(chaosDigest(7, pinnedPlan()), kChaos7);
    EXPECT_EQ(chaosDigest(1, pinnedPlan()), kChaos1);
}

TEST(Chaos, PinnedDigestsHoldUnderSweepRunner)
{
    const std::uint64_t seeds[] = {42, 7, 1, 42, 7, 1};
    const std::uint64_t golden[] = {kChaos42, kChaos7, kChaos1,
                                    kChaos42, kChaos7, kChaos1};
    sim::SweepRunner pool;
    auto digests = pool.map<std::uint64_t>(
        std::size(seeds), [&](std::size_t i) {
            return chaosDigest(seeds[i], pinnedPlan());
        });
    for (std::size_t i = 0; i < std::size(seeds); ++i)
        EXPECT_EQ(digests[i], golden[i]) << "replica " << i;
}

TEST(Chaos, NoHangUnderAnySingleFault)
{
    // Property: any single fault, any instant on a coarse grid, any
    // seed — with retries enabled every invocation completes or
    // returns a typed error; the sim-time watchdog never reports a
    // hang. (FPGA faults are inert on this CPU+DPU box; they still
    // must not wedge anything.)
    const FaultKind kinds[] = {FaultKind::PuCrash,
                               FaultKind::LinkDegrade,
                               FaultKind::FpgaReconfigFail,
                               FaultKind::SandboxOom};
    const std::int64_t instantsMs[] = {0, 1, 5, 40, 200, 400};
    for (std::uint64_t seed : {1, 2, 3}) {
        for (FaultKind kind : kinds) {
            for (std::int64_t ms : instantsMs) {
                InjectionPlan plan;
                const SimTime at = SimTime::milliseconds(ms);
                switch (kind) {
                case FaultKind::PuCrash:
                    plan.crashPu(1, at, SimTime::milliseconds(6));
                    break;
                case FaultKind::LinkDegrade:
                    plan.degradeLink(0, 1, at, SimTime::milliseconds(5),
                                     SimTime::milliseconds(15), 3.0);
                    break;
                case FaultKind::FpgaReconfigFail:
                    plan.failFpgaReconfig(0, at, 2);
                    break;
                case FaultKind::SandboxOom:
                    plan.oomKill(1, "image-resize", at);
                    break;
                }
                bool hang = true;
                (void)chaosDigest(seed, plan, &hang);
                EXPECT_FALSE(hang)
                    << toString(kind) << " at " << ms << "ms, seed "
                    << seed;
            }
        }
    }
}

TEST(Chaos, GpuHostCrashIsRetriedOnTheSameGpu)
{
    // The GPU path runs the same attempt loop as CPU/DPU: a host
    // crash that outlasts the first attempts is retried after backoff
    // on the same GPU, and too few attempts end in a typed error.
    sim::Simulation sim(42);
    auto computer = hw::buildFullHetero(sim);
    FaultState faults;
    MoleculeOptions mo;
    mo.faults = &faults;
    Molecule runtime(*computer, mo);
    runtime.registerGpuFunction("gnn-gather", SimTime::fromMilliseconds(3));
    runtime.start();
    fault::Injector injector(sim, faults);
    const int host = computer->gpuDev(0).hostPuId();

    // Down from +1 ms to +9 ms; attempts land at +2, +7 and +12 ms.
    auto crashSoon = [&] {
        InjectionPlan plan;
        plan.crashPu(host, sim.now() + SimTime::milliseconds(1),
                     SimTime::milliseconds(8));
        injector.arm(plan);
        sim.runUntil(sim.now() + SimTime::milliseconds(2));
        ASSERT_FALSE(faults.puUp(host));
    };
    InvokeOptions retry;
    retry.maxAttempts = 3;
    crashSoon();
    const auto ok =
        runtime.runSync(runtime.invokeGpu("gnn-gather", 0, retry));
    ASSERT_TRUE(ok.ok()) << ok.error().toString();
    EXPECT_EQ(ok.value().attempts, 3);
    EXPECT_EQ(ok.value().pu, host);
    ASSERT_EQ(ok.value().pusTried.size(), 1u);
    EXPECT_EQ(ok.value().pusTried[0], host);
    EXPECT_FALSE(ok.value().failedOver);

    retry.maxAttempts = 2;
    crashSoon();
    const auto failed =
        runtime.runSync(runtime.invokeGpu("gnn-gather", 0, retry));
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.error().code(), Errc::RetriesExhausted);
    EXPECT_EQ(failed.error().retries(), 1);
    ASSERT_FALSE(failed.error().causes().empty());
    EXPECT_EQ(failed.error().causes().front().code, Errc::PuCrashed);
    EXPECT_EQ(failed.error().pusTried(), std::vector<int>{host});
}

/** A faulted chain's outcome and the outcome of the chain after it. */
struct ChainUnderCrash
{
    core::Expected<obs::ChainRecord> faulted;
    /** Sim time from the faulted chain's start to its return. */
    SimTime took;
    core::Expected<obs::ChainRecord> next;
};

/** Run one chain, noting when it returns. */
sim::Task<core::Expected<obs::ChainRecord>>
timedChain(Molecule *rt, const ChainSpec *spec,
           const std::vector<int> *placement, SimTime *returned)
{
    auto r = co_await rt->invokeChain(*spec, *placement);
    *returned = rt->simulation().now();
    co_return r;
}

/**
 * The Alexa chain on {0, 1, 0, 1, 0}, PU 1 crashing @p after its start
 * for 6 ms (no crash when unset). With @p warm, one chain has wired the
 * instances before. Each runSync drains the simulation, so the restart
 * and the recovery are over when the second chain starts.
 */
ChainUnderCrash
chainUnderCrash(bool warm, std::optional<SimTime> after)
{
    sim::Simulation sim(42);
    auto computer = hw::buildCpuDpuServer(sim, 2,
                                          hw::DpuGeneration::Bf1);
    FaultState faults;
    MoleculeOptions mo;
    mo.faults = &faults;
    Molecule runtime(*computer, mo);
    for (const auto &fn : Catalog::alexaChain())
        runtime.registerCpuFunction(fn, {PuType::HostCpu, PuType::Dpu});
    runtime.start();
    const ChainSpec spec = ChainSpec::alexa();
    const std::vector<int> cross{0, 1, 0, 1, 0};
    if (warm) {
        EXPECT_TRUE(runtime.runSync(runtime.invokeChain(spec, cross)).ok());
    }

    fault::Injector injector(sim, faults);
    if (after) {
        InjectionPlan plan;
        plan.crashPu(1, sim.now() + *after, SimTime::milliseconds(6));
        injector.arm(plan);
    }
    const SimTime start = sim.now();
    SimTime returned = start;
    auto faulted = runtime.runSync(
        timedChain(&runtime, &spec, &cross, &returned));
    EXPECT_TRUE(faults.puUp(1));
    auto next = runtime.runSync(runtime.invokeChain(spec, cross));
    return ChainUnderCrash{std::move(faulted), returned - start,
                           std::move(next)};
}

TEST(Chaos, FpgaReconfigFailureUnderADeadlineIsDeadlineExceeded)
{
    sim::Simulation sim(42);
    auto computer = hw::buildF1Server(sim, 1);
    FaultState faults;
    MoleculeOptions mo;
    mo.faults = &faults;
    Molecule runtime(*computer, mo);
    runtime.registerFpgaFunction("fpga-gzip");
    runtime.start();
    const int host = computer->fpga(0).hostPuId();

    // How long one failed composition takes (this consumes the armed
    // failure; the card then holds no image).
    faults.armFpgaReconfigFailure(host, 1);
    SimTime t0 = sim.now();
    const auto probe =
        runtime.runSync(runtime.invokeFpga("fpga-gzip", 0, 1024));
    ASSERT_FALSE(probe.ok());
    ASSERT_EQ(probe.error().code(), Errc::FpgaReconfigFailed);
    const SimTime failedCompose = sim.now() - t0;
    ASSERT_GT(failedCompose, SimTime(0));

    // The deadline outlasts the failed composition but not the 5 ms
    // backoff after it, so the second attempt is refused at admission.
    faults.armFpgaReconfigFailure(host, 1);
    InvokeOptions opts;
    opts.maxAttempts = 3;
    opts.deadline = failedCompose + SimTime::milliseconds(2);
    t0 = sim.now();
    const auto late =
        runtime.runSync(runtime.invokeFpga("fpga-gzip", 0, 1024, opts));
    ASSERT_FALSE(late.ok());
    EXPECT_EQ(late.error().code(), Errc::DeadlineExceeded)
        << late.error().toString();
    EXPECT_EQ(sim.now() - t0, failedCompose + SimTime::milliseconds(5));
    EXPECT_FALSE(faults.consumeFpgaReconfigFailure(host))
        << "the failed attempt must consume the armed failure";

    // The per-card semaphore was released: the next call programs the
    // card and runs.
    const auto next =
        runtime.runSync(runtime.invokeFpga("fpga-gzip", 0, 1024));
    ASSERT_TRUE(next.ok()) << next.error().toString();
    EXPECT_TRUE(next.value().coldStart);
}

TEST(Chaos, ChainSurvivesPuCrashAtAnyInstant)
{
    // Warm chains at fixed instants; cold chains (acquire, wire, run)
    // at fractions of their fault-free duration.
    std::vector<std::pair<bool, SimTime>> grid;
    for (double ms : {0.1, 0.5, 2.0, 5.0, 9.0})
        grid.emplace_back(true, SimTime::fromMilliseconds(ms));
    const SimTime cold = chainUnderCrash(false, std::nullopt).took;
    for (double f : {0.02, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99})
        grid.emplace_back(false, SimTime::fromMilliseconds(
                                     cold.toMilliseconds() * f));
    int failed = 0;
    for (const auto &[warm, at] : grid) {
        const auto out = chainUnderCrash(warm, at);
        const std::string where = std::string(warm ? "warm" : "cold") +
                                  " chain, crash at +" +
                                  std::to_string(at.toMilliseconds()) +
                                  " ms";
        if (!out.faulted.ok()) {
            ++failed;
            EXPECT_EQ(out.faulted.error().code(), Errc::PuCrashed)
                << where << ": " << out.faulted.error().toString();
        }
        EXPECT_TRUE(out.next.ok())
            << where << ": the chain after the restart failed: "
            << out.next.error().toString();
    }
    // The grid does hit the chains, not only the gaps between them.
    EXPECT_GE(failed, 5);
}

TEST(Chaos, ChainRejectsBadInputTyped)
{
    sim::Simulation sim(42);
    auto computer = hw::buildCpuDpuServer(sim, 1,
                                          hw::DpuGeneration::Bf1);
    Molecule runtime(*computer, MoleculeOptions{});
    for (const auto &fn : Catalog::alexaChain())
        runtime.registerCpuFunction(fn, {PuType::HostCpu, PuType::Dpu});
    runtime.start();
    const ChainSpec alexa = ChainSpec::alexa();
    auto code = [&](const ChainSpec &spec, std::vector<int> placement) {
        const auto r = runtime.runSync(
            runtime.invokeChain(spec, std::move(placement)));
        return r.ok() ? Errc::Ok : r.error().code();
    };
    EXPECT_EQ(code(alexa, {0, 1, 0}), Errc::InvalidArgument);
    EXPECT_EQ(code(alexa, {0, 1, 0, 1, 7}), Errc::InvalidArgument);
    EXPECT_EQ(code(ChainSpec::linear("x", {"alexa-front", "nope"}), {0, 0}),
              Errc::NotFound);
    EXPECT_EQ(code(ChainSpec::linear("x", {"nope"}), {}), Errc::NotFound);
    ChainSpec twoRoots = ChainSpec::linear("x", {"alexa-front",
                                                 "alexa-door"});
    twoRoots.nodes[1].parent = -1;
    EXPECT_EQ(code(twoRoots, {0, 0}), Errc::InvalidArgument);
    EXPECT_EQ(code(ChainSpec{"empty", {}}, {}), Errc::InvalidArgument);
    // Nothing was wired by the rejected chains; a good one still runs.
    EXPECT_EQ(runtime.dag().fabricCount(), 0u);
    EXPECT_EQ(code(alexa, {0, 1, 0, 1, 0}), Errc::Ok);
}

TEST(Chaos, SameScheduleSameOutcomeDigest)
{
    InjectionPlan::ScatterMix mix;
    mix.sandboxOom = true;
    mix.oomFunction = "image-resize";
    const auto plan = InjectionPlan::scatter(
        21, 3, SimTime::milliseconds(500), 6, mix);
    EXPECT_EQ(chaosDigest(5, plan), chaosDigest(5, plan));
}

} // namespace
