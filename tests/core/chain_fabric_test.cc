/**
 * @file
 * The chain fabric's ledger and lifetime (core/dag.hh).
 *
 *  - Warm ledger: once a chain has wired its instances, a further chain
 *    on them sends no shim synchronization message and makes no
 *    xfifo_init, grant or connect call: each shim's XPUcall count grows
 *    by exactly the per-edge writes and reads, and the shims' object
 *    and homed-FIFO counts stand still.
 *  - Release: the fabric goes with its instance. Under keep-alive
 *    eviction every shim homes exactly one FIFO per live chain
 *    instance, round after round, and the evicting invocation is not
 *    lengthened; an OOM purge and a PU crash leave no fabric entry for
 *    a dead instance.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/molecule.hh"
#include "fault/state.hh"
#include "hw/computer.hh"
#include "workloads/catalog.hh"

namespace {

using namespace molecule;
using core::ChainSpec;
using core::Molecule;
using core::MoleculeOptions;
using hw::PuType;
using workloads::Catalog;

/** A CPU + two BF-1 DPUs runtime with the Alexa functions. */
struct Runtime
{
    sim::Simulation sim;
    std::unique_ptr<hw::Computer> computer =
        hw::buildCpuDpuServer(sim, 2, hw::DpuGeneration::Bf1);
    fault::FaultState faults;
    std::unique_ptr<Molecule> rt;

    explicit Runtime(MoleculeOptions options = {})
    {
        options.faults = &faults;
        rt = std::make_unique<Molecule>(*computer, options);
        for (const auto &fn : Catalog::alexaChain())
            rt->registerCpuFunction(fn, {PuType::HostCpu, PuType::Dpu});
        rt->registerCpuFunction("helloworld",
                                {PuType::HostCpu, PuType::Dpu});
        rt->start();
    }

    void
    chain(const std::vector<int> &placement)
    {
        const auto r =
            rt->runSync(rt->invokeChain(ChainSpec::alexa(), placement));
        ASSERT_TRUE(r.ok()) << r.error().toString();
    }

    int puCount() const { return computer->puCount(); }

    xpu::XpuShim &shim(int pu) { return rt->deployment().shimOn(pu); }

    /** Chain instances parked on @p pu (all of them, between chains). */
    std::size_t
    liveOn(int pu)
    {
        std::size_t n = 0;
        for (const auto &fn : Catalog::alexaChain())
            n += rt->startup().warmCount(fn, pu);
        return n;
    }

    std::size_t
    liveTotal()
    {
        std::size_t n = 0;
        for (int pu = 0; pu < puCount(); ++pu)
            n += liveOn(pu);
        return n;
    }
};

/** Per-shim counters the warm ledger gates. */
struct Ledger
{
    std::vector<std::int64_t> xpucalls, syncs;
    std::vector<std::size_t> objects, homed;

    explicit Ledger(Runtime &r)
    {
        for (int pu = 0; pu < r.puCount(); ++pu) {
            xpucalls.push_back(r.shim(pu).xpucallCount());
            syncs.push_back(r.shim(pu).syncMessagesSent());
            objects.push_back(r.shim(pu).caps().objectCount());
            homed.push_back(r.shim(pu).homedFifoCount());
        }
    }
};

/**
 * XPUcalls one warm Alexa chain costs each shim: a cross-PU edge is one
 * xfifo_write on the writer's shim, plus the delivery and the
 * xfifo_read on the reader's (home) shim. Same-PU edges use LocalFifos.
 */
std::vector<std::int64_t>
edgeCalls(const std::vector<int> &placement, int managerPu, int pus)
{
    std::vector<std::int64_t> calls(std::size_t(pus), 0);
    const ChainSpec spec = ChainSpec::alexa();
    for (std::size_t i = 0; i < spec.nodes.size(); ++i) {
        const int parent = spec.nodes[i].parent;
        const int from = parent < 0 ? managerPu
                                    : placement[std::size_t(parent)];
        const int to = placement[i];
        if (from == to)
            continue;
        calls[std::size_t(from)] += 1;
        calls[std::size_t(to)] += 2;
    }
    return calls;
}

TEST(ChainFabric, WarmChainPaysOnlyItsEdges)
{
    for (const std::vector<int> &placement :
         {std::vector<int>{0, 1, 0, 1, 0}, std::vector<int>{1, 2, 0, 1, 2},
          std::vector<int>{0, 0, 0, 0, 0}}) {
        Runtime r;
        r.chain(placement); // wires the fabric
        const auto perChain = edgeCalls(placement, 0, r.puCount());
        Ledger at10(r);
        for (int i = 1; i < 100; ++i) {
            const Ledger before(r);
            r.chain(placement);
            const Ledger after(r);
            for (int pu = 0; pu < r.puCount(); ++pu) {
                const auto p = std::size_t(pu);
                ASSERT_EQ(after.syncs[p], before.syncs[p])
                    << "chain " << i << " synced from PU " << pu;
                ASSERT_EQ(after.xpucalls[p] - before.xpucalls[p],
                          perChain[p])
                    << "chain " << i << " on PU " << pu;
            }
            if (i == 9)
                at10 = after;
        }
        const Ledger at100(r);
        for (int pu = 0; pu < r.puCount(); ++pu) {
            const auto p = std::size_t(pu);
            EXPECT_EQ(at100.objects[p], at10.objects[p]) << "PU " << pu;
            EXPECT_EQ(at100.homed[p], at10.homed[p]) << "PU " << pu;
        }
        // Five instances and the gateway; the cold starts were the
        // first chain's.
        EXPECT_EQ(r.rt->dag().fabricCount(), 6u);
        EXPECT_EQ(r.rt->startup().coldStarts(), 5);
    }
}

TEST(ChainFabric, HttpBaselineWiresNothing)
{
    Runtime r(MoleculeOptions::homo());
    const Ledger before(r);
    for (int i = 0; i < 3; ++i)
        r.chain({0, 0, 0, 0, 0});
    const Ledger after(r);
    EXPECT_EQ(after.xpucalls, before.xpucalls);
    EXPECT_EQ(after.homed, before.homed);
    EXPECT_EQ(r.rt->dag().fabricCount(), 0u);
}

/** Two placements that evict each other's instances every round. */
MoleculeOptions
churning()
{
    MoleculeOptions o;
    o.startup.globalWarmCapacityPerPu = 3;
    return o;
}

/** Every shim homes one FIFO per live chain instance; no stale entry. */
void
expectFabricMatchesLiveInstances(Runtime &r, const char *when)
{
    for (int pu = 0; pu < r.puCount(); ++pu)
        EXPECT_EQ(r.shim(pu).homedFifoCount(), r.liveOn(pu))
            << when << ", PU " << pu;
    // One fabric per live instance, plus the manager's gateway.
    EXPECT_EQ(r.rt->dag().fabricCount(), r.liveTotal() + 1) << when;
}

TEST(ChainFabric, EvictionReleasesTheFabric)
{
    Runtime r(churning());
    const std::vector<int> a{0, 1, 0, 1, 0}, b{1, 2, 1, 0, 2};
    for (int round = 1; round <= 40; ++round) {
        r.chain(round % 2 ? a : b);
        expectFabricMatchesLiveInstances(r, "after a round");
        // Objects are reclaimed too: each replica holds the live FIFOs
        // plus the removals still batched in the other shims' lazy
        // queues (fewer than a batch each), whatever the round.
        for (int pu = 0; pu < r.puCount(); ++pu) {
            std::size_t pending = 0;
            for (int other = 0; other < r.puCount(); ++other)
                if (other != pu)
                    pending += r.shim(other).lazyQueueDepth();
            EXPECT_EQ(r.shim(pu).caps().objectCount(),
                      r.liveTotal() + pending)
                << "round " << round << ", PU " << pu;
            // CAP_Groups go with them: at most one per live fabric
            // (instances and the gateway) plus one per pending
            // removal, however many instances have died.
            EXPECT_LE(r.shim(pu).caps().groupCount(),
                      r.rt->dag().fabricCount() + pending)
                << "round " << round << ", PU " << pu;
        }
    }
    EXPECT_GT(r.rt->startup().evictions(), 40);
}

/** One helloworld invocation on PU 0, noting when its task returns. */
sim::Task<core::Expected<obs::InvocationRecord>>
timedInvoke(Molecule *rt, sim::SimTime *returned)
{
    const std::string fn = "helloworld";
    core::InvokeOptions opts;
    opts.pu = 0;
    auto r = co_await rt->invoke(fn, opts);
    *returned = rt->simulation().now();
    co_return r;
}

/**
 * Sim time an invocation spends after its measured window (keep-alive
 * release, eviction included) when parking it evicts a chain instance.
 */
sim::SimTime
evictingReleaseTime(core::DagCommMode mode, std::size_t *fabricAfter)
{
    MoleculeOptions o;
    o.dagMode = mode;
    o.startup.globalWarmCapacityPerPu = 5;
    Runtime r(o);
    r.chain({0, 0, 0, 0, 0});
    const sim::SimTime start = r.sim.now();
    sim::SimTime returned = start;
    const auto rec = r.rt->runSync(timedInvoke(r.rt.get(), &returned));
    EXPECT_TRUE(rec.ok());
    EXPECT_EQ(r.rt->startup().evictions(), 1);
    *fabricAfter = r.rt->dag().fabricCount();
    return returned - start - rec.value().endToEnd;
}

TEST(ChainFabric, ReleaseNeverLengthensTheEvictingInvocation)
{
    // The helloworld instance's release evicts the chain's oldest
    // instance. With nIPC its fabric goes too, in a task of its own:
    // the invocation's own release takes exactly as long as evicting
    // an instance that has no fabric (HTTP chain).
    std::size_t ipcFabric = 0, httpFabric = 0;
    const sim::SimTime ipc =
        evictingReleaseTime(core::DagCommMode::MoleculeIpc, &ipcFabric);
    const sim::SimTime http =
        evictingReleaseTime(core::DagCommMode::BaselineHttp, &httpFabric);
    EXPECT_EQ(ipc, http);
    EXPECT_EQ(ipcFabric, 5u); // four instances and the gateway
    EXPECT_EQ(httpFabric, 0u);
}

TEST(ChainFabric, OomPurgeReleasesTheFabric)
{
    Runtime r;
    r.chain({0, 1, 0, 1, 0});
    ASSERT_EQ(r.liveOn(1), 2u);
    r.faults.oomKill(1, "alexa-interact");
    r.sim.run(); // the release task's closes
    EXPECT_EQ(r.liveOn(1), 1u);
    expectFabricMatchesLiveInstances(r, "after the OOM purge");
    // The next chain cold-starts and wires one instance.
    r.chain({0, 1, 0, 1, 0});
    expectFabricMatchesLiveInstances(r, "after the next chain");
}

TEST(ChainFabric, CrashForgetsTheFabricAndTheNextChainRewires)
{
    Runtime r;
    const std::vector<int> cross{0, 1, 0, 1, 0};
    r.chain(cross);
    const std::int64_t callsOnPu1 = r.shim(1).xpucallCount();
    r.faults.crashPu(1);
    // Nothing is charged against the dead shim.
    r.sim.run();
    EXPECT_EQ(r.shim(1).xpucallCount(), callsOnPu1);
    EXPECT_EQ(r.rt->dag().fabricCount(), r.liveOn(0) + 1);
    r.faults.restartPu(1);
    r.sim.run(); // resync + re-warm
    EXPECT_EQ(r.rt->dag().fabricCount(), r.liveOn(0) + 1);
    r.chain(cross);
    EXPECT_EQ(r.rt->dag().fabricCount(), r.liveTotal() + 1);
    EXPECT_EQ(r.shim(1).homedFifoCount(), r.liveOn(1));
}

} // namespace
