/**
 * @file
 * Unit tests for the placement-policy seam: the three shipped
 * strategies over synthetic PlacementViews (non-owning views of
 * test-owned rows), the scheduler's reused view buffer, plus the
 * DPU-saturation spill regression on the real runtime (the
 * pickPu-never-spills bug the load-aware policy exists to fix).
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/molecule.hh"
#include "hw/computer.hh"

namespace {

using namespace molecule;
using core::FunctionDef;
using core::LoadAwarePolicy;
using core::LocalityAffinityPolicy;
using core::Molecule;
using core::MoleculeOptions;
using core::PlacementConfig;
using core::PlacementRequest;
using core::PlacementView;
using core::PriceOrderedPolicy;
using core::PuView;
using hw::PuType;

/** A host (pu 0, 96 cores) + two DPUs (pu 1/2, 8 cores), DPU profile
 * cheaper — the canonical CPU+DPU server shape. */
std::vector<PuView>
cpuDpuViews()
{
    PuView host;
    host.pu = 0;
    host.kind = PuType::HostCpu;
    host.price = 1.0;
    host.profileRank = 1;
    host.cores = 96;
    host.freeBytes = 1 << 30;
    host.needBytes = 1 << 20;
    PuView dpu1 = host;
    dpu1.pu = 1;
    dpu1.kind = PuType::Dpu;
    dpu1.price = 0.3;
    dpu1.profileRank = 0;
    dpu1.cores = 8;
    PuView dpu2 = dpu1;
    dpu2.pu = 2;
    return {host, dpu1, dpu2};
}

PlacementRequest
anyRequest()
{
    static FunctionDef def;
    PlacementRequest req;
    req.fn = &def;
    return req;
}

TEST(PlacementView, ViewsTheCallersRowsWithoutCopying)
{
    const auto views = cpuDpuViews();
    const PlacementView v(views);
    EXPECT_EQ(v.pus().data(), views.data());
    EXPECT_EQ(v.pus().size(), views.size());
    EXPECT_TRUE(PlacementView({}).empty());
}

TEST(PriceOrdered, CheapestKindLowestIdWins)
{
    const auto views = cpuDpuViews();
    PriceOrderedPolicy p;
    EXPECT_EQ(p.place(anyRequest(), PlacementView(views)), 1);
}

TEST(PriceOrdered, RegistrationOrderBreaksPriceTies)
{
    // Equal prices: the DPU profile (rank 0) beats the lower PU id.
    auto views = cpuDpuViews();
    views[0].price = views[1].price = views[2].price = 0.5;
    PriceOrderedPolicy p;
    EXPECT_EQ(p.place(anyRequest(), PlacementView(views)), 1);
}

TEST(PriceOrdered, IgnoresLoadByDesign)
{
    // The golden-digest-compatible default never looks at outstanding
    // work: a drowning DPU still wins over an idle host.
    auto views = cpuDpuViews();
    views[1].outstanding = 1000;
    views[2].outstanding = 1000;
    PriceOrderedPolicy p;
    EXPECT_EQ(p.place(anyRequest(), PlacementView(views)), 1);
}

TEST(PriceOrdered, SkipsIneligiblePus)
{
    auto views = cpuDpuViews();
    views[1].freeBytes = 0; // memory-full
    views[2].down = true;   // crashed
    PriceOrderedPolicy p;
    EXPECT_EQ(p.place(anyRequest(), PlacementView(views)), 0);

    views[0].excluded = true;
    EXPECT_EQ(p.place(anyRequest(), PlacementView(views)), -1);
}

TEST(LoadAware, BalancesWithinTheCheapKind)
{
    auto views = cpuDpuViews();
    views[1].outstanding = 5;
    views[2].outstanding = 2;
    LoadAwarePolicy p;
    EXPECT_EQ(p.place(anyRequest(), PlacementView(views)), 2);
}

TEST(LoadAware, SpillsToHostWhenDpusSaturate)
{
    auto views = cpuDpuViews();
    views[1].outstanding = 8; // 1.0 load/core at 8 cores
    views[2].outstanding = 8;
    LoadAwarePolicy p;
    EXPECT_EQ(p.place(anyRequest(), PlacementView(views)), 0);
}

TEST(LoadAware, EveryKindSaturatedPicksGloballyLeastLoaded)
{
    auto views = cpuDpuViews();
    views[0].outstanding = 96; // 1.0 load/core
    views[1].outstanding = 16; // 2.0
    views[2].outstanding = 12; // 1.5
    LoadAwarePolicy p;
    EXPECT_EQ(p.place(anyRequest(), PlacementView(views)), 0);
}

TEST(Locality, WarmSandboxesAttract)
{
    auto views = cpuDpuViews();
    views[0].warmSandboxes = 2; // host holds the function's state
    LocalityAffinityPolicy p;
    EXPECT_EQ(p.place(anyRequest(), PlacementView(views)), 0);
}

TEST(Locality, MostWarmEntriesWinPriceBreaksTies)
{
    auto views = cpuDpuViews();
    views[0].warmSandboxes = 1;
    views[2].warmSandboxes = 3;
    LocalityAffinityPolicy p;
    EXPECT_EQ(p.place(anyRequest(), PlacementView(views)), 2);

    views[0].warmSandboxes = 3; // tie on count: cheaper kind wins
    EXPECT_EQ(p.place(anyRequest(), PlacementView(views)), 2);
}

TEST(Locality, AffinityAbandonedPastLoadBarrier)
{
    auto views = cpuDpuViews();
    views[1].warmSandboxes = 4;
    views[1].outstanding = 16; // 2.0 load/core = the barrier
    LocalityAffinityPolicy p;
    // Falls back to load-aware: dpu2 is idle and cheapest.
    EXPECT_EQ(p.place(anyRequest(), PlacementView(views)), 2);
}

TEST(Locality, ColdStartFallsBackToLoadAware)
{
    const auto views = cpuDpuViews();
    LocalityAffinityPolicy p;
    EXPECT_EQ(p.place(anyRequest(), PlacementView(views)), 1);
}

TEST(PlacementConfig, MakeBuildsTheSelectedPolicy)
{
    EXPECT_STREQ(PlacementConfig::priceOrdered().make()->name(),
                 "price-ordered");
    EXPECT_STREQ(PlacementConfig::loadAware().make()->name(),
                 "load-aware");
    EXPECT_STREQ(PlacementConfig::locality().make()->name(),
                 "locality");
    EXPECT_STREQ(core::toString(PlacementConfig::Kind::LoadAware),
                 "load-aware");
}

// ---------------------------------------------------------------------
// Regression: the pre-policy-layer scheduler never spilled off a
// saturated DPU (it only checked memory). Load-aware must move work
// to the host once DPU in-flight counts hit cores x threshold.
// ---------------------------------------------------------------------

struct SpillFixture : ::testing::Test
{
    sim::Simulation sim;
    std::unique_ptr<hw::Computer> computer =
        hw::buildCpuDpuServer(sim, 2, hw::DpuGeneration::Bf1);

    std::unique_ptr<Molecule>
    makeRuntime(const PlacementConfig &placement)
    {
        MoleculeOptions options;
        options.placement = placement;
        auto rt = std::make_unique<Molecule>(*computer, options);
        rt->registerCpuFunction("helloworld",
                                {PuType::HostCpu, PuType::Dpu});
        rt->start();
        return rt;
    }

    void
    saturateDpus(Molecule &rt)
    {
        for (int pu = 1; pu <= 2; ++pu)
            for (int i = 0; i < computer->pu(pu).desc().cores; ++i)
                rt.scheduler().noteDispatch(pu);
    }
};

TEST_F(SpillFixture, LoadAwareSpillsSaturatedDpusToHost)
{
    auto rt = makeRuntime(PlacementConfig::loadAware());
    const auto &fn = rt->registry().find("helloworld");
    EXPECT_NE(rt->scheduler().place(fn), 0) << "idle DPUs must win";

    saturateDpus(*rt);
    EXPECT_EQ(rt->scheduler().place(fn), 0)
        << "saturated DPUs must spill to the host";

    // Draining one DPU slot pulls placement back to the cheap kind.
    rt->scheduler().noteComplete(1);
    EXPECT_EQ(rt->scheduler().place(fn), 1);
}

TEST_F(SpillFixture, PriceOrderedDocumentsTheOldCeiling)
{
    // The compatibility default keeps the historical behavior: no
    // spill, however deep the DPU backlog (goldens depend on it).
    auto rt = makeRuntime(PlacementConfig::priceOrdered());
    saturateDpus(*rt);
    const auto &fn = rt->registry().find("helloworld");
    EXPECT_EQ(rt->scheduler().place(fn), 1);
}

TEST_F(SpillFixture, ConcurrentBurstLandsOnHostAndDpu)
{
    // End to end: 80 simultaneous invocations against 2x16 DPU cores
    // — the in-flight accounting fed by the invoke pipeline itself
    // must push the overflow onto the host.
    auto rt = makeRuntime(PlacementConfig::loadAware());
    int hostRuns = 0, dpuRuns = 0;
    auto one = [](Molecule *m, int *host, int *dpu) -> sim::Task<> {
        auto rec = co_await m->invoke("helloworld");
        EXPECT_TRUE(rec.ok());
        if (rec.ok())
            (rec.value().pu == 0 ? *host : *dpu) += 1;
    };
    for (int i = 0; i < 80; ++i)
        sim.spawn(one(rt.get(), &hostRuns, &dpuRuns));
    sim.run();
    EXPECT_EQ(hostRuns + dpuRuns, 80);
    EXPECT_GT(hostRuns, 0) << "overflow must spill to the host";
    EXPECT_GT(dpuRuns, 0) << "the cheap kind must still be used";
}

// ---------------------------------------------------------------------
// The scheduler refills one row buffer per decision: back-to-back
// decisions for functions with different profile sets must each see
// only their own rows, never leftovers of a longer previous view.
// ---------------------------------------------------------------------

/** Copies every view it is shown, then defers to the price heuristic. */
class RecordingPolicy final : public core::PlacementPolicy
{
  public:
    explicit RecordingPolicy(std::vector<std::vector<PuView>> *seen)
        : seen_(seen)
    {}

    const char *name() const override { return "recording"; }

    int
    place(const PlacementRequest &req, const PlacementView &view) override
    {
        seen_->emplace_back(view.pus().begin(), view.pus().end());
        return inner_.place(req, view);
    }

  private:
    std::vector<std::vector<PuView>> *seen_;
    PriceOrderedPolicy inner_;
};

TEST_F(SpillFixture, BackToBackViewsHoldOnlyTheirOwnRows)
{
    auto rt = makeRuntime(PlacementConfig::priceOrdered());
    rt->registerCpuFunction("image-resize", {PuType::HostCpu});
    std::vector<std::vector<PuView>> seen;
    rt->scheduler().installPlacement(
        std::make_unique<RecordingPolicy>(&seen));
    const auto &cpuOnly = rt->registry().find("image-resize");
    const auto &both = rt->registry().find("helloworld");

    EXPECT_EQ(rt->scheduler().place(cpuOnly), 0);
    EXPECT_EQ(rt->scheduler().place(both), 1);
    EXPECT_EQ(rt->scheduler().place(cpuOnly), 0);

    ASSERT_EQ(seen.size(), 3u);
    for (const std::size_t i : {0u, 2u}) {
        ASSERT_EQ(seen[i].size(), 1u) << "decision " << i;
        EXPECT_EQ(seen[i][0].pu, 0);
        EXPECT_EQ(seen[i][0].kind, PuType::HostCpu);
    }
    ASSERT_EQ(seen[1].size(), 3u);
    for (int pu = 0; pu < 3; ++pu)
        EXPECT_EQ(seen[1][std::size_t(pu)].pu, pu);
    EXPECT_EQ(seen[1][0].kind, PuType::HostCpu);
    EXPECT_EQ(seen[1][1].kind, PuType::Dpu);
    EXPECT_EQ(seen[1][2].kind, PuType::Dpu);
}

} // namespace
