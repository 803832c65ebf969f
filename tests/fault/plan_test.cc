/** @file Unit tests for InjectionPlan: builders, scatter, round-trip. */

#include <gtest/gtest.h>

#include "fault/plan.hh"

namespace {

using namespace molecule;
using fault::FaultKind;
using fault::FaultSpec;
using fault::InjectionPlan;
using sim::SimTime;

TEST(Plan, BuildersFillSpecs)
{
    InjectionPlan plan(9);
    plan.crashPu(2, SimTime::milliseconds(10), SimTime::milliseconds(5))
        .degradeLink(0, 1, SimTime::milliseconds(3),
                     SimTime::milliseconds(1), SimTime::milliseconds(8),
                     4.0)
        .failFpgaReconfig(1, SimTime::milliseconds(2), 3)
        .oomKill(1, "image-resize", SimTime::milliseconds(7));

    ASSERT_EQ(plan.size(), 4u);
    EXPECT_EQ(plan.seed(), 9u);

    const auto &s = plan.specs();
    EXPECT_EQ(s[0].kind, FaultKind::PuCrash);
    EXPECT_EQ(s[0].pu, 2);
    EXPECT_EQ(s[0].duration, SimTime::milliseconds(5));

    EXPECT_EQ(s[1].kind, FaultKind::LinkDegrade);
    EXPECT_EQ(s[1].pu, 0);
    EXPECT_EQ(s[1].peer, 1);
    EXPECT_EQ(s[1].blackout, SimTime::milliseconds(1));
    EXPECT_EQ(s[1].duration, SimTime::milliseconds(8));
    EXPECT_DOUBLE_EQ(s[1].factor, 4.0);

    EXPECT_EQ(s[2].kind, FaultKind::FpgaReconfigFail);
    EXPECT_EQ(s[2].count, 3);

    EXPECT_EQ(s[3].kind, FaultKind::SandboxOom);
    EXPECT_EQ(s[3].target, "image-resize");
}

TEST(Plan, ScatterIsPureFunctionOfItsArguments)
{
    InjectionPlan::ScatterMix mix;
    mix.fpgaReconfig = true;
    mix.sandboxOom = true;
    mix.oomFunction = "helloworld";

    const auto a = InjectionPlan::scatter(11, 4, SimTime::seconds(1),
                                          16, mix);
    const auto b = InjectionPlan::scatter(11, 4, SimTime::seconds(1),
                                          16, mix);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.size(), 16u);

    const auto c = InjectionPlan::scatter(12, 4, SimTime::seconds(1),
                                          16, mix);
    EXPECT_NE(a, c);
}

TEST(Plan, ScatterNeverCrashesTheManagerPu)
{
    InjectionPlan::ScatterMix mix;
    mix.linkDegrade = false;
    const auto plan =
        InjectionPlan::scatter(3, 4, SimTime::seconds(1), 64, mix);
    for (const auto &spec : plan.specs()) {
        ASSERT_EQ(spec.kind, FaultKind::PuCrash);
        EXPECT_NE(spec.pu, 0);
        EXPECT_LT(spec.at, SimTime::seconds(1));
        EXPECT_GE(spec.at, SimTime(0));
    }
}

TEST(Plan, ScatterWithNothingEnabledIsEmpty)
{
    InjectionPlan::ScatterMix mix;
    mix.puCrash = false;
    mix.linkDegrade = false;
    const auto plan =
        InjectionPlan::scatter(3, 4, SimTime::seconds(1), 8, mix);
    EXPECT_TRUE(plan.empty());
}

TEST(Plan, SerializeParseRoundTrip)
{
    InjectionPlan plan(1234);
    plan.crashPu(1, SimTime::milliseconds(10), SimTime::milliseconds(5))
        .degradeLink(0, 2, SimTime::microseconds(2500), SimTime(777),
                     SimTime::milliseconds(8), 3.1400001)
        .failFpgaReconfig(2, SimTime::milliseconds(4), 2)
        .oomKill(1, "pyaes", SimTime::milliseconds(6));

    const auto parsed = InjectionPlan::parse(plan.serialize());
    ASSERT_TRUE(parsed.ok()) << parsed.error().toString();
    EXPECT_EQ(parsed.value(), plan);
}

TEST(Plan, ScatteredPlanRoundTripsExactly)
{
    InjectionPlan::ScatterMix mix;
    mix.fpgaReconfig = true;
    const auto plan =
        InjectionPlan::scatter(77, 3, SimTime::seconds(2), 32, mix);
    // Factors are printed with %.17g, so even irrational-looking
    // doubles survive the text round trip bit-exactly.
    const auto parsed = InjectionPlan::parse(plan.serialize());
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), plan);
}

TEST(Plan, ParseRejectsGarbageWithTypedErrors)
{
    for (const char *bad :
         {"", "not a plan", "injection-plan v1 seed=1\nbogus line",
          "injection-plan v1 seed=1\nfault kind=warp-core-breach",
          "injection-plan v1 seed=1\nfault kind=pu-crash nonsense"}) {
        auto parsed = InjectionPlan::parse(bad);
        ASSERT_FALSE(parsed.ok()) << "accepted: " << bad;
        EXPECT_EQ(parsed.error().code(), core::Errc::InvalidArgument);
    }
}

TEST(Plan, MalformedNumbersAreTypedErrors)
{
    // Each used to throw out of parse() or be silently accepted.
    for (const char *bad :
         {"injection-plan v1 seed=1\nfault kind=pu-crash pu=abc",
          "injection-plan v1 seed=1\nfault kind=pu-crash pu=99999999999",
          "injection-plan v1 seed=1\nfault kind=link-degrade factor=nan",
          "injection-plan v1 seed=1\nfault kind=pu-crash at=5x",
          "injection-plan v1 seed=-5", "injection-plan v1 seed=5 extra"}) {
        auto parsed = InjectionPlan::parse(bad);
        ASSERT_FALSE(parsed.ok()) << "accepted: " << bad;
        EXPECT_EQ(parsed.error().code(), core::Errc::InvalidArgument);
    }
}

TEST(Plan, EmptyPlanRoundTripsAndStaysEmpty)
{
    InjectionPlan plan(5);
    EXPECT_TRUE(plan.empty());
    const auto parsed = InjectionPlan::parse(plan.serialize());
    ASSERT_TRUE(parsed.ok());
    EXPECT_TRUE(parsed.value().empty());
    EXPECT_EQ(parsed.value().seed(), 5u);
}

} // namespace
