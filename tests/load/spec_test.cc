/**
 * @file
 * TraceSpec: serialization round-trips, parse errors, sizing hints.
 */

#include "load/spec.hh"

#include <gtest/gtest.h>

namespace {

using namespace molecule;
using load::ArrivalKind;
using load::TenantSpec;
using load::TraceSpec;
using sim::SimTime;

TraceSpec
fullSpec()
{
    TraceSpec spec;
    spec.seed = 977;
    spec.duration = SimTime::fromSeconds(12.5);
    spec.ratePerSecond = 831.25;
    spec.arrival = ArrivalKind::Mmpp;
    spec.burstFactor = 5.5;
    spec.meanDwellBase = SimTime::fromSeconds(2.25);
    spec.meanDwellBurst = SimTime::milliseconds(320);
    spec.diurnalAmplitude = 0.375;
    spec.diurnalPeriod = SimTime::fromSeconds(30);
    spec.functions = {"helloworld", "pyaes", "dd"};
    spec.tenants = {
        {"alpha", 3.0, 1.1, 17},
        {"beta", 1.0, 0.8, 99},
    };
    return spec;
}

TEST(TraceSpecTest, RoundTripsExactly)
{
    const TraceSpec spec = fullSpec();
    const auto parsed = TraceSpec::parse(spec.serialize());
    ASSERT_TRUE(parsed.ok()) << parsed.error().detail();
    EXPECT_TRUE(parsed.value() == spec);
}

TEST(TraceSpecTest, DefaultSpecRoundTrips)
{
    const TraceSpec spec;
    const auto parsed = TraceSpec::parse(spec.serialize());
    ASSERT_TRUE(parsed.ok());
    EXPECT_TRUE(parsed.value() == spec);
}

TEST(TraceSpecTest, RoundTripPreservesAwkwardDoubles)
{
    TraceSpec spec;
    spec.ratePerSecond = 1.0 / 3.0;
    spec.burstFactor = 0.1 + 0.2; // not exactly 0.3
    spec.diurnalAmplitude = 1e-17;
    const auto parsed = TraceSpec::parse(spec.serialize());
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value().ratePerSecond, spec.ratePerSecond);
    EXPECT_EQ(parsed.value().burstFactor, spec.burstFactor);
    EXPECT_EQ(parsed.value().diurnalAmplitude, spec.diurnalAmplitude);
}

TEST(TraceSpecTest, ParseRejectsGarbage)
{
    EXPECT_FALSE(TraceSpec::parse("").ok());
    EXPECT_FALSE(TraceSpec::parse("not a spec").ok());
    EXPECT_FALSE(TraceSpec::parse("trace-spec v2 seed=1").ok());
}

TEST(TraceSpecTest, ParseRejectsUnknownLinesAndKeys)
{
    const std::string good = TraceSpec{}.serialize();
    EXPECT_FALSE(TraceSpec::parse(good + "wat name=x\n").ok());
    EXPECT_FALSE(TraceSpec::parse(good + "fn color=red\n").ok());
}

TEST(TraceSpecTest, MalformedNumbersAreTypedErrors)
{
    // Each used to throw out of parse() or be silently accepted.
    for (const char *field : {"rate=abc", "rate=1e999", "rate=nan",
                              "rate=5x", "seed=-5", "dur=1.5"}) {
        const auto parsed =
            TraceSpec::parse(std::string("trace-spec v1 ") + field);
        ASSERT_FALSE(parsed.ok()) << "accepted: " << field;
        EXPECT_EQ(parsed.error().code(), core::Errc::InvalidArgument);
        EXPECT_NE(parsed.error().detail().find(field), std::string::npos)
            << parsed.error().detail();
    }
}

TEST(TraceSpecTest, ParseErrorCarriesInvalidArgument)
{
    const auto parsed = TraceSpec::parse("bogus");
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.error().code(), core::Errc::InvalidArgument);
}

TEST(TraceSpecTest, ExpectedArrivalsTracksRateAndDuration)
{
    TraceSpec spec;
    spec.ratePerSecond = 100.0;
    spec.duration = SimTime::fromSeconds(10);
    spec.arrival = ArrivalKind::Poisson;
    EXPECT_NEAR(spec.expectedArrivals(), 1000.0, 1e-9);
}

TEST(TraceSpecTest, ExpectedArrivalsCountsMmppUplift)
{
    TraceSpec spec;
    spec.ratePerSecond = 100.0;
    spec.duration = SimTime::fromSeconds(10);
    spec.arrival = ArrivalKind::Mmpp;
    spec.burstFactor = 8.0;
    // Burst dwell occupies 1/6 of the time at 8x the base rate.
    spec.meanDwellBase = SimTime::fromSeconds(5);
    spec.meanDwellBurst = SimTime::fromSeconds(1);
    const double expected =
        1000.0 * (5.0 / 6.0 + (1.0 / 6.0) * 8.0);
    EXPECT_NEAR(spec.expectedArrivals(), expected, 1e-6);
}

TEST(TraceSpecTest, ArrivalKindNamesRoundTripThroughSerialize)
{
    for (ArrivalKind kind : {ArrivalKind::Poisson, ArrivalKind::Mmpp,
                             ArrivalKind::Diurnal}) {
        TraceSpec spec;
        spec.arrival = kind;
        const auto parsed = TraceSpec::parse(spec.serialize());
        ASSERT_TRUE(parsed.ok()) << load::toString(kind);
        EXPECT_EQ(parsed.value().arrival, kind);
    }
}

} // namespace
