/**
 * @file
 * Seeded mutation fuzzing of the two text-form parsers,
 * load::TraceSpec::parse and fault::InjectionPlan::parse.
 *
 * Every iteration takes the serialize() output of a valid corpus
 * entry, damages it (byte flips, truncation, a splice with another
 * entry, a value swapped for a hostile token) and parses the result. The
 * oracle: parse() never throws and never aborts; it either returns
 * Errc::InvalidArgument, or a value v whose text form is a fixed
 * point, serialize(parse(serialize(v))) == serialize(v). A fixed
 * sim::Rng seed and iteration count make every run identical.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "fault/plan.hh"
#include "load/spec.hh"
#include "sim/random.hh"

namespace {

using namespace molecule;
using sim::SimTime;

constexpr int kIterations = 4000;

/** Tokens that used to throw or slip through the old parsers. */
const char *const kHostile[] = {
    "abc", "1e999", "-1e999", "nan", "inf", "-5", "+5", "5x", "99999999999",
    "18446744073709551616", "0x10", "1.5", "", "=", " ", "\n", "\t",
};

std::string
printable(const std::string &s)
{
    std::string out;
    for (unsigned char c : s) {
        if (c >= 0x20 && c < 0x7f) {
            out += char(c);
        } else {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\x%02x", c);
            out += buf;
        }
    }
    return out;
}

std::string
mutate(sim::Rng &rng, const std::vector<std::string> &corpus)
{
    const auto pick = [&](std::size_t n) {
        return std::size_t(rng.uniformInt(0, std::int64_t(n) - 1));
    };
    std::string s = corpus[pick(corpus.size())];
    const int edits = int(rng.uniformInt(1, 3));
    for (int e = 0; e < edits && !s.empty(); ++e) {
        switch (rng.uniformInt(0, 3)) {
        case 0: // byte flip
            s[pick(s.size())] = char(rng.uniformInt(0, 255));
            break;
        case 1: // truncation
            s.resize(pick(s.size() + 1));
            break;
        case 2: { // splice with another entry
            const std::string &other = corpus[pick(corpus.size())];
            s = s.substr(0, pick(s.size() + 1)) +
                other.substr(pick(other.size() + 1));
            break;
        }
        default: { // replace the value after an '=' with a hostile token
            const std::size_t eq = s.find('=', pick(s.size()));
            if (eq == std::string::npos)
                break;
            const std::size_t end = s.find_first_of(" \n", eq + 1);
            s = s.substr(0, eq + 1) + kHostile[pick(std::size(kHostile))] +
                (end == std::string::npos ? "" : s.substr(end));
            break;
        }
        }
    }
    return s;
}

/**
 * Apply the oracle to one input; false (with a failure) on breach.
 * Counts the inputs parse() accepted in @p accepted.
 */
template <typename T>
bool
holdsOracle(const std::string &input, int &accepted)
{
    try {
        const auto parsed = T::parse(input);
        if (!parsed.ok()) {
            EXPECT_EQ(parsed.error().code(), core::Errc::InvalidArgument)
                << printable(input);
            return parsed.error().code() == core::Errc::InvalidArgument;
        }
        const std::string text = parsed.value().serialize();
        const auto again = T::parse(text);
        if (!again.ok() || again.value().serialize() != text) {
            ADD_FAILURE() << "text form is not a fixed point: "
                          << printable(input) << " -> " << printable(text);
            return false;
        }
        ++accepted;
        return true;
    } catch (const std::exception &e) {
        ADD_FAILURE() << "parse threw '" << e.what()
                      << "' on: " << printable(input);
        return false;
    }
}

template <typename T>
void
fuzz(std::uint64_t seed, const std::vector<std::string> &corpus)
{
    for (const std::string &entry : corpus)
        ASSERT_TRUE(T::parse(entry).ok()) << printable(entry);
    sim::Rng rng(seed);
    int accepted = 0;
    for (int i = 0; i < kIterations; ++i) {
        ASSERT_TRUE(holdsOracle<T>(mutate(rng, corpus), accepted))
            << "iteration " << i;
    }
    // Both sides of the oracle must be exercised.
    EXPECT_GT(accepted, 0);
    EXPECT_LT(accepted, kIterations);
}

TEST(ParseFuzz, TraceSpecIsTypedOrAFixedPoint)
{
    load::TraceSpec plain;
    load::TraceSpec full;
    full.seed = 977;
    full.ratePerSecond = 831.25;
    full.arrival = load::ArrivalKind::Mmpp;
    full.burstFactor = 5.5;
    full.meanDwellBurst = SimTime::milliseconds(320);
    full.functions = {"helloworld", "pyaes", "gzip-compression"};
    full.tenants = {{"alpha", 3.0, 1.1, 17}, {"beta", 1.0, 0.8, 99}};
    load::TraceSpec diurnal = full;
    diurnal.arrival = load::ArrivalKind::Diurnal;
    diurnal.diurnalAmplitude = 0.1 + 0.2;
    diurnal.tenants = {{"", 1.0, 0.0, 0}};
    fuzz<load::TraceSpec>(
        1, {plain.serialize(), full.serialize(), diurnal.serialize()});
}

TEST(ParseFuzz, InjectionPlanIsTypedOrAFixedPoint)
{
    fault::InjectionPlan built(1234);
    built.crashPu(1, SimTime::milliseconds(10), SimTime::milliseconds(5))
        .degradeLink(0, 2, SimTime::microseconds(2500), SimTime(777),
                     SimTime::milliseconds(8), 3.1400001)
        .failFpgaReconfig(2, SimTime::milliseconds(4), 2)
        .oomKill(1, "pyaes", SimTime::milliseconds(6));
    fault::InjectionPlan::ScatterMix mix;
    mix.fpgaReconfig = true;
    mix.sandboxOom = true;
    mix.oomFunction = "image-resize";
    const auto scattered =
        fault::InjectionPlan::scatter(77, 3, SimTime::seconds(2), 6, mix);
    fuzz<fault::InjectionPlan>(2, {fault::InjectionPlan(5).serialize(),
                                   built.serialize(),
                                   scattered.serialize()});
}

} // namespace
