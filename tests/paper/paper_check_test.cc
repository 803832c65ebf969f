/**
 * @file
 * The paper's evaluation as a tier-1 test.
 *
 * Runs every entry of the figures library once and holds it to three
 * rules: every ✓ row lies inside the band the paper states; every ≈
 * row lies on its documented side and says why; and the generated
 * block of EXPERIMENTS.md is byte for byte what `paper --markdown`
 * prints, so the document cannot drift from the code.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/figures/figures.hh"

namespace {

using namespace molecule::figures;

const std::vector<Figure> &
allFigures()
{
    static const std::vector<Figure> figures = [] {
        std::vector<Figure> out;
        for (const auto &e : entries())
            out.push_back(e.run());
        return out;
    }();
    return figures;
}

TEST(PaperCheck, EveryCheckedRowHoldsItsBand)
{
    std::size_t rows = 0;
    for (const auto &fig : allFigures()) {
        for (const auto &c : fig.checks) {
            EXPECT_EQ(violation(c), "");
            ++rows;
        }
    }
    EXPECT_GT(rows, 50u);
}

TEST(PaperCheck, ExperimentsMdMatchesTheGeneratedBlock)
{
    std::ifstream in(MOLECULE_SOURCE_DIR "/EXPERIMENTS.md");
    ASSERT_TRUE(in) << "cannot read EXPERIMENTS.md";
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string doc = ss.str();
    const std::size_t begin = doc.find(kMarkdownBegin);
    ASSERT_NE(begin, std::string::npos) << "no generated block";
    const std::size_t end = doc.find(kMarkdownEnd, begin);
    ASSERT_NE(end, std::string::npos) << "generated block not closed";
    const std::string committed =
        doc.substr(begin, end - begin + std::string(kMarkdownEnd).size()) +
        "\n";
    const std::string fresh = markdown(allFigures());
    if (committed == fresh)
        return;
    std::istringstream was(committed), now(fresh);
    std::string a, b;
    int line = 0;
    do {
        ++line;
        if (!std::getline(was, a))
            a = "(end of block)";
        if (!std::getline(now, b))
            b = "(end of block)";
    } while (a == b && (was || now));
    ADD_FAILURE() << "EXPERIMENTS.md is stale at line " << line
                  << " of its generated block:\n  committed: " << a
                  << "\n  generated: " << b
                  << "\nreplace the block with `paper --markdown`.";
}

TEST(PaperCheck, EntryIdsAreUnique)
{
    const auto &all = entries();
    for (std::size_t i = 0; i < all.size(); ++i)
        for (std::size_t j = i + 1; j < all.size(); ++j)
            EXPECT_STRNE(all[i].id, all[j].id);
}

TEST(PaperCheck, RerunIsByteIdentical)
{
    // Fig 15 fans its seeds out over SweepRunner threads.
    for (const auto &e : entries()) {
        if (std::string(e.id) != "15")
            continue;
        EXPECT_EQ(render(e, e.run()), render(e, e.run()));
    }
}

TEST(PaperCheck, InBandRowOutsideItsBandFails)
{
    Figure fig;
    fig.inBand("synthetic", range(10, 13, "×"), 15.2, 1);
    fig.inBand("synthetic", about(25, " µs"), 20.0, 1);
    fig.inBand("synthetic", atLeast(20, " s"), 19.9, 2);
    fig.inBand("synthetic", atMost(250, " µs"), 251, 0);
    for (const auto &c : fig.checks)
        EXPECT_NE(violation(c), "") << c.band.text;

    Figure ok;
    ok.inBand("synthetic", range(10, 13, "×"), 10.0, 1);
    ok.inBand("synthetic", about(25, " µs"), 27.5, 1);
    EXPECT_EQ(violation(ok.checks[0]), "");
    EXPECT_EQ(violation(ok.checks[1]), "");
}

TEST(PaperCheck, NearRowMustKeepItsSideAndReason)
{
    Figure fig;
    fig.outOfBand("crossed", range(10, 13, "×"), 9.0, 1, Side::Above,
                  "documented above");
    fig.outOfBand("back inside", range(10, 13, "×"), 12.0, 1, Side::Above,
                  "documented above");
    fig.outOfBand("no reason", range(10, 13, "×"), 15.0, 1, Side::Above,
                  "");
    for (const auto &c : fig.checks)
        EXPECT_NE(violation(c), "") << c.label;

    Figure ok;
    ok.outOfBand("above", range(10, 13, "×"), 15.0, 1, Side::Above,
                 "documented above");
    EXPECT_EQ(violation(ok.checks[0]), "");
}

TEST(PaperCheck, BandsRenderAsThePaperStatesThem)
{
    EXPECT_EQ(range(10, 13, "×").text, "10–13×");
    EXPECT_EQ(range(8, 8, " of 8").text, "8 of 8");
    EXPECT_EQ(about(85.55, " ms").text, "85.55 ms ±10%");
    EXPECT_EQ(atLeast(20, " s").text, "≥ 20 s");
    EXPECT_EQ(atMost(250, " µs").text, "≤ 250 µs");
}

} // namespace
