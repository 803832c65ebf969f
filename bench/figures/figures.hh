/**
 * @file
 * The paper's evaluation as one library: every table and figure of
 * §6, plus the two design ablations, is one function that runs the
 * full stack in simulation and returns its tables and checked rows.
 *
 * A checked row holds one measured value against the band the paper
 * states: ✓ when it lies inside, ≈ when it lies on the side the row
 * documents, for the reason the row gives. `paper` prints the entries;
 * paper_check_test holds every row to its band and EXPERIMENTS.md to
 * `paper --markdown`.
 */

#ifndef MOLECULE_BENCH_FIGURES_FIGURES_HH
#define MOLECULE_BENCH_FIGURES_FIGURES_HH

#include <memory>
#include <string>
#include <vector>

#include "core/molecule.hh"
#include "hw/computer.hh"
#include "sim/table.hh"

namespace molecule::figures {

enum class Side { Inside, Above, Below };

/** A band the paper states, inclusive at both ends. */
struct Band
{
    double lo;
    double hi;
    std::string unit;
    /** As printed, unit included. */
    std::string text;
};

Band range(double lo, double hi, const std::string &unit);
/** One value the paper states (a bar label or a "~" reading): ±10%. */
Band about(double paper, const std::string &unit);
Band atLeast(double lo, const std::string &unit);
Band atMost(double hi, const std::string &unit);

struct Check
{
    std::string label;
    Band band;
    double measured;
    int decimals;
    /** Inside for a ✓ row; the documented side for a ≈ row. */
    Side expected;
    /** Why a ≈ row lies outside its band. */
    std::string reason;
};

/** Why @p check fails, or "" when it holds. */
std::string violation(const Check &check);

struct Figure
{
    std::vector<sim::Table> tables;
    /** Printed after the tables. */
    std::string footer;
    std::vector<Check> checks;

    /** Add a ✓ row. */
    void inBand(std::string label, Band band, double measured,
                int decimals);
    /** Add a ≈ row on @p side of @p band, for @p reason. */
    void outOfBand(std::string label, Band band, double measured,
                   int decimals, Side side, std::string reason);
};

struct Entry
{
    /** `paper <id>` prints this entry alone. */
    const char *id;
    const char *title;
    const char *paperRef;
    Figure (*run)();
};

/** Every entry, in the order `paper` prints them. */
const std::vector<Entry> &entries();

/** Banner, tables, footer and checked rows, as `paper` prints them. */
std::string render(const Entry &entry, const Figure &figure);

/** EXPERIMENTS.md's generated block, markers included; @p figures
 * holds the result of each of entries(), in order. */
std::string markdown(const std::vector<Figure> &figures);

extern const char *const kMarkdownBegin;
extern const char *const kMarkdownEnd;

Figure fig2a();
Figure fig8();
Figure fig9();
Figure fig10();
Figure fig11();
Figure fig12();
Figure fig13();
Figure fig14a();
Figure fig14e();
Figure fig14f();
Figure fig14g();
Figure fig14h();
Figure fig15();
Figure tab1();
Figure tab4();
Figure tab5();
Figure keepAlive();
Figure stateSync();

/** A Simulation, the Computer on it and a started Molecule runtime. */
struct Stack
{
    explicit Stack(std::uint64_t seed) : sim(seed) {}

    sim::Simulation sim;
    std::unique_ptr<hw::Computer> computer;
    std::unique_ptr<core::Molecule> runtime;
};

/** The §6 server: a host CPU and @p dpus DPUs, with @p fns registered
 * as CPU functions on @p kinds, started. */
std::unique_ptr<Stack> cpuDpuStack(
    int dpus, hw::DpuGeneration gen, const std::vector<std::string> &fns,
    const core::MoleculeOptions &options = {},
    const std::vector<hw::PuType> &kinds = {hw::PuType::HostCpu,
                                            hw::PuType::Dpu},
    std::uint64_t seed = 42);

std::string us(sim::SimTime t, int decimals = 1);
std::string ms(sim::SimTime t, int decimals = 2);
std::string secs(sim::SimTime t, int decimals = 2);
/** "<ratio>x" */
std::string times(double ratio, int decimals);

} // namespace molecule::figures

#endif // MOLECULE_BENCH_FIGURES_FIGURES_HH
