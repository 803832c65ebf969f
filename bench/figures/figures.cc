#include "bench/figures/figures.hh"

#include <cstdio>

namespace molecule::figures {

namespace {

/** A band edge as the paper writes it (6 significant digits). */
std::string
edge(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", v);
    return buf;
}

std::string
shown(const Check &c)
{
    return sim::Table::num(c.measured, c.decimals) + c.band.unit;
}

std::string
verdict(const Check &c)
{
    return c.expected == Side::Inside  ? "✓"
           : c.expected == Side::Above ? "≈ above"
                                       : "≈ below";
}

} // namespace

Band
range(double lo, double hi, const std::string &unit)
{
    return {lo, hi, unit,
            (lo == hi ? "" : edge(lo) + "–") + edge(hi) + unit};
}

Band
about(double paper, const std::string &unit)
{
    return {paper * 0.9, paper * 1.1, unit, edge(paper) + unit + " ±10%"};
}

Band
atLeast(double lo, const std::string &unit)
{
    return {lo, 1e300, unit, "≥ " + edge(lo) + unit};
}

Band
atMost(double hi, const std::string &unit)
{
    return {-1e300, hi, unit, "≤ " + edge(hi) + unit};
}

std::string
violation(const Check &c)
{
    const Side actual = c.measured < c.band.lo   ? Side::Below
                        : c.measured > c.band.hi ? Side::Above
                                                 : Side::Inside;
    const std::string what = c.label + ": " + shown(c) + " against " +
                             c.band.text + " is not " + verdict(c);
    if (c.expected != Side::Inside && c.reason.empty())
        return what + " (a ≈ row must say why)";
    return actual == c.expected ? "" : what;
}

void
Figure::inBand(std::string label, Band band, double measured,
               int decimals)
{
    checks.push_back({std::move(label), std::move(band), measured,
                      decimals, Side::Inside, ""});
}

void
Figure::outOfBand(std::string label, Band band, double measured,
                  int decimals, Side side, std::string reason)
{
    checks.push_back({std::move(label), std::move(band), measured,
                      decimals, side, std::move(reason)});
}

const std::vector<Entry> &
entries()
{
    static const std::vector<Entry> kEntries{
        {"2a", "Figure 2-a: DPU for higher density",
         "paper: 1000 / 1256 / 1512 concurrent instances with 0 / 1 / 2 "
         "BlueField DPUs",
         &fig2a},
        {"tab1", "Table 1: overall contributions",
         "abstractions and optimizations per PU kind, verified against "
         "the running stack",
         &tab1},
        {"8", "Figure 8: nIPC latency",
         "xfifo_write from a BF-1 DPU caller; avg of 50 calls; nIPC spans "
         "~25us (Poll) to ~144us+ (Base), Linux DPU between, Linux CPU "
         "below",
         &fig8},
        {"9", "Figure 9: comparison with commercial serverless systems",
         "paper: Molecule 37-46x better startup, 68-300x better "
         "communication; Molecule-homo 5-6x / 4-19x",
         &fig9},
        {"10", "Figure 10: serverless startup latency",
         "cfork ~10x under baseline; remote cfork +1-3 ms; FPGA ladder "
         ">20 s / 3.8 s / 1.9 s / 53 ms",
         &fig10},
        {"11", "Figure 11: cfork breakdown and memory usage",
         "paper: 85.55 -> 47.25 -> 30.05 -> 8.40 ms; PSS ~34% lower at 16 "
         "instances, RSS higher due to the template",
         &fig11},
        {"12", "Figure 12: serverless DAG communication latency",
         "paper: IPC 15-18x better than Express baseline; nIPC 10-13x "
         "(cross-PU)",
         &fig12},
        {"13", "Figure 13: FPGA function chain (end-to-end) latency",
         "paper: shm (data retention) ~1.95x better at 5 functions",
         &fig13},
        {"14a", "Figure 14-a..d: FunctionBench end-to-end latency",
         "paper: Molecule 1.01x-11.12x better cold; warm ~equal (slight "
         "COW penalty); BF-1 4-7x slower than CPU; BF-2 3-4x better than "
         "BF-1",
         &fig14a},
        {"14e", "Figure 14-e: chained applications",
         "paper: Alexa 2.04-2.47x less e2e latency, MapReduce "
         "3.70-4.47x; labels 38.6 ms / 20.0 ms (baseline CPU)",
         &fig14e},
        {"14f", "Figure 14-f: GZip FPGA function",
         "paper: FPGA 4.8-8.3x better for files >25 MB; CPU wins small "
         "files",
         &fig14f},
        {"14g", "Figure 14-g: Anti-MoneyL FPGA function",
         "paper: FPGA 4.7-34.6x better from 6K to 6M entries", &fig14g},
        {"14h", "Figure 2-b / Figure 14-h: matrix computation on FPGA",
         "paper: kernels 2.15-2.82x faster on FPGA; the chained app 2.8x "
         "(label 2.6 ms)",
         &fig14h},
        {"15", "Figure 15: serverless system design space",
         "Molecule: extreme startup (cfork) AND fast IPC comm, including "
         "cross-PU (nIPC) — the only system in that cell",
         &fig15},
        {"tab4", "Table 4: FPGA resource utilization",
         "paper: 12-function wrapper uses 119,517 LUTs (10.1%), 196,996 "
         "REGs (8.3%), 486 BRAMs (22.5%), 787 DSPs (11.5%)",
         &tab4},
        {"tab5", "Table 5 / §6.8: supporting different PUs",
         "GPU functions run through runG + the host's virtual shim; the "
         "components below are the entire per-PU effort",
         &tab5},
        {"keepalive",
         "Ablation: keep-alive policy (LRU vs greedy-dual vs histogram)",
         "design choice deferred to FaasCache in §5; Zipf(1.2) trace, 20 "
         "req/s, 120 s, global warm budget per PU",
         &keepAlive},
        {"sync", "Ablation: inter-PU synchronization strategies",
         "immediate sync pays per peer; lazy batching amortizes "
         "reclamation; static pid partitioning costs nothing",
         &stateSync},
    };
    return kEntries;
}

std::string
render(const Entry &entry, const Figure &figure)
{
    std::string out = std::string("Molecule reproduction - ") +
                      entry.title + "\nPaper reference: " +
                      entry.paperRef + "\n\n";
    for (const auto &t : figure.tables)
        out += t.render() + "\n";
    out += figure.footer;
    if (figure.checks.empty())
        return out;
    out += "Checked rows (measured against the paper's band):\n";
    for (const auto &c : figure.checks)
        out += "  " + verdict(c) + "  " + c.label + ": " + shown(c) +
               " (paper " + c.band.text + ")" +
               (c.reason.empty() ? "" : ": " + c.reason) + "\n";
    return out + "\n";
}

const char *const kMarkdownBegin =
    "<!-- BEGIN generated by `paper --markdown`: edit bench/figures/, "
    "not this block -->";
const char *const kMarkdownEnd = "<!-- END generated -->";

std::string
markdown(const std::vector<Figure> &figures)
{
    std::string out = std::string(kMarkdownBegin) + "\n";
    for (std::size_t i = 0; i < figures.size(); ++i) {
        if (figures[i].checks.empty())
            continue;
        out += std::string("\n### ") + entries()[i].title + " (`paper " +
               entries()[i].id + "`)\n\n| row | paper | measured | | "
               "reason |\n|---|---|---|---|---|\n";
        for (const auto &c : figures[i].checks)
            out += "| " + c.label + " | " + c.band.text + " | " +
                   shown(c) + " | " + verdict(c) + " | " + c.reason +
                   " |\n";
    }
    return out + "\n" + kMarkdownEnd + "\n";
}

std::unique_ptr<Stack>
cpuDpuStack(int dpus, hw::DpuGeneration gen,
            const std::vector<std::string> &fns,
            const core::MoleculeOptions &options,
            const std::vector<hw::PuType> &kinds, std::uint64_t seed)
{
    auto s = std::make_unique<Stack>(seed);
    s->computer = hw::buildCpuDpuServer(s->sim, dpus, gen);
    s->runtime = std::make_unique<core::Molecule>(*s->computer, options);
    for (const auto &fn : fns)
        s->runtime->registerCpuFunction(fn, kinds);
    s->runtime->start();
    return s;
}

std::string
us(sim::SimTime t, int decimals)
{
    return sim::Table::num(t.toMicroseconds(), decimals);
}

std::string
ms(sim::SimTime t, int decimals)
{
    return sim::Table::num(t.toMilliseconds(), decimals);
}

std::string
secs(sim::SimTime t, int decimals)
{
    return sim::Table::num(t.toSeconds(), decimals);
}

std::string
times(double ratio, int decimals)
{
    return sim::Table::num(ratio, decimals) + "x";
}

} // namespace molecule::figures
