/**
 * @file
 * `paper`: the paper's evaluation. `paper` prints every table and
 * figure with its checked rows, `paper <id>` one of them (e.g.
 * `paper 10`), `paper --markdown` the generated block of EXPERIMENTS.md.
 */

#include <cstdio>
#include <string>

#include "bench/figures/figures.hh"

int
main(int argc, char **argv)
{
    using namespace molecule::figures;
    const std::string arg = argc == 2 ? argv[1] : "";
    std::vector<Figure> all;
    for (const auto &e : entries()) {
        if (argc > 2 || (!arg.empty() && arg != "--markdown" && arg != e.id))
            continue;
        all.push_back(e.run());
        if (arg != "--markdown")
            std::fputs(render(e, all.back()).c_str(), stdout);
    }
    if (arg == "--markdown")
        std::fputs(markdown(all).c_str(), stdout);
    if (!all.empty())
        return 0;
    std::fprintf(stderr, "usage: paper [--markdown | <id>]\nids:");
    for (const auto &e : entries())
        std::fprintf(stderr, " %s", e.id);
    std::fprintf(stderr, "\n");
    return 2;
}
