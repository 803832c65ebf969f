/**
 * @file
 * sim-purity pack: the PR 2 determinism rules on the shared engine.
 *
 * Semantics are kept bit-for-bit compatible with the original
 * tools/lint_determinism.cc (same rule ids, same messages, same
 * same-file one-transitive-hop scan for unordered iteration), so the
 * migrated pack reproduces PR 2's findings on its old fixtures and
 * existing `det:allow(<rule>)` suppressions keep working.
 */

#include <cstring>

#include "engine.hh"

namespace molecule::lint {

namespace {

/**
 * src/ and the paper's figures (bench/figures/, simulation code run as
 * a tier-1 test). The rest of bench/ reads host clocks on purpose and
 * is excluded at traversal level.
 */
bool
simPurityScope(const std::string &path)
{
    return path.find("src/") != std::string::npos ||
           path.rfind("src/", 0) == 0 ||
           path.find("bench/figures/") != std::string::npos;
}

class WallclockRule final : public Rule
{
  public:
    WallclockRule()
        : Rule("sim-purity", "wallclock",
               "wall-clock time / OS entropy in simulation code")
    {}

    bool
    inScope(const std::string &path) const override
    {
        return simPurityScope(path);
    }

    void
    run(const Project &, const SourceFile &f,
        std::vector<Finding> &out) const override
    {
        static const char *kBanned[] = {"system_clock", "steady_clock",
                                        "high_resolution_clock",
                                        "random_device"};
        for (const char *token : kBanned) {
            for (std::size_t pos : findWord(f.code, token)) {
                emit(f, pos,
                     std::string(token) +
                         ": wall-clock time / OS entropy makes runs "
                         "irreproducible; use sim::SimTime / sim::Rng",
                     out, /*honorDetAllow=*/true);
            }
        }
    }
};

class PointerKeyedRule final : public Rule
{
  public:
    PointerKeyedRule()
        : Rule("sim-purity", "pointer-keyed-container",
               "map/set keyed by a pointer type")
    {}

    bool
    inScope(const std::string &path) const override
    {
        return simPurityScope(path);
    }

    void
    run(const Project &, const SourceFile &f,
        std::vector<Finding> &out) const override
    {
        static const char *kContainers[] = {"map", "set", "multimap",
                                            "multiset", "unordered_map",
                                            "unordered_set"};
        for (const char *cont : kContainers) {
            for (std::size_t pos : findWord(f.code, cont)) {
                std::size_t open = pos + std::strlen(cont);
                while (open < f.code.size() &&
                       std::isspace(
                           static_cast<unsigned char>(f.code[open])))
                    ++open;
                if (open >= f.code.size() || f.code[open] != '<')
                    continue;
                const std::string key =
                    firstTemplateArg(f.code, open);
                if (key.find('*') != std::string::npos) {
                    emit(f, pos,
                         std::string(cont) +
                             " keyed by a pointer: iteration order "
                             "depends on allocation addresses; key by "
                             "a stable id instead",
                         out, /*honorDetAllow=*/true);
                }
            }
        }
    }
};

class StdFunctionRule final : public Rule
{
  public:
    StdFunctionRule()
        : Rule("sim-purity", "std-function-in-sim",
               "std::function in the DES hot path")
    {}

    bool
    inScope(const std::string &path) const override
    {
        return path.find("src/sim/") != std::string::npos ||
               path.rfind("sim/", 0) == 0;
    }

    void
    run(const Project &, const SourceFile &f,
        std::vector<Finding> &out) const override
    {
        std::size_t pos = 0;
        while ((pos = f.code.find("std::function", pos)) !=
               std::string::npos) {
            emit(f, pos,
                 "std::function in the sim kernel: the DES hot path "
                 "is allocation-free (InlineCallback); use it or "
                 "suppress for cold paths",
                 out, /*honorDetAllow=*/true);
            pos += 13;
        }
    }
};

class UnorderedIterationRule final : public Rule
{
  public:
    UnorderedIterationRule()
        : Rule("sim-purity", "unordered-iteration",
               "unordered-container iteration feeding schedule order")
    {}

    bool
    inScope(const std::string &path) const override
    {
        return simPurityScope(path);
    }

    void
    run(const Project &, const SourceFile &f,
        std::vector<Finding> &out) const override
    {
        const std::set<std::string> unordered =
            unorderedVarNames(f.code);
        if (unordered.empty())
            return;

        const std::vector<Function> fns = extractFunctions(f.code);
        static const std::set<std::string> kSchedulers{
            "schedule", "scheduleBatch", "scheduleResume", "delay",
            "spawn"};

        // Functions that schedule directly, then one transitive hop
        // (same file — see DESIGN.md §7 for why the hop stays local).
        std::set<std::string> scheduling;
        for (const auto &fn : fns) {
            if (callsAnyOf(f.code, fn, kSchedulers))
                scheduling.insert(fn.name);
        }
        std::set<std::string> reaches = scheduling;
        for (const auto &fn : fns) {
            if (!reaches.count(fn.name) &&
                callsAnyOf(f.code, fn, scheduling))
                reaches.insert(fn.name);
        }

        for (const auto &fn : fns) {
            if (!reaches.count(fn.name))
                continue;
            const std::string body = f.code.substr(
                fn.bodyBegin, fn.bodyEnd - fn.bodyBegin);
            for (const auto &var : unordered) {
                // Range-for over the container…
                std::size_t pos = 0;
                while ((pos = body.find(':', pos)) !=
                       std::string::npos) {
                    std::size_t k = pos + 1;
                    if (k < body.size() && body[k] == ':') {
                        pos = k + 1; // `::` qualifier, not a range-for
                        continue;
                    }
                    while (k < body.size() &&
                           std::isspace(
                               static_cast<unsigned char>(body[k])))
                        ++k;
                    if (body.compare(k, var.size(), var) == 0 &&
                        (k + var.size() >= body.size() ||
                         !identChar(body[k + var.size()]))) {
                        emit(f, fn.bodyBegin + pos,
                             "iterating '" + var + "' (unordered) in '" +
                                 fn.name +
                                 "', which reaches schedule/delay: "
                                 "hash order would feed event order",
                             out, /*honorDetAllow=*/true);
                    }
                    ++pos;
                }
                // …or explicit begin()/end() iteration.
                for (const char *meth : {".begin", ".end", ".cbegin"}) {
                    const std::string pat = var + meth;
                    std::size_t q = 0;
                    while ((q = body.find(pat, q)) !=
                           std::string::npos) {
                        emit(f, fn.bodyBegin + q,
                             "iterating '" + var + "' (unordered) in '" +
                                 fn.name +
                                 "', which reaches schedule/delay: "
                                 "hash order would feed event order",
                             out, /*honorDetAllow=*/true);
                        q += pat.size();
                    }
                }
            }
        }
    }
};

} // namespace

void
registerSimPurity(Registry &registry)
{
    registry.add(std::make_unique<WallclockRule>());
    registry.add(std::make_unique<PointerKeyedRule>());
    registry.add(std::make_unique<StdFunctionRule>());
    registry.add(std::make_unique<UnorderedIterationRule>());
}

} // namespace molecule::lint
