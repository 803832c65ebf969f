/**
 * @file
 * lifetime pack: dangling-reference hazards specific to this codebase.
 *
 *  - ref-capture-escape: a lambda with a by-reference capture handed
 *    to schedule()/scheduleBatch()/spawn(). The callback runs at a
 *    later simulated instant, long after the capturing frame returned;
 *    DES callbacks capture by value (or `this`) only.
 *
 *  - arena-escape: a pointer obtained from sim::Arena (create /
 *    allocate / allocateArray) or a reference into obs::SpanBuffer
 *    (front / back / operator[]) used after the owning object's
 *    reset()/clear()/dropOldest() — the copy-out-before-reset rule of
 *    DESIGN.md §4d. Scanning is per function body, source-object
 *    matched; a rebinding assignment after the reset ends the hazard.
 *
 *  - view-of-temporary: binding (or returning) storage of a
 *    temporary: `... = buf.snapshot().data()`, `return
 *    std::span(local)` where `local` is a function-local container,
 *    or `= make().span()`-style chains through an rvalue.
 *
 * These three scan src/ only: tests drive the simulator synchronously
 * inside one frame, where by-reference captures are legitimate.
 *
 *  - co-await-in-condition: `co_await` inside an if / while / for /
 *    switch condition. GCC 12 drops the continuation of such an
 *    await at -O2 (sim/task.hh, rule 4); await into a named local
 *    first. Scans every file: tests' coroutines miscompile too.
 */

#include <cctype>

#include "engine.hh"

namespace molecule::lint {

namespace {

bool
srcScope(const std::string &path)
{
    return path.find("src/") != std::string::npos ||
           path.rfind("src/", 0) == 0;
}

/** Walk back from @p pos to just past the previous statement boundary. */
std::size_t
statementStart(const std::string &code, std::size_t pos)
{
    std::size_t b = pos;
    while (b > 0) {
        const char c = code[b - 1];
        if (c == ';' || c == '{' || c == '}')
            break;
        --b;
    }
    return b;
}

/** Identifier ending at @p end (exclusive); empty when none. */
std::string
identBefore(const std::string &code, std::size_t end)
{
    std::size_t e = end;
    while (e > 0 &&
           std::isspace(static_cast<unsigned char>(code[e - 1])))
        --e;
    std::size_t b = e;
    while (b > 0 && identChar(code[b - 1]))
        --b;
    return code.substr(b, e - b);
}

// ---------------------------------------------------------------------
// ref-capture-escape
// ---------------------------------------------------------------------

class RefCaptureEscapeRule final : public Rule
{
  public:
    RefCaptureEscapeRule()
        : Rule("lifetime", "ref-capture-escape",
               "by-reference lambda capture escaping into a scheduled "
               "callback")
    {}

    bool
    inScope(const std::string &path) const override
    {
        return srcScope(path);
    }

    void
    run(const Project &, const SourceFile &f,
        std::vector<Finding> &out) const override
    {
        static const char *kSinks[] = {"schedule", "scheduleBatch",
                                       "spawn"};
        const std::string &code = f.code;
        for (const char *sink : kSinks) {
            for (std::size_t pos : findWord(code, sink)) {
                std::size_t open = pos + std::string(sink).size();
                while (open < code.size() &&
                       std::isspace(
                           static_cast<unsigned char>(code[open])))
                    ++open;
                if (open >= code.size() || code[open] != '(')
                    continue;
                const std::size_t close = matchParen(code, open);
                if (close == std::string::npos)
                    continue;
                scanArgs(f, code, open, close, sink, out);
            }
        }
    }

  private:
    void
    scanArgs(const SourceFile &f, const std::string &code,
             std::size_t open, std::size_t close, const char *sink,
             std::vector<Finding> &out) const
    {
        for (std::size_t i = open; i + 1 < close; ++i) {
            if (code[i] != '[')
                continue;
            // Lambda intro, not a subscript: '[' preceded (modulo
            // whitespace) by '(', ',', '{', or another intro.
            std::size_t p = i;
            while (p > 0 && std::isspace(static_cast<unsigned char>(
                                code[p - 1])))
                --p;
            if (p == 0 ||
                (code[p - 1] != '(' && code[p - 1] != ',' &&
                 code[p - 1] != '{'))
                continue;
            const std::size_t end = code.find(']', i);
            if (end == std::string::npos || end > close)
                continue;
            const std::string captures =
                code.substr(i + 1, end - i - 1);
            if (captures.find('&') == std::string::npos)
                continue;
            emit(f, i,
                 "by-reference capture [" + captures +
                     "] passed to " + sink +
                     "(): the callback outlives this frame; capture "
                     "by value (or `this`)",
                 out);
        }
    }
};

// ---------------------------------------------------------------------
// arena-escape
// ---------------------------------------------------------------------

class ArenaEscapeRule final : public Rule
{
  public:
    ArenaEscapeRule()
        : Rule("lifetime", "arena-escape",
               "arena/SpanBuffer storage used across reset (copy out "
               "first)")
    {}

    bool
    inScope(const std::string &path) const override
    {
        return srcScope(path);
    }

    void
    run(const Project &, const SourceFile &f,
        std::vector<Finding> &out) const override
    {
        for (const Function &fn : extractFunctions(f.code)) {
            const std::string body = f.code.substr(
                fn.bodyBegin, fn.bodyEnd - fn.bodyBegin);
            checkBody(f, fn, body, out);
        }
    }

  private:
    struct Binding
    {
        std::string var;    ///< the pointer/reference variable
        std::string source; ///< the arena / buffer it came from
        std::size_t offset; ///< position of the binding in the body
        bool needsRef;      ///< only hazardous when bound by ref/ptr
    };

    void
    checkBody(const SourceFile &f, const Function &fn,
              const std::string &body,
              std::vector<Finding> &out) const
    {
        static const char *kAllocs[] = {".create<", ".allocate(",
                                        ".allocateArray<"};
        static const char *kViews[] = {".front()", ".back()"};
        static const char *kResets[] = {".reset()", ".clear()",
                                        ".dropOldest("};

        std::vector<Binding> bindings;
        auto collect = [&](const char *pat, bool needsRef) {
            std::size_t q = 0;
            const std::string p = pat;
            while ((q = body.find(p, q)) != std::string::npos) {
                const std::string source = identBefore(body, q);
                // The binding target: `T *var = src.create<...>` —
                // identifier just before the '=' of this statement.
                const std::size_t stmt = statementStart(body, q);
                const std::size_t eq = body.find('=', stmt);
                std::string var;
                if (eq != std::string::npos && eq < q)
                    var = identBefore(body, eq);
                if (!var.empty() && !source.empty()) {
                    bool byRef = true;
                    if (needsRef) {
                        const std::string decl =
                            body.substr(stmt, eq - stmt);
                        byRef = decl.find('&') != std::string::npos ||
                                decl.find('*') != std::string::npos;
                    }
                    if (byRef)
                        bindings.push_back(
                            {var, source, q, needsRef});
                }
                q += p.size();
            }
        };
        for (const char *pat : kAllocs)
            collect(pat, /*needsRef=*/false);
        for (const char *pat : kViews)
            collect(pat, /*needsRef=*/true);
        if (bindings.empty())
            return;

        for (const char *pat : kResets) {
            const std::string p = pat;
            std::size_t q = 0;
            while ((q = body.find(p, q)) != std::string::npos) {
                const std::string reset = identBefore(body, q);
                for (const Binding &b : bindings) {
                    if (b.source != reset || b.offset >= q)
                        continue;
                    flagUseAfter(f, fn, body, b, q + p.size(), pat,
                                 out);
                }
                q += p.size();
            }
        }
    }

    void
    flagUseAfter(const SourceFile &f, const Function &fn,
                 const std::string &body, const Binding &b,
                 std::size_t after, const char *reset,
                 std::vector<Finding> &out) const
    {
        for (std::size_t use : findWord(body, b.var)) {
            if (use < after)
                continue;
            // A rebinding assignment refreshes the pointer: stop.
            std::size_t k = use + b.var.size();
            while (k < body.size() &&
                   std::isspace(static_cast<unsigned char>(body[k])))
                ++k;
            if (k < body.size() && body[k] == '=' &&
                (k + 1 >= body.size() || body[k + 1] != '='))
                return;
            emit(f, fn.bodyBegin + use,
                 "'" + b.var + "' (from " + b.source +
                     ") used after " + b.source + reset +
                     ": storage was invalidated; copy out before the "
                     "reset (DESIGN.md §4d)",
                 out);
            return; // one finding per binding/reset pair
        }
    }
};

// ---------------------------------------------------------------------
// view-of-temporary
// ---------------------------------------------------------------------

class ViewOfTemporaryRule final : public Rule
{
  public:
    ViewOfTemporaryRule()
        : Rule("lifetime", "view-of-temporary",
               "span / data() view bound to a temporary's storage")
    {}

    bool
    inScope(const std::string &path) const override
    {
        return srcScope(path);
    }

    void
    run(const Project &, const SourceFile &f,
        std::vector<Finding> &out) const override
    {
        checkSnapshotChains(f, out);
        checkSpanOfLocal(f, out);
    }

  private:
    /** `= x.snapshot().data()` / `return make().span()` — the owner
     * dies at the end of the full expression. */
    void
    checkSnapshotChains(const SourceFile &f,
                        std::vector<Finding> &out) const
    {
        static const char *kChains[] = {
            ".snapshot().data()", ".snapshot().begin()",
            ".snapshot().front()", ").span()", "}.span()"};
        const std::string &code = f.code;
        for (const char *pat : kChains) {
            std::size_t q = 0;
            const std::string p = pat;
            while ((q = code.find(p, q)) != std::string::npos) {
                if (bindsResult(code, q)) {
                    emit(f, q,
                         std::string("view chained off a temporary (") +
                             pat +
                             "): the owner dies at the end of the "
                             "full expression; name the owner first",
                         out);
                }
                q += p.size();
            }
        }
    }

    /** True when the chain at @p pos is bound (`=`) or returned. */
    bool
    bindsResult(const std::string &code, std::size_t pos) const
    {
        const std::size_t stmt = statementStart(code, pos);
        const std::string prefix = code.substr(stmt, pos - stmt);
        if (prefix.find('=') != std::string::npos)
            return prefix.rfind("==") == std::string::npos;
        for (std::size_t w : findWord(prefix, "return"))
            return w < prefix.size();
        return false;
    }

    /** `return std::span(local)` where `local` is a function-local
     * container. */
    void
    checkSpanOfLocal(const SourceFile &f,
                     std::vector<Finding> &out) const
    {
        for (const Function &fn : extractFunctions(f.code)) {
            const std::string body = f.code.substr(
                fn.bodyBegin, fn.bodyEnd - fn.bodyBegin);
            const std::set<std::string> locals = localContainers(body);
            if (locals.empty())
                continue;
            std::size_t q = 0;
            while ((q = body.find("return", q)) != std::string::npos) {
                const std::size_t end = body.find(';', q);
                if (end == std::string::npos)
                    break;
                const std::string expr =
                    body.substr(q + 6, end - q - 6);
                if (findWord(expr, "span").empty()) {
                    q = end;
                    continue;
                }
                for (const auto &local : locals) {
                    if (!findWord(expr, local).empty()) {
                        emit(f, fn.bodyBegin + q,
                             "returning a span over local '" + local +
                                 "' from '" + fn.name +
                                 "': the storage dies with the frame",
                             out);
                        break;
                    }
                }
                q = end;
            }
        }
    }

    std::set<std::string>
    localContainers(const std::string &body) const
    {
        std::set<std::string> out;
        for (const char *cont : {"vector", "array", "string"}) {
            for (std::size_t pos : findWord(body, cont)) {
                std::size_t k = pos + std::string(cont).size();
                if (k < body.size() && body[k] == '<') {
                    int depth = 0;
                    for (; k < body.size(); ++k) {
                        if (body[k] == '<')
                            ++depth;
                        else if (body[k] == '>' && --depth == 0) {
                            ++k;
                            break;
                        }
                    }
                }
                while (k < body.size() &&
                       std::isspace(
                           static_cast<unsigned char>(body[k])))
                    ++k;
                std::size_t e = k;
                while (e < body.size() && identChar(body[e]))
                    ++e;
                if (e > k)
                    out.insert(body.substr(k, e - k));
            }
        }
        return out;
    }
};

// ---------------------------------------------------------------------
// co-await-in-condition
// ---------------------------------------------------------------------

class CoAwaitInConditionRule final : public Rule
{
  public:
    CoAwaitInConditionRule()
        : Rule("lifetime", "co-await-in-condition",
               "co_await inside an if/while/for/switch condition")
    {}

    bool
    inScope(const std::string &) const override
    {
        return true;
    }

    void
    run(const Project &, const SourceFile &f,
        std::vector<Finding> &out) const override
    {
        const std::string &code = f.code;
        for (const std::string kw : {"if", "while", "for", "switch"}) {
            for (std::size_t pos : findWord(code, kw)) {
                const std::size_t open =
                    code.find_first_not_of(" \t\r\n", pos + kw.size());
                if (open == std::string::npos || code[open] != '(')
                    continue;
                const std::size_t close = matchParen(code, open);
                if (close == std::string::npos)
                    continue;
                for (std::size_t at :
                     findWord(code.substr(open, close - open),
                              "co_await"))
                    emit(f, open + at,
                         "co_await inside a " + kw +
                             " condition miscompiles at -O2 "
                             "(sim/task.hh rule 4): await into a "
                             "named local first",
                         out);
            }
        }
    }
};

} // namespace

void
registerLifetime(Registry &registry)
{
    registry.add(std::make_unique<RefCaptureEscapeRule>());
    registry.add(std::make_unique<ArenaEscapeRule>());
    registry.add(std::make_unique<ViewOfTemporaryRule>());
    registry.add(std::make_unique<CoAwaitInConditionRule>());
}

} // namespace molecule::lint
