#include "fault/plan.hh"

#include <cstdio>
#include <sstream>
#include <string_view>

#include "sim/parse.hh"
#include "sim/random.hh"

namespace molecule::fault {

const char *
toString(FaultKind k)
{
    switch (k) {
    case FaultKind::PuCrash:
        return "pu-crash";
    case FaultKind::LinkDegrade:
        return "link-degrade";
    case FaultKind::FpgaReconfigFail:
        return "fpga-reconfig-fail";
    case FaultKind::SandboxOom:
        return "sandbox-oom";
    }
    return "?";
}

InjectionPlan &
InjectionPlan::crashPu(int pu, sim::SimTime at, sim::SimTime downFor)
{
    FaultSpec s;
    s.kind = FaultKind::PuCrash;
    s.at = at;
    s.pu = pu;
    s.duration = downFor;
    return add(std::move(s));
}

InjectionPlan &
InjectionPlan::degradeLink(int a, int b, sim::SimTime at,
                           sim::SimTime blackout, sim::SimTime window,
                           double factor)
{
    FaultSpec s;
    s.kind = FaultKind::LinkDegrade;
    s.at = at;
    s.pu = a;
    s.peer = b;
    s.blackout = blackout;
    s.duration = window;
    s.factor = factor;
    return add(std::move(s));
}

InjectionPlan &
InjectionPlan::failFpgaReconfig(int pu, sim::SimTime at, int count)
{
    FaultSpec s;
    s.kind = FaultKind::FpgaReconfigFail;
    s.at = at;
    s.pu = pu;
    s.count = count;
    return add(std::move(s));
}

InjectionPlan &
InjectionPlan::oomKill(int pu, const std::string &function,
                       sim::SimTime at)
{
    FaultSpec s;
    s.kind = FaultKind::SandboxOom;
    s.at = at;
    s.pu = pu;
    s.target = function;
    return add(std::move(s));
}

InjectionPlan
InjectionPlan::scatter(std::uint64_t seed, int puCount,
                       sim::SimTime horizon, int count,
                       const ScatterMix &mix)
{
    InjectionPlan plan(seed);
    // Plan-owned stream: scattering happens at build time and shares
    // nothing with the simulation RNG.
    sim::Rng rng(seed ^ 0x6661756c74ULL /* "fault" */);

    std::vector<FaultKind> kinds;
    if (mix.puCrash)
        kinds.push_back(FaultKind::PuCrash);
    if (mix.linkDegrade)
        kinds.push_back(FaultKind::LinkDegrade);
    if (mix.fpgaReconfig)
        kinds.push_back(FaultKind::FpgaReconfigFail);
    if (mix.sandboxOom)
        kinds.push_back(FaultKind::SandboxOom);
    if (kinds.empty() || puCount <= 0 || count <= 0)
        return plan;

    for (int i = 0; i < count; ++i) {
        const FaultKind kind =
            kinds[std::size_t(rng.uniformInt(0, int(kinds.size()) - 1))];
        const sim::SimTime at{rng.uniformInt(0, horizon.raw() - 1)};
        const int pu = int(rng.uniformInt(0, puCount - 1));
        switch (kind) {
        case FaultKind::PuCrash:
            // Never crash PU 0: the manager PU is this model's
            // stand-in for the host control plane.
            plan.crashPu(pu == 0 ? 1 % puCount : pu, at,
                         sim::SimTime{rng.uniformInt(
                             sim::SimTime::milliseconds(1).raw(),
                             sim::SimTime::milliseconds(20).raw())});
            break;
        case FaultKind::LinkDegrade: {
            const int peer = (pu + 1) % puCount;
            const sim::SimTime window{rng.uniformInt(
                sim::SimTime::milliseconds(2).raw(),
                sim::SimTime::milliseconds(30).raw())};
            plan.degradeLink(pu, peer, at, window / 4.0, window,
                             rng.uniform(1.5, 8.0));
            break;
        }
        case FaultKind::FpgaReconfigFail:
            plan.failFpgaReconfig(pu, at,
                                  int(rng.uniformInt(1, 2)));
            break;
        case FaultKind::SandboxOom:
            plan.oomKill(pu, mix.oomFunction, at);
            break;
        }
    }
    return plan;
}

std::string
InjectionPlan::serialize() const
{
    std::ostringstream out;
    out << "injection-plan v1 seed=" << seed_ << "\n";
    for (const auto &f : faults_) {
        out << "fault kind=" << toString(f.kind) << " at=" << f.at.raw()
            << " pu=" << f.pu << " peer=" << f.peer
            << " dur=" << f.duration.raw()
            << " blackout=" << f.blackout.raw();
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.17g", f.factor);
        out << " factor=" << buf << " count=" << f.count
            << " target=" << f.target << "\n";
    }
    return out.str();
}

namespace {

core::Status
parseKind(FaultKind &out, std::string_view s)
{
    for (FaultKind k :
         {FaultKind::PuCrash, FaultKind::LinkDegrade,
          FaultKind::FpgaReconfigFail, FaultKind::SandboxOom}) {
        if (s == toString(k)) {
            out = k;
            return {};
        }
    }
    return core::Error(core::Errc::InvalidArgument,
                       "unknown fault kind '" + std::string(s) + "'");
}

} // namespace

core::Expected<InjectionPlan>
InjectionPlan::parse(const std::string &text)
{
    std::istringstream in(text);
    std::string line;
    if (!std::getline(in, line))
        return core::Error(core::Errc::InvalidArgument, "empty plan");
    std::istringstream header(line);
    std::string word, version, seedTok, extra;
    std::string_view key, val;
    std::uint64_t seed = 0;
    if (!(header >> word >> version >> seedTok) ||
        word != "injection-plan" || version != "v1" ||
        !sim::splitKv(seedTok, key, val) || key != "seed" ||
        (header >> extra))
        return core::Error(core::Errc::InvalidArgument,
                           "bad plan header: " + line);
    if (auto st = sim::parseInto(seed, key, val); !st.ok())
        return st.error();
    InjectionPlan plan(seed);

    while (std::getline(in, line)) {
        std::istringstream toks(line);
        if (!(toks >> word))
            continue;
        if (word != "fault")
            return core::Error(core::Errc::InvalidArgument,
                               "bad plan line: " + line);
        FaultSpec spec;
        while (toks >> word) {
            if (!sim::splitKv(word, key, val))
                return core::Error(core::Errc::InvalidArgument,
                                   "bad token '" + word + "'");
            core::Status st;
            if (key == "kind")
                st = parseKind(spec.kind, val);
            else if (key == "at")
                st = sim::parseInto(spec.at, key, val);
            else if (key == "pu")
                st = sim::parseInto(spec.pu, key, val);
            else if (key == "peer")
                st = sim::parseInto(spec.peer, key, val);
            else if (key == "dur")
                st = sim::parseInto(spec.duration, key, val);
            else if (key == "blackout")
                st = sim::parseInto(spec.blackout, key, val);
            else if (key == "factor")
                st = sim::parseInto(spec.factor, key, val);
            else if (key == "count")
                st = sim::parseInto(spec.count, key, val);
            else if (key == "target")
                spec.target = val;
            else
                st = core::Error(core::Errc::InvalidArgument,
                                 "unknown key '" + std::string(key) +
                                     "'");
            if (!st.ok())
                return st.error();
        }
        plan.add(std::move(spec));
    }
    return plan;
}

} // namespace molecule::fault
