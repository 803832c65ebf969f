#include "load/spec.hh"

#include <cstdio>
#include <sstream>
#include <string_view>

#include "sim/parse.hh"

namespace molecule::load {

const char *
toString(ArrivalKind k)
{
    switch (k) {
    case ArrivalKind::Poisson:
        return "poisson";
    case ArrivalKind::Mmpp:
        return "mmpp";
    case ArrivalKind::Diurnal:
        return "diurnal";
    }
    return "?";
}

double
TraceSpec::expectedArrivals() const
{
    double rate = ratePerSecond;
    if (arrival == ArrivalKind::Mmpp) {
        // Time-weighted mean of the two state rates.
        const double base = meanDwellBase.toSeconds();
        const double burst = meanDwellBurst.toSeconds();
        if (base + burst > 0.0)
            rate = ratePerSecond * (base + burstFactor * burst) /
                   (base + burst);
    }
    return rate * duration.toSeconds();
}

std::string
TraceSpec::tenantName(std::uint32_t i) const
{
    if (tenants.empty())
        return "default";
    const std::string &name = tenants.at(i).name;
    if (!name.empty())
        return name;
    char buf[16];
    std::snprintf(buf, sizeof(buf), "t%u", i);
    return buf;
}

namespace {

/** Shortest-exact double form (%.17g round-trips IEEE doubles). */
std::string
fmtDouble(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

core::Status
parseKind(ArrivalKind &out, std::string_view s)
{
    for (ArrivalKind k : {ArrivalKind::Poisson, ArrivalKind::Mmpp,
                          ArrivalKind::Diurnal}) {
        if (s == toString(k)) {
            out = k;
            return {};
        }
    }
    return core::Error(core::Errc::InvalidArgument,
                       "unknown arrival kind '" + std::string(s) + "'");
}

core::Error
unknownKey(std::string_view key)
{
    return core::Error(core::Errc::InvalidArgument,
                       "unknown key '" + std::string(key) + "'");
}

} // namespace

std::string
TraceSpec::serialize() const
{
    std::ostringstream out;
    out << "trace-spec v1 seed=" << seed
        << " rate=" << fmtDouble(ratePerSecond)
        << " arrival=" << toString(arrival) << " dur=" << duration.raw()
        << " burst=" << fmtDouble(burstFactor)
        << " dwell-base=" << meanDwellBase.raw()
        << " dwell-burst=" << meanDwellBurst.raw()
        << " diurnal-amp=" << fmtDouble(diurnalAmplitude)
        << " diurnal-period=" << diurnalPeriod.raw() << "\n";
    for (const auto &fn : functions)
        out << "fn name=" << fn << "\n";
    for (const auto &t : tenants)
        out << "tenant share=" << fmtDouble(t.share)
            << " zipf=" << fmtDouble(t.zipfExponent)
            << " salt=" << t.permuteSalt << " name=" << t.name << "\n";
    return out.str();
}

core::Expected<TraceSpec>
TraceSpec::parse(const std::string &text)
{
    std::istringstream in(text);
    std::string line;
    if (!std::getline(in, line))
        return core::Error(core::Errc::InvalidArgument, "empty spec");

    std::istringstream header(line);
    std::string word;
    header >> word;
    std::string version;
    header >> version;
    if (word != "trace-spec" || version != "v1")
        return core::Error(core::Errc::InvalidArgument,
                           "bad spec header: " + line);

    TraceSpec spec;
    std::string_view key, val;
    while (header >> word) {
        if (!sim::splitKv(word, key, val))
            return core::Error(core::Errc::InvalidArgument,
                               "bad token '" + word + "'");
        core::Status st;
        if (key == "seed")
            st = sim::parseInto(spec.seed, key, val);
        else if (key == "rate")
            st = sim::parseInto(spec.ratePerSecond, key, val);
        else if (key == "arrival")
            st = parseKind(spec.arrival, val);
        else if (key == "dur")
            st = sim::parseInto(spec.duration, key, val);
        else if (key == "burst")
            st = sim::parseInto(spec.burstFactor, key, val);
        else if (key == "dwell-base")
            st = sim::parseInto(spec.meanDwellBase, key, val);
        else if (key == "dwell-burst")
            st = sim::parseInto(spec.meanDwellBurst, key, val);
        else if (key == "diurnal-amp")
            st = sim::parseInto(spec.diurnalAmplitude, key, val);
        else if (key == "diurnal-period")
            st = sim::parseInto(spec.diurnalPeriod, key, val);
        else
            st = unknownKey(key);
        if (!st.ok())
            return st.error();
    }

    while (std::getline(in, line)) {
        std::istringstream toks(line);
        if (!(toks >> word))
            continue;
        if (word == "fn") {
            std::string extra;
            if (!(toks >> word) || !sim::splitKv(word, key, val) ||
                key != "name" || val.empty() || (toks >> extra))
                return core::Error(core::Errc::InvalidArgument,
                                   "bad fn line: " + line);
            spec.functions.emplace_back(val);
        } else if (word == "tenant") {
            TenantSpec t;
            bool named = false;
            while (toks >> word) {
                if (!sim::splitKv(word, key, val))
                    return core::Error(core::Errc::InvalidArgument,
                                       "bad token '" + word + "'");
                core::Status st;
                if (key == "share") {
                    st = sim::parseInto(t.share, key, val);
                } else if (key == "zipf") {
                    st = sim::parseInto(t.zipfExponent, key, val);
                } else if (key == "salt") {
                    st = sim::parseInto(t.permuteSalt, key, val);
                } else if (key == "name") {
                    t.name = val;
                    named = true;
                } else {
                    st = unknownKey(key);
                }
                if (!st.ok())
                    return st.error();
            }
            if (!named)
                return core::Error(core::Errc::InvalidArgument,
                                   "tenant without name: " + line);
            spec.tenants.push_back(std::move(t));
        } else {
            return core::Error(core::Errc::InvalidArgument,
                               "bad spec line: " + line);
        }
    }
    return spec;
}

} // namespace molecule::load
