#include "obs/metrics_export.hh"

#include <cstdio>

namespace molecule::obs {

namespace {

/** The one float formatter: fixed precision, no locale. */
std::string
fmt(double v)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.3f", v);
    return buf;
}

std::string
fmtInt(std::int64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld",
                  static_cast<long long>(v));
    return buf;
}

/** OpenMetrics family name: dots become underscores. */
std::string
familyName(const std::string &metric)
{
    std::string out = "molecule_";
    for (const char c : metric)
        out.push_back(c == '.' ? '_' : c);
    return out;
}

/** `{tenant="0",node="2"}` (empty when unlabeled). The extra label
 * slot lets histogram families add `quantile`. */
std::string
labels(const SeriesDesc &d, const char *extraKey = nullptr,
       const char *extraVal = nullptr)
{
    std::string out;
    const auto add = [&out](const std::string &kv) {
        out += out.empty() ? "{" : ",";
        out += kv;
    };
    if (d.tenant >= 0)
        add("tenant=\"" + fmtInt(d.tenant) + "\"");
    if (d.node >= 0)
        add("node=\"" + fmtInt(d.node) + "\"");
    if (extraKey != nullptr)
        add(std::string(extraKey) + "=\"" + extraVal + "\"");
    if (!out.empty())
        out += "}";
    return out;
}

} // namespace

std::string
openMetricsText(const TimeSeries &ts)
{
    std::string out;
    // Identity order groups each metric's series together; the TYPE
    // line is emitted whenever the family changes.
    std::string lastFamily;
    for (const std::uint32_t id : ts.idsByIdentity()) {
        const SeriesDesc &d = ts.series(id);
        const std::string family = familyName(d.metric);
        if (family != lastFamily) {
            out += "# TYPE " + family + " ";
            out += d.kind == SeriesKind::Counter ? "counter"
                   : d.kind == SeriesKind::Gauge ? "gauge"
                                                 : "summary";
            out += "\n";
            lastFamily = family;
        }
        switch (d.kind) {
        case SeriesKind::Counter:
            out += family + labels(d) + " " +
                   fmtInt(ts.counterValue(id)) + "\n";
            break;
        case SeriesKind::Gauge:
            out += family + labels(d) + " " + fmt(ts.gaugeValue(id)) +
                   "\n";
            break;
        case SeriesKind::Histogram: {
            const HistogramSnapshot snap = ts.histogramTotal(id);
            out += family + "_count" + labels(d) + " " +
                   fmtInt(std::int64_t(snap.count)) + "\n";
            out += family + "_sum" + labels(d) + " " + fmt(snap.sum) +
                   "\n";
            out += family + labels(d, "quantile", "0.5") + " " +
                   fmt(snap.percentile(50)) + "\n";
            out += family + labels(d, "quantile", "0.99") + " " +
                   fmt(snap.percentile(99)) + "\n";
            break;
        }
        }
    }
    out += "# EOF\n";
    return out;
}

std::string
windowJson(const TimeSeries &ts, const WindowRecord &w)
{
    std::string out = "{\"window\":" + fmtInt(std::int64_t(w.index)) +
                      ",\"start_ns\":" + fmtInt(w.start.raw()) +
                      ",\"end_ns\":" + fmtInt(w.end.raw()) +
                      ",\"points\":[";
    bool first = true;
    for (const std::uint32_t id : ts.idsByIdentity()) {
        const WindowPoint *point = w.find(id);
        if (point == nullptr)
            continue;
        const WindowPoint &p = *point;
        if (!first)
            out += ",";
        first = false;
        const SeriesDesc &d = ts.series(id);
        out += "{\"metric\":\"" + d.metric + "\"";
        if (d.tenant >= 0)
            out += ",\"tenant\":" + fmtInt(d.tenant);
        if (d.node >= 0)
            out += ",\"node\":" + fmtInt(d.node);
        out += ",\"kind\":\"";
        out += toString(p.kind);
        out += "\"";
        switch (p.kind) {
        case SeriesKind::Counter:
            out += ",\"delta\":" + fmtInt(p.count);
            break;
        case SeriesKind::Gauge:
            out += ",\"last\":" + fmt(p.value) +
                   ",\"max\":" + fmt(p.maxValue);
            break;
        case SeriesKind::Histogram:
            out += ",\"count\":" + fmtInt(p.count) +
                   ",\"sum\":" + fmt(p.sum) +
                   ",\"p50\":" + fmt(p.p50) +
                   ",\"p99\":" + fmt(p.p99) +
                   ",\"above\":" + fmtInt(p.above);
            break;
        }
        out += "}";
    }
    out += "]}";
    return out;
}

std::string
jsonLinesTimeline(const TimeSeries &ts)
{
    std::string out;
    for (const WindowRecord &w : ts.windows()) {
        out += windowJson(ts, w);
        out += "\n";
    }
    return out;
}

bool
writeText(const std::string &path, const std::string &text)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (f == nullptr)
        return false;
    const std::size_t n =
        std::fwrite(text.data(), 1, text.size(), f);
    const bool ok = n == text.size();
    return std::fclose(f) == 0 && ok;
}

} // namespace molecule::obs
