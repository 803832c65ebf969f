/**
 * @file
 * Host clocks, the run loop and the per-layer span tally.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ctime>

#include "molbench.hh"

namespace molbench {

using namespace molecule;

double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

double
wallSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::uint64_t
CallTimer::nowNs()
{
    return std::uint64_t(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

namespace {

/** Length of the union of @p spans clipped to [lo, hi]. */
std::int64_t
coveredNs(std::vector<std::pair<std::int64_t, std::int64_t>> &spans,
          std::int64_t lo, std::int64_t hi)
{
    std::sort(spans.begin(), spans.end());
    std::int64_t covered = 0;
    std::int64_t reach = lo;
    for (auto [s, e] : spans) {
        s = std::max(s, reach);
        e = std::min(e, hi);
        if (e > s) {
            covered += e - s;
            reach = e;
        }
    }
    return covered;
}

} // namespace

void
SpanTally::drain(obs::Tracer &tracer)
{
    const obs::SpanBuffer &recs = tracer.records();
    for (std::size_t i = 0; i < recs.size(); ++i) {
        const obs::SpanRecord &r = recs[i];
        std::int64_t self = r.end - r.start;
        // Children finish (and are pushed) before their parent.
        if (auto it = pending_.find(r.spanId); it != pending_.end()) {
            self -= coveredNs(it->second, r.start, r.end);
            pending_.erase(it);
        }
        const auto layer = std::size_t(r.layer);
        if (layer < kLayers) {
            ++spans[layer];
            selfNs[layer] += self;
        }
        if (r.parentId != 0)
            pending_[r.parentId].emplace_back(r.start, r.end);
    }
    tracer.clear();
}

std::uint64_t
runLoop(sim::Simulation &sim, obs::Tracer *tracer, SpanTally *tally,
        double &tallyCpuS)
{
    std::uint64_t events = 0;
    tallyCpuS = 0.0;
    if (tracer == nullptr) {
        while (sim.step())
            ++events;
        return events;
    }
    constexpr std::uint64_t kChunk = 16384;
    for (;;) {
        std::uint64_t n = 0;
        while (n < kChunk && sim.step())
            ++n;
        events += n;
        const double c0 = threadCpuSeconds();
        tally->drain(*tracer);
        tallyCpuS += threadCpuSeconds() - c0;
        if (n < kChunk)
            return events;
    }
}

double
percentile(const std::vector<double> &sorted, double p)
{
    const double rank = std::ceil(p / 100.0 * double(sorted.size()));
    const std::size_t idx =
        rank < 1.0 ? 0 : std::min(sorted.size(), std::size_t(rank)) - 1;
    return sorted[idx];
}

} // namespace molbench
