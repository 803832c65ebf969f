#include "core/keepalive.hh"

#include <algorithm>
#include <cmath>

namespace molecule::core {

double
LruKeepAlive::score(const WarmEntryView &entry, sim::SimTime now) const
{
    (void)now;
    return double(entry.lastUsed.raw());
}

double
GreedyDualKeepAlive::parkPriority(const WarmEntryView &entry)
{
    const auto it =
        clock_.find(PoolKey{entry.fn, entry.pu});
    const double clock = it != clock_.end() ? it->second : 0.0;
    return clock + double(entry.freq) * entry.costMs /
                       std::max(1.0, entry.sizeMb);
}

double
GreedyDualKeepAlive::score(const WarmEntryView &entry,
                           sim::SimTime now) const
{
    (void)now;
    return entry.parkPriority;
}

void
GreedyDualKeepAlive::onEvict(const WarmEntryView &entry)
{
    clock_[PoolKey{entry.fn, entry.pu}] =
        entry.parkPriority;
}

void
HistogramKeepAlive::onRequest(std::string_view fn, int pu,
                              sim::SimTime now)
{
    Intervals &iv = intervals_[PoolKey{fn, pu}];
    if (iv.seen && now > iv.lastSeen) {
        const std::int64_t us = (now - iv.lastSeen).raw() / 1000;
        std::size_t bucket = 0;
        for (std::int64_t v = us; v > 0 && bucket + 1 < iv.buckets.size();
             v >>= 1)
            ++bucket;
        ++iv.buckets[bucket];
        ++iv.count;
    }
    iv.lastSeen = now;
    iv.seen = true;
}

sim::SimTime
HistogramKeepAlive::windowOf(const Intervals &iv) const
{
    if (iv.count < opts_.minSamples)
        return sim::SimTime::fromMilliseconds(opts_.defaultWindowMs);
    // Walk the log buckets up to the target percentile; the bucket's
    // upper bound (2^i us) is the interval estimate.
    const std::int64_t target = std::max<std::int64_t>(
        1, std::int64_t(std::ceil(double(iv.count) *
                                  opts_.percentile / 100.0)));
    std::int64_t seen = 0;
    std::size_t bucket = iv.buckets.size() - 1;
    for (std::size_t i = 0; i < iv.buckets.size(); ++i) {
        seen += iv.buckets[i];
        if (seen >= target) {
            bucket = i;
            break;
        }
    }
    const double us = double(std::int64_t(1) << bucket);
    return sim::SimTime::fromMilliseconds(us * opts_.marginFactor /
                                          1000.0);
}

sim::SimTime
HistogramKeepAlive::window(std::string_view fn, int pu) const
{
    const auto it = intervals_.find(PoolKey{fn, pu});
    if (it == intervals_.end())
        return sim::SimTime::fromMilliseconds(opts_.defaultWindowMs);
    return windowOf(it->second);
}

double
HistogramKeepAlive::score(const WarmEntryView &entry,
                          sim::SimTime now) const
{
    const sim::SimTime w = window(entry.fn, entry.pu);
    const sim::SimTime reuseBy = entry.lastUsed + w;
    if (now > reuseBy) {
        // Past the predicted window: prime victim, most overdue first.
        return -double((now - reuseBy).raw());
    }
    // Inside the window: protected tier, LRU order among themselves.
    // Any protected score must exceed any overdue score (>= 0 > any
    // overdue negative).
    return double(entry.lastUsed.raw());
}

std::unique_ptr<KeepAliveStrategy>
KeepAliveConfig::make() const
{
    switch (kind) {
    case Kind::Lru:
        return std::make_unique<LruKeepAlive>();
    case Kind::GreedyDual:
        return std::make_unique<GreedyDualKeepAlive>();
    case Kind::Histogram:
        return std::make_unique<HistogramKeepAlive>(histogramOpts);
    }
    return std::make_unique<LruKeepAlive>();
}

const char *
toString(KeepAliveConfig::Kind kind)
{
    switch (kind) {
    case KeepAliveConfig::Kind::Lru:
        return "lru";
    case KeepAliveConfig::Kind::GreedyDual:
        return "greedy-dual";
    case KeepAliveConfig::Kind::Histogram:
        return "histogram";
    }
    return "?";
}

} // namespace molecule::core
