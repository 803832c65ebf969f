#include "core/keepalive.hh"

#include <algorithm>

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

std::unique_ptr<KeepAliveStrategy>
KeepAliveConfig::make() const
{
    switch (kind) {
    case Kind::Lru:
        return std::make_unique<LruKeepAlive>();
    case Kind::GreedyDual:
        return std::make_unique<GreedyDualKeepAlive>();
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
    }
    return "?";
}

} // namespace molecule::core
