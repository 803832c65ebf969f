#include "core/placement.hh"

namespace molecule::core {

namespace {

/** In-flight invocations per core at which a PU counts as saturated
 * and load-aware placement spills to the next-cheapest kind. */
constexpr double kSpillLoadPerCore = 1.0;

/** In-flight invocations per core beyond which locality abandons a
 * warm PU for the load-aware pick. */
constexpr double kAffinityLoadPerCore = 2.0;

/** Candidate order of the price heuristic: cheapest profile first
 * (registration order breaks price ties), then ascending PU id. */
bool
priceBefore(const PuView &a, const PuView &b)
{
    if (a.price != b.price)
        return a.price < b.price;
    if (a.profileRank != b.profileRank)
        return a.profileRank < b.profileRank;
    return a.pu < b.pu;
}

/** Least-loaded first (per core), lowest PU id on ties. */
bool
lighterBefore(const PuView &a, const PuView &b)
{
    if (a.loadPerCore() != b.loadPerCore())
        return a.loadPerCore() < b.loadPerCore();
    return a.pu < b.pu;
}

/**
 * The row of @p view passing @p admit that comes first under
 * @p before, or null: one scan, no sort, no allocation.
 */
template <typename Admit, typename Before>
const PuView *
firstBy(const PlacementView &view, Admit admit, Before before)
{
    const PuView *best = nullptr;
    for (const PuView &v : view.pus())
        if (admit(v) && (best == nullptr || before(v, *best)))
            best = &v;
    return best;
}

int
puOf(const PuView *v)
{
    return v != nullptr ? v->pu : -1;
}

} // namespace

int
PriceOrderedPolicy::place(const PlacementRequest &req,
                          const PlacementView &view)
{
    (void)req;
    return puOf(firstBy(
        view, [](const PuView &v) { return v.eligible(); }, priceBefore));
}

int
LoadAwarePolicy::place(const PlacementRequest &req,
                       const PlacementView &view)
{
    (void)req;
    // Pass 1: the cheapest (price, rank) kind with headroom, least
    // loaded PU within it — "spill to the next-cheapest kind only when
    // this one is saturated".
    const PuView *best = firstBy(
        view,
        [](const PuView &v) {
            return v.eligible() && v.loadPerCore() < kSpillLoadPerCore;
        },
        [](const PuView &a, const PuView &b) {
            if (a.price != b.price)
                return a.price < b.price;
            if (a.profileRank != b.profileRank)
                return a.profileRank < b.profileRank;
            return lighterBefore(a, b);
        });
    if (best != nullptr)
        return best->pu;
    // Pass 2: every kind saturated — the globally least-loaded
    // eligible PU absorbs the overflow.
    return puOf(firstBy(
        view, [](const PuView &v) { return v.eligible(); }, lighterBefore));
}

int
LocalityAffinityPolicy::place(const PlacementRequest &req,
                              const PlacementView &view)
{
    // Most warm entries first; price order breaks ties.
    const PuView *warm = firstBy(
        view,
        [](const PuView &v) {
            return v.eligible() && v.warmSandboxes > 0 &&
                   v.loadPerCore() < kAffinityLoadPerCore;
        },
        [](const PuView &a, const PuView &b) {
            if (a.warmSandboxes != b.warmSandboxes)
                return a.warmSandboxes > b.warmSandboxes;
            return priceBefore(a, b);
        });
    if (warm != nullptr)
        return warm->pu;
    return fallback_.place(req, view);
}

std::unique_ptr<PlacementPolicy>
PlacementConfig::make() const
{
    switch (kind) {
    case Kind::PriceOrdered:
        return std::make_unique<PriceOrderedPolicy>();
    case Kind::LoadAware:
        return std::make_unique<LoadAwarePolicy>();
    case Kind::Locality:
        return std::make_unique<LocalityAffinityPolicy>();
    }
    return std::make_unique<PriceOrderedPolicy>();
}

const char *
toString(PlacementConfig::Kind kind)
{
    switch (kind) {
    case PlacementConfig::Kind::PriceOrdered:
        return "price-ordered";
    case PlacementConfig::Kind::LoadAware:
        return "load-aware";
    case PlacementConfig::Kind::Locality:
        return "locality";
    }
    return "?";
}

} // namespace molecule::core
