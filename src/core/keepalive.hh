/**
 * @file
 * Keep-alive strategies: swappable eviction behind the startup
 * manager (§5 "Keep-alive policies").
 *
 * The startup manager owns the warm pools (one deque per (function,
 * PU)) and the eviction *mechanics*; a KeepAliveStrategy owns the
 * eviction *order*. The manager scans the candidate entries and
 * evicts the one with the lowest strategy score — ties keep the
 * earliest-scanned entry, so a strategy only has to produce
 * deterministic scores to keep runs bit-for-bit replayable.
 *
 * Two strategies ship:
 *
 *  - lru         : oldest lastUsed first (the historical default);
 *  - greedy-dual : FaasCache-style priority clock + freq x cost /
 *                  size with clock aging on eviction — keeps
 *                  expensive-to-boot functions warm over popular
 *                  cheap ones.
 *
 * policy_report's churn rung races them on cold_churn's shape, where
 * their digest triples differ on every seed.
 */

#ifndef MOLECULE_CORE_KEEPALIVE_HH
#define MOLECULE_CORE_KEEPALIVE_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string_view>
#include <utility>

#include "sim/time.hh"

namespace molecule::core {

/**
 * A warm pool's identity: (function name, PU). The name views the
 * FunctionRegistry's own copy (FunctionRegistry::stableName), which
 * outlives every pool and strategy of the runtime, so a key copies no
 * string. Keys order by (name, PU), as the string keys they replace
 * did; eviction tie-breaks depend on that order.
 */
using PoolKey = std::pair<std::string_view, int>;

/** What a strategy sees of one parked (or parking) instance. */
struct WarmEntryView
{
    std::string_view fn;
    int pu = -1;
    sim::SimTime lastUsed;
    /** Lifetime request count of (fn, pu). */
    std::int64_t freq = 1;
    /** Cold-start cost an eviction would re-impose, ms. */
    double costMs = 1.0;
    /** Instance memory footprint, MB. */
    double sizeMb = 1.0;
    /** Value parkPriority() stamped when the entry parked. */
    double parkPriority = 0.0;
};

/**
 * Eviction-order seam. Implementations must be pure functions of
 * their inputs and their own deterministic state — no wall clock, no
 * global RNG — so keep-alive churn stays bit-for-bit replayable.
 * Function names arrive as registry-owned views (see PoolKey), valid
 * for the strategy's lifetime: a strategy may key state by them.
 */
class KeepAliveStrategy
{
  public:
    virtual ~KeepAliveStrategy() = default;

    virtual const char *name() const = 0;

    /** A request for (fn, pu) was observed at @p now (before the warm
     * lookup). Neither shipped strategy learns from it. */
    virtual void
    onRequest(std::string_view fn, int pu, sim::SimTime now)
    {
        (void)fn;
        (void)pu;
        (void)now;
    }

    /** Priority stamped on @p entry as it parks (greedy-dual). */
    virtual double
    parkPriority(const WarmEntryView &entry)
    {
        (void)entry;
        return 0.0;
    }

    /**
     * Eviction score of @p entry at @p now: the lowest score across
     * the candidates is evicted first; ties keep the earliest-scanned
     * entry.
     */
    virtual double score(const WarmEntryView &entry,
                         sim::SimTime now) const = 0;

    /** @p entry was evicted (greedy-dual clock aging). */
    virtual void
    onEvict(const WarmEntryView &entry)
    {
        (void)entry;
    }
};

/** Oldest lastUsed first. */
class LruKeepAlive final : public KeepAliveStrategy
{
  public:
    const char *name() const override { return "lru"; }

    double score(const WarmEntryView &entry,
                 sim::SimTime now) const override;
};

/**
 * FaasCache greedy-dual: park priority = clock + freq x cost / size;
 * the evicted entry's priority becomes the pool's new clock (classic
 * greedy-dual aging), so long-parked entries age relative to fresh
 * ones.
 */
class GreedyDualKeepAlive final : public KeepAliveStrategy
{
  public:
    const char *name() const override { return "greedy-dual"; }

    double parkPriority(const WarmEntryView &entry) override;

    double score(const WarmEntryView &entry,
                 sim::SimTime now) const override;

    void onEvict(const WarmEntryView &entry) override;

  private:
    /** Greedy-dual clock per (fn, pu) pool. */
    std::map<PoolKey, double> clock_;
};

/**
 * Value-semantic strategy selection, safe to copy into per-node
 * MoleculeOptions (cluster::FleetSpec stamps one options template on
 * every node; each node must get its *own* stateful strategy).
 */
struct KeepAliveConfig
{
    enum class Kind : std::uint8_t { Lru, GreedyDual };

    Kind kind = Kind::Lru;

    /** Build a fresh strategy instance for one startup manager. */
    std::unique_ptr<KeepAliveStrategy> make() const;

    static KeepAliveConfig
    lru()
    {
        return {};
    }

    static KeepAliveConfig
    greedyDual()
    {
        KeepAliveConfig c;
        c.kind = Kind::GreedyDual;
        return c;
    }
};

const char *toString(KeepAliveConfig::Kind kind);

} // namespace molecule::core

#endif // MOLECULE_CORE_KEEPALIVE_HH
