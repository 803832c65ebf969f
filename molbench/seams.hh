/**
 * @file
 * Timing wrappers around the core policy seams.
 *
 * Each wrapper forwards every call to the policy the runtime would
 * have used anyway (built from the runtime's own config), so wrapping
 * changes host time only, never a simulated result: the traced and
 * untraced digests must agree.
 */

#ifndef MOLBENCH_SEAMS_HH
#define MOLBENCH_SEAMS_HH

#include <memory>
#include <utility>

#include "core/molecule.hh"
#include "molbench.hh"

namespace molbench {

class TimedPlacement final : public molecule::core::PlacementPolicy
{
  public:
    TimedPlacement(std::unique_ptr<PlacementPolicy> inner,
                   CallTimer &timer)
        : inner_(std::move(inner)), timer_(timer)
    {}

    const char *name() const override { return inner_->name(); }

    int
    place(const molecule::core::PlacementRequest &req,
          const molecule::core::PlacementView &view) override
    {
        return timer_.time([&] { return inner_->place(req, view); });
    }

    void onDispatch(int pu) override { inner_->onDispatch(pu); }

    void onComplete(int pu) override { inner_->onComplete(pu); }

  private:
    std::unique_ptr<PlacementPolicy> inner_;
    CallTimer &timer_;
};

/** Charges every strategy call to one timer. */
class TimedKeepAlive final : public molecule::core::KeepAliveStrategy
{
  public:
    TimedKeepAlive(std::unique_ptr<KeepAliveStrategy> inner,
                   CallTimer &timer)
        : inner_(std::move(inner)), timer_(&timer)
    {}

    const char *name() const override { return inner_->name(); }

    void
    onRequest(std::string_view fn, int pu,
              molecule::sim::SimTime now) override
    {
        timer_->time([&] { inner_->onRequest(fn, pu, now); });
    }

    double
    parkPriority(const molecule::core::WarmEntryView &entry) override
    {
        return timer_->time([&] { return inner_->parkPriority(entry); });
    }

    double
    score(const molecule::core::WarmEntryView &entry,
          molecule::sim::SimTime now) const override
    {
        return timer_->time([&] { return inner_->score(entry, now); });
    }

    void
    onEvict(const molecule::core::WarmEntryView &entry) override
    {
        timer_->time([&] { inner_->onEvict(entry); });
    }

  private:
    std::unique_ptr<KeepAliveStrategy> inner_;
    CallTimer *timer_;
};

/** Wrap @p rt's configured placement and keep-alive policies. */
inline void
installTimedPolicies(molecule::core::Molecule &rt, CallTimer &place,
                     CallTimer &keepAlive)
{
    rt.scheduler().installPlacement(std::make_unique<TimedPlacement>(
        rt.options().placement.make(), place));
    rt.startup().installKeepAlive(std::make_unique<TimedKeepAlive>(
        rt.startup().options().keepAlive.make(), keepAlive));
}

/** Deterministic counters every runtime exposes. */
struct CoreCounters
{
    std::int64_t coldStarts = 0;
    std::int64_t warmHits = 0;
    std::int64_t evictions = 0;
    std::int64_t decisions = 0;

    void
    add(molecule::core::Molecule &rt)
    {
        coldStarts += rt.startup().coldStarts();
        warmHits += rt.startup().warmHits();
        evictions += rt.startup().evictions();
        decisions += rt.scheduler().decisionCount();
    }

    /** Record the core.* per-layer counts of @p ops operations. */
    void
    record(Rep &rep, std::int64_t ops) const
    {
        const double n = double(ops > 0 ? ops : 1);
        const std::int64_t acquires = coldStarts + warmHits;
        rep.exact["core.cold_frac"] =
            acquires > 0 ? double(coldStarts) / double(acquires) : 0.0;
        rep.exact["core.evictions_per_op"] = double(evictions) / n;
        rep.exact["core.decisions_per_op"] = double(decisions) / n;
    }
};

/** Record a timer as per-call ns and allocs (skipped if never called). */
inline void
recordTimer(Rep &rep, const std::string &name, const CallTimer &t)
{
    if (t.calls == 0)
        return;
    rep.layerNs[name + "_ns"] = double(t.ns) / double(t.calls);
    rep.layerAllocs[name + "_allocs"] =
        double(t.allocs) / double(t.calls);
}

} // namespace molbench

#endif // MOLBENCH_SEAMS_HH
