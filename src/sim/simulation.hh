/**
 * @file
 * The discrete-event simulation driver.
 *
 * A Simulation owns the virtual clock and the pending-event set, spawns
 * root coroutine tasks and provides the fundamental awaitable (delay).
 * All coroutine resumptions are funnelled through the event queue so
 * same-instant wakeups fire in a deterministic order.
 */

#ifndef MOLECULE_SIM_SIMULATION_HH
#define MOLECULE_SIM_SIMULATION_HH

#include <coroutine>
#include <memory>
#include <span>

#include "sim/analysis.hh"
#include "sim/arena.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "sim/task.hh"
#include "sim/time.hh"

namespace molecule::sim {

/**
 * Virtual-time executor for coroutine tasks.
 *
 * Typical use:
 * @code
 *   Simulation sim;
 *   sim.spawn(clientLoop(sim, ...));
 *   sim.run();                       // until no events remain
 * @endcode
 */
class Simulation
{
  public:
    /** @param seed seeds the simulation-owned RNG (determinism knob). */
    explicit Simulation(std::uint64_t seed = 42) : rng_(seed) {}

    Simulation(const Simulation &) = delete;
    Simulation &operator=(const Simulation &) = delete;

    /** Current simulated time. */
    SimTime now() const { return now_; }

    /** The simulation-owned deterministic RNG. */
    Rng &rng() { return rng_; }

    /**
     * Per-simulation bump arena for event-frequency scratch records
     * (span buffers, fault bookkeeping). Monotonic: freed wholesale
     * when the simulation is destroyed; see arena.hh for the lifetime
     * contract.
     */
    Arena &arena() { return arena_; }

    /** Schedule a callback @p after from now; returns a cancel id. */
    EventId
    schedule(SimTime after, InlineCallback fn)
    {
        const EventId id = events_.schedule(now_ + after, std::move(fn));
        noteScheduled();
        return id;
    }

    /** Cancel an event scheduled via schedule(). */
    bool
    cancel(EventId id)
    {
        if (log_) {
            const std::uint64_t seq = events_.seqOfEvent(id);
            const bool cancelled = events_.cancel(id);
            if (cancelled && seq != 0)
                log_->dropScheduled(seq);
            return cancelled;
        }
        return events_.cancel(id);
    }

    /**
     * Per-simulation recycler of coroutine frames: frames created while
     * this simulation runs (run, runUntil, step, spawn) draw from it;
     * see task.hh for the lifetime rules.
     */
    const FramePool &framePool() const { return frames_; }

    /** Start a root task; its frame self-destroys when it completes. */
    void
    spawn(Task<> task)
    {
        FramePool::Scope active(frames_);
        task.detachAndStart();
    }

    /** Awaitable that suspends the caller for @p amount of sim time. */
    auto
    delay(SimTime amount)
    {
        struct Awaiter
        {
            Simulation *sim;
            SimTime amount;

            bool await_ready() const noexcept { return false; }

            void
            await_suspend(std::coroutine_handle<> h)
            {
                // Fast path: the handle is stored directly in the
                // event slot — no closure, no allocation.
                sim->events_.schedule(sim->now_ + amount, h);
                sim->noteScheduled();
            }

            void await_resume() const noexcept {}
        };
        MOLECULE_ASSERT(amount >= SimTime(0),
                        "negative delay %lld ns",
                        static_cast<long long>(amount.raw()));
        return Awaiter{this, amount};
    }

    /** Resume @p h at the current instant, ordered behind pending work. */
    void
    scheduleResume(std::coroutine_handle<> h)
    {
        events_.schedule(now_, h);
        noteScheduled();
    }

    /**
     * Resume every handle in @p hs at the current instant, in array
     * order (consecutive sequence numbers — identical firing order to
     * calling scheduleResume in a loop, minus the per-call overhead).
     */
    void
    scheduleResumeBatch(std::span<const std::coroutine_handle<>> hs)
    {
        events_.scheduleBatch(now_, hs);
        noteScheduledBatch(hs.size());
    }

    /**
     * Schedule a batch of callbacks; each entry's `when` is a delay
     * relative to now (rewritten in place to the absolute time).
     * Entries fire in array order at equal timestamps.
     */
    void
    scheduleBatch(std::span<BatchEvent> events)
    {
        for (BatchEvent &e : events) {
            MOLECULE_ASSERT(e.when >= SimTime(0),
                            "negative batch delay %lld ns",
                            static_cast<long long>(e.when.raw()));
            e.when = now_ + e.when;
        }
        events_.scheduleBatch(events);
        noteScheduledBatch(events.size());
    }

    /** Run until the event set drains. @return final simulated time. */
    SimTime run();

    /** Run until the clock would pass @p deadline (absolute). */
    SimTime runUntil(SimTime deadline);

    /** Fire exactly one event if present. @retval false queue was empty. */
    bool step();

    /** Number of pending events (diagnostics). */
    std::size_t pendingEvents() const { return events_.size(); }

    /** Events scheduled so far, cancelled ones included: the queue's
     * schedule sequence, so a delta across a run is an exact event
     * count that costs the per-event path nothing. */
    std::uint64_t eventsScheduled() const
    {
        return events_.lastScheduledSeq();
    }

    /** @name Sim-time conflict detector (see sim/analysis.hh) */
    ///@{

    /**
     * Start recording Tracked<T> accesses into a fresh AccessLog.
     * Events already pending when tracking starts are treated as
     * same-instant scheduled (never reported).
     */
    void
    enableConflictTracking(
        std::size_t capacity = analysis::AccessLog::kDefaultCapacity)
    {
        log_ = std::make_unique<analysis::AccessLog>(capacity);
    }

    void stopConflictTracking() { log_.reset(); }

    /** The access log, or nullptr when tracking is off. */
    analysis::AccessLog *accessLog() { return log_.get(); }
    ///@}

  private:
    /** Tell the detector about the event the queue just accepted. */
    void
    noteScheduled()
    {
        if (log_)
            log_->noteScheduled(events_.lastScheduledSeq(), now_.raw());
    }

    /** Tell the detector about the last @p n batch-accepted events. */
    void
    noteScheduledBatch(std::size_t n)
    {
        if (log_ && n > 0) {
            const std::uint64_t last = events_.lastScheduledSeq();
            for (std::size_t i = 0; i < n; ++i)
                log_->noteScheduled(last - n + 1 + i, now_.raw());
        }
    }

    /** First member, so it outlives every queued callback that may
     * still own a pooled frame. */
    FramePool frames_;
    EventQueue events_;
    SimTime now_{0};
    Rng rng_;
    Arena arena_;
    std::unique_ptr<analysis::AccessLog> log_;
};

} // namespace molecule::sim

#endif // MOLECULE_SIM_SIMULATION_HH
