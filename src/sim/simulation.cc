#include "sim/simulation.hh"

#include <limits>

namespace molecule::sim {

namespace {

/**
 * Events fired per drain() call before run() re-checks for exit. Large
 * enough to amortize the call, small enough that an interactive
 * watcher (runUntil deadline checks) stays responsive.
 */
constexpr std::size_t kDrainChunk = 1024;

} // namespace

SimTime
Simulation::run()
{
    FramePool::Scope active(frames_);
    // The conflict detector needs the per-event begin/scope hooks that
    // step() installs, so tracked runs take the slow path.
    if (log_) {
        while (step()) {
        }
        return now_;
    }
    const SimTime forever(std::numeric_limits<std::int64_t>::max());
    while (events_.drain(now_, forever, kDrainChunk) > 0) {
    }
    return now_;
}

SimTime
Simulation::runUntil(SimTime deadline)
{
    FramePool::Scope active(frames_);
    if (log_) {
        while (!events_.empty() && events_.nextTime() <= deadline)
            step();
        if (now_ < deadline)
            now_ = deadline;
        return now_;
    }
    while (events_.drain(now_, deadline, kDrainChunk) > 0) {
    }
    if (now_ < deadline)
        now_ = deadline;
    return now_;
}

bool
Simulation::step()
{
    if (events_.empty())
        return false;
    FramePool::Scope active(frames_);
    // Advance the clock *before* running the callback so resumed
    // coroutines observe the firing time.
    now_ = events_.nextTime();
    if (log_) {
        log_->beginEvent(now_.raw(), events_.nextEventSeq());
        // Install the log for the duration of the callback so
        // Tracked<T> accesses anywhere in the model attribute to this
        // event; restored before returning (Scope nests for recursive
        // run() calls).
        analysis::AccessLog::Scope scope(log_.get());
        events_.fireNext();
        return true;
    }
    events_.fireNext();
    return true;
}

} // namespace molecule::sim
