/**
 * @file
 * Crash & restart recovery across the whole stack.
 *
 * The RecoveryManager is the runtime's fault::Listener: when the
 * injector crashes a PU it purges the layers that lost state (runc
 * instances, local OS processes and fifos, the XPU-Shim replica and
 * the keep-alive pools, whose purge also drops the DAG engine's chain
 * fabric through StartupManager's InstanceListener; an OOM kill purges
 * the same way); when the PU restarts it re-synchronizes the
 * capability replica from a live peer and re-warms the cfork
 * templates and container pools — both as traced simulation tasks
 * ("recovery.resync", "recovery.rewarm") so trace reports can show
 * the recovery timeline next to the fault that caused it.
 */

#ifndef MOLECULE_CORE_RECOVERY_HH
#define MOLECULE_CORE_RECOVERY_HH

#include "core/startup.hh"
#include "fault/state.hh"

namespace molecule::core {

/**
 * Stack-wide fault reactions for one Molecule runtime.
 */
class RecoveryManager : public fault::Listener
{
  public:
    RecoveryManager(Deployment &dep, StartupManager &startup,
                    obs::Tracer *tracer)
        : dep_(dep), startup_(startup), tracer_(tracer)
    {}

    /** @name fault::Listener */
    ///@{

    /** Synchronous teardown of everything the crash destroyed. */
    void onPuCrash(int pu) override;

    /** Spawns the resync + rewarm recovery task. */
    void onPuRestart(int pu) override;

    /** Kills the function's instances; typed errors surface later. */
    void onSandboxOom(int pu, const std::string &funcId) override;
    ///@}

    /** Crashes processed so far (tests). */
    int crashesHandled() const { return crashes_; }

    /** Restarts processed so far (tests). */
    int restartsHandled() const { return restarts_; }

  private:
    /** Restart recovery: capability resync, then template re-warm. */
    static sim::Task<> recoverTask(RecoveryManager *self, int pu);

    Deployment &dep_;
    StartupManager &startup_;
    obs::Tracer *tracer_;
    int crashes_ = 0;
    int restarts_ = 0;
};

} // namespace molecule::core

#endif // MOLECULE_CORE_RECOVERY_HH
