/**
 * @file
 * The Molecule serverless runtime (public API).
 *
 * Ties the whole stack together on one heterogeneous computer: the
 * deployment (OSes, shims, sandbox runtimes), the function registry,
 * the startup manager (cfork + keep-alive), the scheduler and the DAG
 * engine. Two configuration axes reproduce the paper's baselines:
 *
 *  - Molecule        : cfork startup + IPC/nIPC DAG communication;
 *  - Molecule-homo   : cold-boot startup + Express/Flask HTTP DAG,
 *                      single-PU only (no XPU-Shim use).
 *
 * Invocation outcomes are typed: every invoke returns
 * `core::Expected<obs::InvocationRecord>` so injected faults (PU
 * crashes, OOM kills, FPGA reconfiguration failures) and bad caller
 * input surface as `core::Error` chains instead of asserts. CPU/DPU,
 * FPGA and GPU invocations share one attempt loop, so deadlines and
 * retry-with-backoff (per InvokeOptions) mean the same on every kind.
 *
 * @code
 *   sim::Simulation s;
 *   auto computer = hw::buildCpuDpuServer(s, 2, hw::DpuGeneration::Bf1);
 *   core::Molecule runtime(*computer, core::MoleculeOptions{});
 *   runtime.registerCpuFunction("helloworld",
 *                               {hw::PuType::HostCpu, hw::PuType::Dpu});
 *   runtime.start();
 *   auto record = runtime.runSync(runtime.invoke("helloworld"));
 *   if (record.ok())
 *       use(record.value().endToEnd);
 * @endcode
 */

#ifndef MOLECULE_CORE_MOLECULE_HH
#define MOLECULE_CORE_MOLECULE_HH

#include <memory>
#include <vector>

#include "core/dag.hh"
#include "core/recovery.hh"
#include "core/scheduler.hh"
#include "core/startup.hh"
#include "core/status.hh"
#include "fault/state.hh"
#include "obs/trace.hh"
#include "sim/sync.hh"
#include "workloads/catalog.hh"

namespace molecule::core {

/** Top-level configuration. */
struct MoleculeOptions
{
    StartupOptions startup;
    /** Placement strategy selection (see placement.hh). */
    PlacementConfig placement;
    DagCommMode dagMode = DagCommMode::MoleculeIpc;
    /** PU hosting the Molecule runtime process (Figure 6). */
    int managerPu = 0;
    /**
     * Span collector for this runtime's invocations (obs subsystem).
     * Null (the default) disables tracing with zero model impact.
     * Must outlive the Molecule and belong to the same Simulation.
     */
    obs::Tracer *tracer = nullptr;
    /**
     * Shared fault state driven by a fault::Injector. Null (the
     * default) runs fault-free with zero model impact; when set, the
     * runtime registers its RecoveryManager as a listener and every
     * layer consults the state (down PUs, degraded links, armed
     * reconfiguration failures). Must outlive the Molecule.
     */
    fault::FaultState *faults = nullptr;

    /** The homogeneous baseline configuration of §6. */
    static MoleculeOptions
    homo()
    {
        MoleculeOptions o;
        o.startup.useCfork = false;
        o.dagMode = DagCommMode::BaselineHttp;
        return o;
    }
};

/**
 * Per-invocation resilience knobs (§ fault injection & recovery).
 * Every attempt after the first waits a fixed 5 ms of sim time.
 */
struct InvokeOptions
{
    /** Explicit CPU/DPU placement; -1 lets the scheduler pick. */
    int pu = -1;
    /**
     * End-to-end sim-time budget, checked at each attempt's admission
     * and again before execution; zero disables. Exceeding it returns
     * DeadlineExceeded (never retried — the budget is gone).
     */
    sim::SimTime deadline{};
    /** Total attempts (1 = no retry). */
    int maxAttempts = 1;
    /** Allow CPU/DPU retries to fail over to another allowed PU. */
    bool failover = true;
};

/**
 * One Molecule worker runtime.
 */
class Molecule
{
  public:
    Molecule(hw::Computer &computer, MoleculeOptions options);

    ~Molecule();

    /** @name Sub-systems */
    ///@{
    Deployment &deployment() { return *dep_; }

    FunctionRegistry &registry() { return registry_; }

    StartupManager &startup() { return *startup_; }

    Scheduler &scheduler() { return *scheduler_; }

    DagEngine &dag() { return *dag_; }

    workloads::Catalog &catalog() { return catalog_; }

    sim::Simulation &simulation() { return computer_.simulation(); }

    const MoleculeOptions &options() const { return options_; }

    /** Recovery listener; null when no fault state is attached. */
    RecoveryManager *recovery() { return recovery_.get(); }
    ///@}

    /** @name Function registration */
    ///@{

    /**
     * Register a CPU/DPU function from the workload catalog under its
     * catalog name, allowed on @p kinds (DPU cheaper than CPU).
     */
    void registerCpuFunction(const std::string &name,
                             const std::vector<hw::PuType> &kinds);

    /** Register an FPGA function from the catalog. */
    void registerFpgaFunction(const std::string &name,
                              std::uint64_t units = 1);

    /** Register a GPU (CUDA) function with a kernel-time model. */
    void registerGpuFunction(const std::string &name,
                             sim::SimTime kernelTime,
                             std::uint64_t ioBytes = 1 << 20);
    ///@}

    /**
     * Boot the platform: executors on every PU (xSpawn), cfork
     * templates, container pools. Runs the simulation to completion.
     */
    void start();

    /** @name Invocation */
    ///@{

    /**
     * One CPU/DPU invocation. A retry runs the whole admission/
     * startup/comm/exec pipeline again; with failover enabled it
     * excludes every PU a previous attempt failed on. On exhaustion
     * the RetriesExhausted error carries the last cause, the retry
     * count and the PUs tried.
     */
    [[nodiscard]] sim::Task<Expected<obs::InvocationRecord>>
    invoke(const std::string &fn, const InvokeOptions &opts = {})
    {
        return run(fn, Target{Target::Cpu}, opts);
    }

    /**
     * One invocation on FPGA card @p fpgaIndex with @p units of input.
     * Injected reconfiguration failures surface as FpgaReconfigFailed;
     * retries stay on the same card (the faults are transient and
     * count-limited). Concurrent callers of one card run in turn.
     */
    [[nodiscard]] sim::Task<Expected<obs::InvocationRecord>>
    invokeFpga(const std::string &fn, int fpgaIndex, std::uint64_t units,
               const InvokeOptions &opts = {})
    {
        return run(fn, Target{Target::Fpga, fpgaIndex, units}, opts);
    }

    /** One invocation on GPU @p gpuIndex (§6.8 generality path). */
    [[nodiscard]] sim::Task<Expected<obs::InvocationRecord>>
    invokeGpu(const std::string &fn, int gpuIndex,
              const InvokeOptions &opts = {})
    {
        return run(fn, Target{Target::Gpu, gpuIndex}, opts);
    }

    /**
     * Run a chain; empty placement lets the scheduler place it. Bad
     * input, a down PU and every fault mid-chain come back as a typed
     * Error (DagEngine::run); there is no retry.
     */
    [[nodiscard]] sim::Task<Expected<obs::ChainRecord>>
    invokeChain(const ChainSpec &spec, std::vector<int> placement = {},
                bool prewarm = true);

    /**
     * Run the simulation until @p task completes; Errc::Hang if it
     * drains first (some fault left the task blocked forever). Build
     * the task in the same expression, `runSync(invoke("fn"))`, so the
     * arguments it refers to outlive it.
     */
    template <typename T>
    [[nodiscard]] Expected<T>
    runSync(sim::Task<Expected<T>> task)
    {
        Expected<T> out(Errc::Hang, "task pending when the simulation drained");
        auto drive = [](sim::Task<Expected<T>> *t,
                        Expected<T> *slot) -> sim::Task<> {
            *slot = co_await std::move(*t);
        };
        simulation().spawn(drive(&task, &out));
        simulation().run();
        return out;
    }
    ///@}

  private:
    /** The device kind (and FPGA/GPU index) an invocation targets. */
    struct Target
    {
        enum Kind : std::uint8_t { Cpu, Fpga, Gpu } kind;
        int device = 0;
        std::uint64_t fpgaUnits = 0;
    };

    /** One attempt's inputs (molecule.cc). */
    struct Attempt;

    /**
     * The attempt loop behind every entry point: lookup and input
     * checks, the root span, deadline, retry with backoff, the
     * tried-PU list, the error shape and the keep-alive release.
     */
    [[nodiscard]] sim::Task<Expected<obs::InvocationRecord>>
    run(const std::string &fn, Target target, const InvokeOptions &opts);

    /** Host PU of @p target, or InvalidArgument if @p def can't run. */
    Expected<int> rootPu(const FunctionDef &def, Target target);

    /** @name One attempt on @p a's kind: acquire, then exec */
    ///@{
    sim::Task<Expected<obs::InvocationRecord>> step(const Attempt &a);
    sim::Task<Expected<obs::InvocationRecord>> cpuStep(Attempt a);
    sim::Task<Expected<obs::InvocationRecord>> fpgaStep(Attempt a);
    sim::Task<Expected<obs::InvocationRecord>> gpuStep(Attempt a);
    ///@}

    hw::Computer &computer_;
    MoleculeOptions options_;
    workloads::Catalog catalog_;
    FunctionRegistry registry_;
    std::unique_ptr<Deployment> dep_;
    std::unique_ptr<StartupManager> startup_;
    std::unique_ptr<Scheduler> scheduler_;
    std::unique_ptr<DagEngine> dag_;
    std::unique_ptr<RecoveryManager> recovery_;
    /** One caller per accelerator at a time (see fpgaStep/gpuStep). */
    std::vector<std::unique_ptr<sim::Semaphore>> fpgaLocks_;
    std::vector<std::unique_ptr<sim::Semaphore>> gpuLocks_;
    bool started_ = false;
};

} // namespace molecule::core

#endif // MOLECULE_CORE_MOLECULE_HH
