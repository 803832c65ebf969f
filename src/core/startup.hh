/**
 * @file
 * Instance lifecycle: cold/warm starts, cfork templates, keep-alive
 * caching and FPGA image composition (§4.2).
 *
 * A request is served by a *warm* instance when the keep-alive cache
 * holds one; otherwise the startup manager cold-starts one — via cfork
 * from the PU's template when enabled (Molecule), or via the baseline
 * container boot (Molecule-homo). Cross-PU starts add the nIPC command
 * round-trip to the target PU's executor (launched through xSpawn at
 * bootstrap), which is the +1-3 ms of Fig 10's cfork-XPU bars.
 *
 * Keep-alive eviction order is delegated to a swappable
 * KeepAliveStrategy (see keepalive.hh): plain LRU or a FaasCache-style
 * greedy-dual priority (clock + freq x cost / size). The manager owns
 * the pools and the eviction mechanics; the strategy owns the order.
 */

#ifndef MOLECULE_CORE_STARTUP_HH
#define MOLECULE_CORE_STARTUP_HH

#include <deque>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "core/deployment.hh"
#include "core/function.hh"
#include "core/keepalive.hh"
#include "core/status.hh"
#include "obs/trace.hh"
#include "sim/stats.hh"

namespace molecule::core {

/** Startup configuration knobs. */
struct StartupOptions
{
    /** Use cfork templates (false = Molecule-homo baseline). */
    bool useCfork = true;
    sandbox::StartupPath cforkPath = sandbox::StartupPath::CforkCpusetOpt;
    /** Warm instances kept per (function, PU). */
    std::size_t warmCapacity = 256;
    /**
     * When non-zero, warm instances additionally compete for a global
     * per-PU budget across functions: the eviction policy then
     * genuinely matters (FaasCache-style greedy-dual keeps
     * expensive-to-boot functions warm over popular cheap ones).
     */
    std::size_t globalWarmCapacityPerPu = 0;
    /** Eviction-order strategy selection (see keepalive.hh). */
    KeepAliveConfig keepAlive;
};

/** Result of acquiring a CPU/DPU instance. */
struct AcquiredInstance
{
    sandbox::Instance *instance = nullptr;
    int pu = -1;
    bool cold = false;
    sim::SimTime startupTime;
};

/** Result of acquiring an FPGA sandbox. */
struct AcquiredFpga
{
    std::string sandboxId;
    int fpgaIndex = -1;
    bool cold = false;
    sim::SimTime startupTime;
};

/**
 * Told when the StartupManager lets instances go for good, so state
 * kept elsewhere per instance (the DAG engine's nIPC fabric) goes with
 * them. Called synchronously; must neither suspend nor charge time.
 */
class InstanceListener
{
  public:
    virtual ~InstanceListener() = default;

    /**
     * Instances on @p pu died: a keep-alive eviction destroyed one, an
     * OOM kill or a crash of @p pu killed some. The listener tells the
     * dead ones apart through the PU's runc (find() / dead).
     */
    virtual void onInstancesGone(int pu) = 0;
};

/**
 * Startup manager for one deployment.
 */
class StartupManager
{
  public:
    StartupManager(Deployment &dep, const FunctionRegistry &registry,
                   StartupOptions options);

    const StartupOptions &options() const { return options_; }

    /**
     * Launch executors on every non-manager PU (xSpawn), prepare cfork
     * templates for @p languages on every general PU and pre-warm the
     * function-container pools.
     */
    sim::Task<> bootstrap(int managerPu);

    /**
     * Get a running instance of @p fn on @p pu: warm hit from the
     * keep-alive cache, or a cold start (cfork / baseline). A start
     * issued from a different PU pays the executor command round-trip.
     */
    sim::Task<AcquiredInstance> acquire(const FunctionDef &fn, int pu,
                                        int managerPu,
                                        obs::SpanContext ctx = {});

    /** Return an instance to the keep-alive cache (may evict). */
    sim::Task<> release(const FunctionDef &fn, AcquiredInstance inst);

    /**
     * Pre-declare the hot set of FPGA functions (keep-alive decision,
     * §4.2): the next composition packs them all into one image.
     */
    void setFpgaHotSet(int fpgaIndex, std::vector<std::string> funcIds);

    /**
     * Get a dispatchable FPGA sandbox for @p fn: warm-sandbox hit,
     * cached-instance start, or a full image (re)composition. Typed
     * failures surface composition errors (NoCapacity) and injected
     * reconfiguration failures (FpgaReconfigFailed) for retry.
     */
    sim::Task<Expected<AcquiredFpga>>
    acquireFpga(const FunctionDef &fn, int fpgaIndex,
                obs::SpanContext ctx = {});

    /**
     * Get a dispatchable GPU sandbox (§6.8): GPUs keep many modules
     * resident concurrently, so a cold acquire just loads the module.
     */
    sim::Task<AcquiredFpga> acquireGpu(const FunctionDef &fn,
                                       int gpuIndex,
                                       obs::SpanContext ctx = {});

    /** Tell @p listener (null: nobody) when instances die. */
    void setInstanceListener(InstanceListener *listener)
    {
        listener_ = listener;
    }

    /** @name Fault recovery (driven by core::RecoveryManager) */
    ///@{

    /** Drop every warm-pool entry on @p pu (its instances died). */
    void purgePu(int pu);

    /** Drop the warm pool of (@p fn, @p pu) after an OOM kill. */
    void purgeFunction(std::string_view fn, int pu);

    /**
     * Re-warm a restarted PU: re-prepare the cfork templates and the
     * pre-initialized container pool that the reboot destroyed.
     */
    sim::Task<> rewarmPu(int pu, obs::SpanContext ctx = {});
    ///@}

    /** Warm-pool depth for (fn, pu) (placement views, tests). */
    std::size_t warmCount(std::string_view fn, int pu) const;

    /** Total cold starts performed (stats). */
    std::int64_t coldStarts() const { return coldStarts_; }

    /** Total warm hits served (stats). */
    std::int64_t warmHits() const { return warmHits_; }

    /** @name Keep-alive strategy */
    ///@{

    /** Swap the eviction strategy (null resets to the configured
     * KeepAliveConfig). Swapping mid-run is allowed; entries keep
     * their stamped park priorities. */
    void installKeepAlive(std::unique_ptr<KeepAliveStrategy> strategy);

    KeepAliveStrategy &keepAlive() { return *strategy_; }

    const KeepAliveStrategy &keepAlive() const { return *strategy_; }

    /** Keep-alive evictions performed so far. */
    std::int64_t evictions() const { return evictions_; }

    /**
     * Order-sensitive digest of every eviction (sandbox id, PU,
     * ordinal): bit-identical across replays of the same scenario —
     * the per-strategy golden the determinism suite pins.
     */
    std::uint64_t evictionDigest() const { return evictFp_.digest(); }
    ///@}

  private:
    struct WarmEntry
    {
        std::string sandboxId;
        sim::SimTime lastUsed;
        std::int64_t freq = 1;
        /** Cold-start cost estimate in ms (greedy-dual numerator). */
        double costMs = 1.0;
        /** Memory size in MB (greedy-dual denominator). */
        double sizeMb = 1.0;
        /** Strategy priority stamped at park time. */
        double parkPriority = 0.0;
    };

    /** Charge the manager->executor command round-trip over nIPC. */
    sim::Task<> commandRoundTrip(int managerPu, int targetPu,
                                 obs::SpanContext ctx);

    /** Evict until the pool for @p key fits the capacity. */
    sim::Task<> evictIfNeeded(const PoolKey &key);

    /** Evict across all of @p pu's pools until the global budget fits. */
    sim::Task<> evictGlobal(int pu);

    std::size_t warmTotalOn(int pu) const;

    /** Strategy view of one parked entry. */
    WarmEntryView entryView(const PoolKey &key,
                            const WarmEntry &entry) const;

    /** Record one eviction (digest + counters + strategy feedback). */
    void noteEviction(const PoolKey &key, const WarmEntry &victim);

    Deployment &dep_;
    const FunctionRegistry &registry_;
    StartupOptions options_;
    std::unique_ptr<KeepAliveStrategy> strategy_;
    InstanceListener *listener_ = nullptr;
    std::map<PoolKey, std::deque<WarmEntry>> warmPools_;
    std::map<int, std::vector<std::string>> fpgaHotSets_;
    /** Deployable CUDA images synthesized per GPU function. */
    sandbox::FunctionImage *gpuImage(const FunctionDef &fn);

    std::map<std::string, std::unique_ptr<sandbox::FunctionImage>>
        gpuImages_;
    /** Measured cold-start cost per (fn, PU), ms (greedy-dual). */
    std::map<PoolKey, double> knownColdMs_;
    /** Invocation frequency per (fn, PU) (greedy-dual). */
    std::map<PoolKey, std::int64_t> freq_;
    std::int64_t coldStarts_ = 0;
    std::int64_t warmHits_ = 0;
    std::int64_t evictions_ = 0;
    sim::Fingerprint evictFp_;
    std::uint64_t nextSandboxId_ = 0;
    bool bootstrapped_ = false;
};

} // namespace molecule::core

#endif // MOLECULE_CORE_STARTUP_HH
