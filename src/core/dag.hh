/**
 * @file
 * Function-DAG execution (§4.3).
 *
 * Molecule's "direct connect": every function instance owns a
 * self-FIFO named by a globally unique UUID; the runtime injects the
 * caller/callee UUIDs per request so instances write each other's
 * FIFOs directly — a LocalFifo on the same PU, an XPU-FIFO (nIPC)
 * across PUs. The baseline (Molecule-homo, like OpenWhisk's runtimes)
 * runs an Express/Flask HTTP server in each instance and ships
 * messages over localhost HTTP.
 *
 * The nIPC fabric lives as long as the instances it belongs to, not as
 * long as one chain:
 *  - the first chain that uses an instance gives it its fabric: an
 *    XpuClient, the self-FIFO "self/<instance id>" (xfifo_init, one
 *    immediate broadcast) and a LocalFifo beside it;
 *  - the first chain that needs a cross-PU edge from a writer (an
 *    instance, or the gateway process of the manager PU) into a
 *    reader grants and connects it once (two more XPUcalls, one
 *    broadcast); the writer keeps the fd, keyed by the reader's FIFO;
 *  - the gateway process is spawned once per manager PU;
 *  - a warm chain on wired instances pays only its per-edge
 *    xfifo_write/xfifo_read (or LocalFifo write/read) — no broadcast.
 * The fabric is released exactly when its instance dies, through the
 * StartupManager's InstanceListener seam: keep-alive eviction, an OOM
 * purge and a PU crash. Release never delays the chain or invocation
 * that caused it: the owner's and the writers' xfifo_close calls run
 * in a task of their own, and on a crashed PU the fabric is forgotten
 * without charging the dead shim. A chain that fails drops the fabric
 * of its dead instances and of anything it left half-wired; a live
 * instance keeps its fabric, since every message a chain writes is
 * read in the same edge and nothing stays queued.
 *
 * The engine measures per-edge latency (parent execution end to child
 * execution start, the Fig 12 quantity) and end-to-end chain latency
 * (Fig 14-e), and drives FPGA chains with and without the DRAM
 * data-retention zero-copy optimization (Fig 13).
 */

#ifndef MOLECULE_CORE_DAG_HH
#define MOLECULE_CORE_DAG_HH

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/startup.hh"
#include "obs/records.hh"
#include "sim/sync.hh"

namespace molecule::core {

/** One DAG node: function + parent (index into the node list). */
struct ChainNode
{
    std::string fn;
    int parent = -1; // -1: root (fed by the gateway)
};

/** A function chain/DAG in topological order. */
struct ChainSpec
{
    std::string name;
    std::vector<ChainNode> nodes;

    /** Build a linear chain fn0 -> fn1 -> ... */
    static ChainSpec linear(const std::string &name,
                            const std::vector<std::string> &fns);

    /** The Alexa skill DAG (Fig 12): front -> interact -> smarthome
     * -> {door, light}, over workloads::Catalog::alexaChain(). */
    static ChainSpec alexa();

    std::size_t
    edgeCount() const
    {
        std::size_t n = 0;
        for (const auto &node : nodes)
            n += node.parent >= 0 ? 1 : 0;
        return n;
    }
};

/** Inter-function communication flavor. */
enum class DagCommMode {
    /** Express/Flask HTTP through the local network stack. */
    BaselineHttp,
    /** Direct-connect FIFOs; nIPC across PUs. */
    MoleculeIpc,
};

/**
 * Chain executor over a deployment. Owns the nIPC fabric of every
 * instance a chain has used (see the file comment).
 */
class DagEngine : public InstanceListener
{
  public:
    DagEngine(Deployment &dep, StartupManager &startup,
              const FunctionRegistry &registry);

    ~DagEngine() override;

    DagEngine(const DagEngine &) = delete;
    DagEngine &operator=(const DagEngine &) = delete;

    /**
     * Run @p spec once with @p placement (PU per node). Bad input, a
     * failed acquisition, an instance or PU lost mid-chain and any
     * failed XPUcall or execution come back as a typed Error; live
     * instances still go back to keep-alive.
     *
     * @param mode communication flavor
     * @param prewarm acquire all instances and wire them before timing
     *        starts (Fig 12 / Fig 14-e pre-boot instances)
     * @param managerPu PU hosting the Molecule runtime / gateway
     */
    sim::Task<Expected<obs::ChainRecord>>
    run(const ChainSpec &spec, const std::vector<int> &placement,
        DagCommMode mode, bool prewarm, int managerPu = 0,
        obs::SpanContext ctx = {});

    /**
     * Run a linear chain of FPGA functions on one card (Fig 13).
     * With @p shmOptimization, intermediate results stay in the
     * FPGA-attached DRAM (data retention); otherwise every hop copies
     * through host memory (two DMA crossings). An unknown card or
     * function and a failed image composition come back typed.
     */
    sim::Task<Expected<obs::ChainRecord>> runFpgaChain(
        const std::vector<std::string> &fns, int fpgaIndex,
        bool shmOptimization, std::uint64_t messageBytes,
        obs::SpanContext ctx = {});

    /** Drops the fabric of every dead instance on @p pu. */
    void onInstancesGone(int pu) override;

    /** Live fabric entries, gateways included (tests). */
    std::size_t fabricCount() const { return fabrics_.size(); }

    /** The nIPC plumbing of one instance or gateway (dag.cc). */
    struct Fabric;

  private:
    using FabricPtr = std::shared_ptr<Fabric>;

    /** The manager PU's gateway fabric, spawned on first use. */
    sim::Task<Expected<FabricPtr>> gatewayOn(int managerPu,
                                             obs::SpanContext ctx);

    /** The fabric of @p inst on @p pu; a new one is not wired yet. */
    FabricPtr fabricOf(const sandbox::Instance &inst, int pu);

    /** True while @p fab's owner process is alive. */
    bool ownerAlive(const Fabric &fab);

    /**
     * Take @p fab (already out of fabrics_) out of service: forget
     * every fd into its FIFO and close what lives on an up PU in a
     * task of its own, then drop its LocalFifo.
     */
    void retire(const FabricPtr &fab);

    /** Retire @p fab now, unless a chain holds it (then at its end). */
    void drop(const FabricPtr &fab);

    Deployment &dep_;
    StartupManager &startup_;
    const FunctionRegistry &registry_;
    /** Live fabric by owner: sandbox id, or "gateway@<pu>". */
    std::map<std::string, FabricPtr, std::less<>> fabrics_;
    /** One gateway spawn at a time (concurrent first chains); made by
     * the first chain, so chain-free runtimes allocate nothing here. */
    std::unique_ptr<sim::Semaphore> gatewayLock_;
};

} // namespace molecule::core

#endif // MOLECULE_CORE_DAG_HH
