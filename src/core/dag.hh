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
 * The engine measures per-edge latency (parent execution end to child
 * execution start, the Fig 12 quantity) and end-to-end chain latency
 * (Fig 14-e), and drives FPGA chains with and without the DRAM
 * data-retention zero-copy optimization (Fig 13).
 */

#ifndef MOLECULE_CORE_DAG_HH
#define MOLECULE_CORE_DAG_HH

#include <string>
#include <vector>

#include "core/startup.hh"
#include "obs/records.hh"

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
 * Chain executor over a deployment.
 */
class DagEngine
{
  public:
    DagEngine(Deployment &dep, StartupManager &startup,
              const FunctionRegistry &registry)
        : dep_(dep), startup_(startup), registry_(registry)
    {}

    /**
     * Run @p spec once with @p placement (PU per node).
     *
     * @param mode communication flavor
     * @param prewarm acquire all instances before timing starts
     *        (Fig 12 / Fig 14-e pre-boot instances)
     * @param managerPu PU hosting the Molecule runtime / gateway
     */
    sim::Task<obs::ChainRecord> run(const ChainSpec &spec,
                                    const std::vector<int> &placement,
                                    DagCommMode mode, bool prewarm,
                                    int managerPu = 0,
                                    obs::SpanContext ctx = {});

    /**
     * Run a linear chain of FPGA functions on one card (Fig 13).
     * With @p shmOptimization, intermediate results stay in the
     * FPGA-attached DRAM (data retention); otherwise every hop copies
     * through host memory (two DMA crossings).
     */
    sim::Task<obs::ChainRecord> runFpgaChain(
        const std::vector<std::string> &fns, int fpgaIndex,
        bool shmOptimization, std::uint64_t messageBytes,
        obs::SpanContext ctx = {});

    /** Per-node communication plumbing (defined in dag.cc). */
    struct Endpoint;

  private:
    Deployment &dep_;
    StartupManager &startup_;
    const FunctionRegistry &registry_;
    std::uint64_t nextUuid_ = 0;
};

} // namespace molecule::core

#endif // MOLECULE_CORE_DAG_HH
