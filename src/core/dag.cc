#include "core/dag.hh"

#include <algorithm>
#include <optional>

#include "hw/calibration.hh"
#include "sim/logging.hh"
#include "workloads/catalog.hh"

namespace molecule::core {

namespace calib = hw::calib;

ChainSpec
ChainSpec::linear(const std::string &name,
                  const std::vector<std::string> &fns)
{
    ChainSpec spec;
    spec.name = name;
    spec.nodes.reserve(fns.size());
    for (std::size_t i = 0; i < fns.size(); ++i)
        spec.nodes.push_back(ChainNode{fns[i], int(i) - 1});
    return spec;
}

ChainSpec
ChainSpec::alexa()
{
    const auto fns = workloads::Catalog::alexaChain();
    return ChainSpec{"alexa",
                     {ChainNode{fns[0], -1}, ChainNode{fns[1], 0},
                      ChainNode{fns[2], 1}, ChainNode{fns[3], 2},
                      ChainNode{fns[4], 2}}};
}

/** nIPC plumbing owned by one instance, or by a manager PU's gateway. */
struct DagEngine::Fabric
{
    /** Key in fabrics_: the sandbox id, or "gateway@<pu>". */
    std::string owner;
    int pu = -1;
    /** The gateway process has no self-FIFO; it only writes. */
    bool gateway = false;
    /** Global UUID of the self XPU-FIFO; the LocalFifo is uuid/local. */
    std::string uuid;
    /** Direct-connect local FIFO (same-PU edges into this owner). */
    os::LocalFifo *localFifo = nullptr;
    std::unique_ptr<xpu::XpuClient> client;
    xpu::XpuFd selfFd = -1;
    xpu::ObjId selfObj = 0;
    /** Connected writer fds, by the reader FIFO's object. */
    std::vector<std::pair<xpu::ObjId, xpu::XpuFd>> writers;
    /** A chain holds the instance: retiring waits for its end. */
    bool busy = false;
    /** Out of fabrics_ while busy; the holding chain retires it. */
    bool retired = false;
    /** Its PU crashed: retire forgets, never closes. */
    bool lost = false;

    xpu::XpuFd
    writerFd(xpu::ObjId reader) const
    {
        for (const auto &[obj, fd] : writers)
            if (obj == reader)
                return fd;
        return -1;
    }
};

namespace {

using Fabric = DagEngine::Fabric;

/** Per-node state of one chain execution. */
struct Endpoint
{
    const FunctionDef *def = nullptr;
    AcquiredInstance acq;
    int pu = -1;
    std::shared_ptr<Fabric> fab;
    sim::SimTime edgeLatency; // the entry edge for the root
    sim::SimTime execEnd;
};

/** Everything one chain execution shares. */
struct RunContext
{
    Deployment *dep = nullptr;
    const ChainSpec *spec = nullptr;
    DagCommMode mode = DagCommMode::MoleculeIpc;
    int managerPu = 0;
    /** Causal root for every span of this chain execution. */
    obs::SpanContext trace;
    std::vector<Endpoint> eps;
    /** Writer of the entry edge. */
    std::shared_ptr<Fabric> gateway;
    /** First failure: the failed node starts no children, and the
     * chain returns it once every started node is done. */
    std::optional<Error> error;

    void
    fail(const Error &e)
    {
        if (!error)
            error = e;
    }
};

/** Ok while @p ep's instance and PU are alive. */
Status
alive(const Endpoint &ep, Deployment &dep)
{
    const sandbox::Instance *inst = ep.acq.instance;
    if (dep.puDown(ep.pu))
        return Status(Errc::PuCrashed,
                      "chain instance '" + inst->id + "' lost its PU",
                      ep.pu);
    if (inst->dead)
        return Status(inst->deathCause,
                      "chain instance '" + inst->id + "' died", ep.pu);
    return Status();
}

sim::SimTime
dispatchCost(const FunctionDef &def, DagCommMode mode)
{
    const bool node = def.cpuWork->image.language ==
                      sandbox::Language::Node;
    if (mode == DagCommMode::BaselineHttp)
        return node ? calib::kExpressDispatch : calib::kFlaskDispatch;
    return node ? calib::kFifoDispatchNode : calib::kFifoDispatchPython;
}

/**
 * First use of an instance's fabric: its LocalFifo, its XPUcall
 * client and its self XPU-FIFO (xfifo_init: an immediate broadcast).
 */
sim::Task<Status>
initFabric(Deployment &dep, Fabric &fab, os::Process &proc,
           obs::SpanContext ctx)
{
    fab.localFifo = dep.osOn(fab.pu).createFifo(fab.uuid + "/local");
    fab.client = std::make_unique<xpu::XpuClient>(dep.shimOn(fab.pu), proc);
    fab.client->setTraceContext(ctx);
    const Expected<xpu::XpuFd> fd = co_await fab.client->xfifoInit(fab.uuid);
    if (!fd.ok())
        co_return fd.error();
    fab.selfFd = fd.value();
    fab.selfObj = fab.client->objectOf(fab.selfFd);
    co_return Status();
}

/**
 * First cross-PU edge from @p writer into @p reader: the owner grants
 * Write, the writer connects and keeps the fd.
 */
sim::Task<Status>
connect(Fabric &writer, Fabric &reader, obs::SpanContext ctx)
{
    reader.client->setTraceContext(ctx);
    const Status granted = co_await reader.client->grantCap(
        writer.client->xpuPid(), reader.selfObj, xpu::Perm::Write);
    if (!granted.ok())
        co_return granted;
    writer.client->setTraceContext(ctx);
    const Expected<xpu::XpuFd> fd =
        co_await writer.client->xfifoConnect(reader.uuid);
    if (!fd.ok())
        co_return fd.error();
    writer.writers.emplace_back(reader.selfObj, fd.value());
    co_return Status();
}

/** One xfifo_close a retired fabric still owes. */
struct Close
{
    std::shared_ptr<Fabric> by;
    xpu::XpuFd fd;
};

/** Release task: closes run off every chain's critical path. */
sim::Task<>
closeAll(const std::vector<Close> &closes)
{
    const std::vector<Close> owned = closes;
    for (const Close &c : owned) {
        c.by->client->setTraceContext({});
        const Status st = co_await c.by->client->xfifoClose(c.fd);
        (void)st; // a peer reclaimed it first; nothing is left to free
    }
}

/**
 * Move one message from @p fromNode (-1: gateway) into @p toNode's
 * instance, charging the full path of the selected mode.
 */
sim::Task<Status>
edgeTransfer(RunContext *ctx, int fromNode, int toNode,
             obs::SpanContext spanCtx)
{
    auto &to = ctx->eps[std::size_t(toNode)];
    const int fromPu = fromNode < 0
                           ? ctx->managerPu
                           : ctx->eps[std::size_t(fromNode)].pu;
    auto &fromOs = ctx->dep->osOn(fromPu);
    auto &toOs = ctx->dep->osOn(to.pu);
    const std::uint64_t bytes = to.def->cpuWork->msgBytes;

    if (ctx->mode == DagCommMode::BaselineHttp) {
        // HTTP request through both network stacks + the wire.
        co_await fromOs.simulation().delay(
            fromOs.pu().netCost(calib::kHttpEdgeEndpointCost));
        co_await ctx->dep->computer().topology().transfer(fromPu, to.pu,
                                                          bytes,
                                                          spanCtx);
        co_await toOs.simulation().delay(
            toOs.pu().netCost(calib::kHttpEdgeEndpointCost));
    } else {
        // Direct connect: serialize, write the callee's FIFO (local
        // FIFO on the same PU, XPU-FIFO across PUs), deserialize.
        co_await fromOs.simulation().delay(
            fromOs.pu().netCost(calib::kIpcSerializeCost));
        Fabric &reader = *to.fab;
        if (fromPu == to.pu) {
            const os::FifoMessage msg{bytes, "req"};
            co_await reader.localFifo->write(msg);
            const os::FifoMessage got = co_await reader.localFifo->read();
            // A "!"-tagged message is the crash sentinel (fifo.hh).
            if (!got.tag.empty() && got.tag.front() == '!')
                co_return Status(Errc::PuCrashed,
                                 "local fifo read failed: " + got.tag,
                                 to.pu);
        } else {
            Fabric &writer = fromNode < 0
                                 ? *ctx->gateway
                                 : *ctx->eps[std::size_t(fromNode)].fab;
            const xpu::XpuFd fd = writer.writerFd(reader.selfObj);
            const std::string tag = "req";
            writer.client->setTraceContext(ctx->trace);
            const Status wrote =
                co_await writer.client->xfifoWrite(fd, bytes, tag);
            if (!wrote.ok())
                co_return wrote;
            reader.client->setTraceContext(ctx->trace);
            const Expected<os::FifoMessage> got =
                co_await reader.client->xfifoRead(reader.selfFd);
            if (!got.ok())
                co_return got.error();
        }
        co_await toOs.simulation().delay(
            toOs.pu().netCost(calib::kIpcSerializeCost));
    }
    // Receiver-side per-request dispatch (HTTP router vs FIFO loop).
    {
        obs::Span disp(spanCtx, "os.dispatch", obs::Layer::Os, to.pu);
        co_await toOs.simulation().delay(
            toOs.pu().netCost(dispatchCost(*to.def, ctx->mode)));
    }
    co_return Status();
}

/** Execute node @p idx and fan out to its children. */
sim::Task<>
runNode(RunContext *ctx, int idx, sim::SimTime upstreamDone)
{
    auto &ep = ctx->eps[std::size_t(idx)];
    auto &sim = ctx->dep->simulation();
    const int parent = ctx->spec->nodes[std::size_t(idx)].parent;

    // One span per node invocation, parented on the chain root; the
    // edge + dispatch work nests under a "comm" child (Fig 12 path).
    obs::Span span(ctx->trace, "invoke", obs::Layer::Core, ep.pu);
    span.setDetail(ctx->spec->nodes[std::size_t(idx)].fn.c_str());
    {
        obs::Span comm(span.ctx(), "comm", obs::Layer::Core, ep.pu);
        const Status sent =
            co_await edgeTransfer(ctx, parent, idx, comm.ctx());
        if (!sent.ok()) {
            ctx->fail(sent.error());
            co_return;
        }
    }
    ep.edgeLatency = sim.now() - upstreamDone;

    const auto exec = ep.acq.cold
                          ? ep.def->cpuWork->execCost *
                                ep.def->cpuWork->coldExecFactor
                          : ep.def->cpuWork->execCost;
    const Status ran = co_await ctx->dep->runcOn(ep.pu).invoke(
        ep.acq.instance->id, exec, span.ctx());
    if (!ran.ok()) {
        ctx->fail(ran.error());
        co_return;
    }
    ep.execEnd = sim.now();
    span.finish();

    // Children follow their parent in the node list (checkChain).
    const auto &nodes = ctx->spec->nodes;
    std::size_t fanOut = 0;
    for (std::size_t c = std::size_t(idx) + 1; c < nodes.size(); ++c)
        fanOut += nodes[c].parent == idx ? 1 : 0;
    std::vector<sim::Task<>> kids;
    kids.reserve(fanOut);
    for (std::size_t c = std::size_t(idx) + 1; c < nodes.size(); ++c)
        if (nodes[c].parent == idx)
            kids.push_back(runNode(ctx, int(c), sim.now()));
    co_await sim::allOf(sim, std::move(kids));
}

/** Typed check of @p spec and @p placement against @p dep. */
Status
checkChain(const ChainSpec &spec, const std::vector<int> &placement,
           int managerPu, Deployment &dep, const FunctionRegistry &registry)
{
    auto bad = [&](Errc code, const std::string &what) {
        return Status(code, "chain '" + spec.name + "' " + what);
    };
    const std::size_t n = spec.nodes.size();
    if (n == 0)
        return bad(Errc::InvalidArgument, "has no nodes");
    if (placement.size() != n)
        return bad(Errc::InvalidArgument,
                   "has " + std::to_string(n) + " nodes but a placement of " +
                       std::to_string(placement.size()));
    const int pus = int(dep.generalPus().size());
    if (managerPu < 0 || managerPu >= pus)
        return bad(Errc::InvalidArgument,
                   "has no manager PU " + std::to_string(managerPu));
    for (std::size_t i = 0; i < n; ++i) {
        const ChainNode &node = spec.nodes[i];
        const FunctionDef *def = registry.findPtr(node.fn);
        if (def == nullptr)
            return bad(Errc::NotFound, "names unknown function '" +
                                           node.fn + "'");
        if (def->cpuWork == nullptr)
            return bad(Errc::InvalidArgument,
                       "needs a CPU/DPU workload for '" + node.fn + "'");
        if (placement[i] < 0 || placement[i] >= pus)
            return bad(Errc::InvalidArgument,
                       "places node " + std::to_string(i) + " on no PU " +
                           std::to_string(placement[i]));
        // Node 0 is the only root; parents come first.
        if ((i == 0) != (node.parent < 0) || node.parent >= int(i))
            return bad(Errc::InvalidArgument,
                       "gives node " + std::to_string(i) + " parent " +
                           std::to_string(node.parent) +
                           " (nodes must be in topological order under "
                           "root 0)");
    }
    return Status();
}

} // namespace

DagEngine::DagEngine(Deployment &dep, StartupManager &startup,
                     const FunctionRegistry &registry)
    : dep_(dep), startup_(startup), registry_(registry)
{
    startup_.setInstanceListener(this);
}

DagEngine::~DagEngine()
{
    startup_.setInstanceListener(nullptr);
}

bool
DagEngine::ownerAlive(const Fabric &fab)
{
    if (dep_.puDown(fab.pu))
        return false;
    if (fab.gateway)
        return true;
    const sandbox::Instance *inst = dep_.runcOn(fab.pu).find(fab.owner);
    return inst != nullptr && !inst->dead;
}

void
DagEngine::onInstancesGone(int pu)
{
    for (auto it = fabrics_.begin(); it != fabrics_.end();) {
        const FabricPtr fab = it->second;
        ++it; // drop() erases fab's entry, never another one
        if (fab->pu == pu && !ownerAlive(*fab))
            drop(fab);
    }
}

void
DagEngine::drop(const FabricPtr &fab)
{
    auto it = fabrics_.find(fab->owner);
    if (it != fabrics_.end() && it->second == fab)
        fabrics_.erase(it);
    if (!fab->busy) {
        retire(fab);
        return;
    }
    fab->retired = true;
    fab->lost = dep_.puDown(fab->pu);
}

void
DagEngine::retire(const FabricPtr &fab)
{
    // On a crashed PU the owner and its fds died with the shim's state:
    // forget them, charging nothing there.
    const bool up = !fab->lost && !dep_.puDown(fab->pu);
    std::vector<Close> closes;
    if (fab->selfFd >= 0) {
        // Writers into this FIFO close first, so the owner's close is
        // the one that frees the homed queue.
        for (auto &[owner, w] : fabrics_) {
            auto &ws = w->writers;
            const auto at = std::find_if(
                ws.begin(), ws.end(),
                [&](const auto &c) { return c.first == fab->selfObj; });
            if (at == ws.end())
                continue;
            if (up && !dep_.puDown(w->pu))
                closes.push_back(Close{w, at->second});
            ws.erase(at);
        }
    }
    if (up) {
        for (const auto &[obj, fd] : fab->writers)
            closes.push_back(Close{fab, fd});
        if (fab->selfFd >= 0)
            closes.push_back(Close{fab, fab->selfFd});
        if (fab->localFifo != nullptr)
            dep_.osOn(fab->pu).removeFifo(fab->uuid + "/local");
    }
    fab->writers.clear();
    if (!closes.empty())
        dep_.simulation().spawn(closeAll(closes));
}

sim::Task<Expected<DagEngine::FabricPtr>>
DagEngine::gatewayOn(int managerPu, obs::SpanContext ctx)
{
    const std::string key = "gateway@" + std::to_string(managerPu);
    auto it = fabrics_.find(key);
    if (it != fabrics_.end())
        co_return it->second;
    // Concurrent first chains: one spawns, the others find it after.
    if (gatewayLock_ == nullptr)
        gatewayLock_ = std::make_unique<sim::Semaphore>(dep_.simulation(), 1);
    co_await gatewayLock_->acquire();
    sim::SemGuard hold(*gatewayLock_);
    it = fabrics_.find(key);
    if (it != fabrics_.end())
        co_return it->second;
    os::Process *proc = co_await dep_.osOn(managerPu).spawnProcess(
        "molecule-gateway", 1 << 20, ctx);
    if (proc == nullptr)
        co_return Error(Errc::NoMemory, "gateway spawn failed", managerPu);
    if (dep_.puDown(managerPu))
        co_return Error(Errc::PuCrashed, "gateway lost its PU", managerPu);
    auto fab = std::make_shared<Fabric>();
    fab->owner = key;
    fab->pu = managerPu;
    fab->gateway = true;
    fab->client =
        std::make_unique<xpu::XpuClient>(dep_.shimOn(managerPu), *proc);
    fabrics_.emplace(key, fab);
    co_return fab;
}

DagEngine::FabricPtr
DagEngine::fabricOf(const sandbox::Instance &inst, int pu)
{
    auto it = fabrics_.find(inst.id);
    if (it != fabrics_.end())
        return it->second;
    auto fab = std::make_shared<Fabric>();
    fab->owner = inst.id;
    fab->pu = pu;
    fab->uuid = "self/" + inst.id;
    fabrics_.emplace(inst.id, fab);
    return fab;
}

sim::Task<Expected<obs::ChainRecord>>
DagEngine::run(const ChainSpec &spec, const std::vector<int> &placement,
               DagCommMode mode, bool prewarm, int managerPu,
               obs::SpanContext ctx)
{
    const Status valid =
        checkChain(spec, placement, managerPu, dep_, registry_);
    if (!valid.ok())
        co_return valid.error();
    auto &sim = dep_.simulation();
    const std::size_t n = spec.nodes.size();

    RunContext run;
    run.dep = &dep_;
    run.spec = &spec;
    run.mode = mode;
    run.managerPu = managerPu;
    run.trace = ctx;
    run.eps.resize(n);

    const sim::SimTime setupStart = sim.now();

    // Acquire all instances (pre-boot when prewarm).
    for (std::size_t i = 0; i < n && !run.error; ++i) {
        auto &ep = run.eps[i];
        ep.def = registry_.findPtr(spec.nodes[i].fn);
        ep.pu = placement[i];
        ep.acq = co_await startup_.acquire(*ep.def, ep.pu, managerPu, ctx);
        if (ep.acq.instance == nullptr) {
            run.fail(Error(dep_.puDown(ep.pu) ? Errc::PuCrashed
                                              : Errc::NoMemory,
                           "no instance of '" + ep.def->name + "'", ep.pu));
            continue;
        }
        const Status up = alive(ep, dep_);
        if (!up.ok())
            run.fail(up.error());
    }

    // Wire the direct-connect fabric (Molecule mode only): whatever an
    // earlier chain wired is reused, the rest is charged here.
    if (!run.error && mode == DagCommMode::MoleculeIpc) {
        Expected<FabricPtr> gw = co_await gatewayOn(managerPu, ctx);
        if (gw.ok())
            run.gateway = std::move(gw.value());
        else
            run.fail(gw.error());
        for (std::size_t i = 0; i < n && !run.error; ++i) {
            auto &ep = run.eps[i];
            const Status up = alive(ep, dep_);
            if (!up.ok()) {
                run.fail(up.error());
                continue;
            }
            ep.fab = fabricOf(*ep.acq.instance, ep.pu);
            ep.fab->busy = true;
            if (ep.fab->client != nullptr)
                continue;
            const Status wired = co_await initFabric(
                dep_, *ep.fab, *ep.acq.instance->proc, ctx);
            if (!wired.ok())
                run.fail(wired.error());
        }
        // Cross-PU edges (parent -> child, gateway -> root): the owner
        // grants Write and the writer connects, once per pair.
        for (std::size_t i = 0; i < n && !run.error; ++i) {
            auto &child = run.eps[i];
            const int parent = spec.nodes[i].parent;
            const int fromPu =
                parent < 0 ? managerPu : run.eps[std::size_t(parent)].pu;
            Fabric &writer = parent < 0
                                 ? *run.gateway
                                 : *run.eps[std::size_t(parent)].fab;
            if (fromPu == child.pu ||
                writer.writerFd(child.fab->selfObj) >= 0)
                continue;
            const Status linked = co_await connect(writer, *child.fab, ctx);
            if (!linked.ok())
                run.fail(linked.error());
        }
    }

    const sim::SimTime t0 = prewarm ? sim.now() : setupStart;
    if (!run.error)
        co_await runNode(&run, 0, t0);

    obs::ChainRecord record;
    if (!run.error) {
        record.chain = spec.name;
        record.traceId = ctx.trace;
        sim::SimTime finish = t0;
        for (std::size_t i = 0; i < n; ++i)
            finish = std::max(finish, run.eps[i].execEnd);
        record.endToEnd = finish - t0;
        record.edgeLatencies.reserve(n - 1);
        record.invocations.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
            if (spec.nodes[i].parent >= 0)
                record.edgeLatencies.push_back(run.eps[i].edgeLatency);
            obs::InvocationRecord inv;
            inv.function = spec.nodes[i].fn;
            inv.traceId = ctx.trace;
            inv.pu = run.eps[i].pu;
            inv.coldStart = run.eps[i].acq.cold;
            inv.startup = run.eps[i].acq.startupTime;
            inv.communication = run.eps[i].edgeLatency;
            inv.execution = run.eps[i].def->cpuWork->execCost;
            record.invocations.push_back(std::move(inv));
        }
    }

    // Hand live instances back to keep-alive, fabric and all. Every
    // message a chain sends is read in the same edge, so a failed
    // chain leaves nothing queued in a live instance's FIFO; it drops
    // the fabric of its dead instances and whatever it left half-wired.
    for (auto &ep : run.eps) {
        if (ep.fab != nullptr) {
            ep.fab->busy = false;
            if (ep.fab->retired)
                retire(ep.fab);
            else if (run.error &&
                     (ep.fab->selfFd < 0 || !ownerAlive(*ep.fab)))
                drop(ep.fab);
        }
        if (ep.acq.instance != nullptr && alive(ep, dep_).ok())
            co_await startup_.release(*ep.def, ep.acq);
    }
    if (run.error)
        co_return *run.error;
    co_return record;
}

sim::Task<Expected<obs::ChainRecord>>
DagEngine::runFpgaChain(const std::vector<std::string> &fns,
                        int fpgaIndex, bool shmOptimization,
                        std::uint64_t messageBytes, obs::SpanContext ctx)
{
    std::vector<std::string> owned_fns = fns;
    if (fpgaIndex < 0 || std::size_t(fpgaIndex) >= dep_.runfCount())
        co_return Error(Errc::InvalidArgument,
                        "no FPGA " + std::to_string(fpgaIndex));
    std::vector<const FunctionDef *> defs;
    defs.reserve(owned_fns.size());
    for (const auto &fn : owned_fns) {
        const FunctionDef *def = registry_.findPtr(fn);
        if (def == nullptr || def->fpgaWork == nullptr)
            co_return Error(Errc::NotFound,
                            "fpga chain: no FPGA function '" + fn + "'");
        defs.push_back(def);
    }
    auto &sim = dep_.simulation();
    auto &runf = dep_.runf(fpgaIndex);

    // Make the whole chain resident as one vectorized image, then
    // warm every sandbox (pre-boot, as in Fig 13's measurement).
    startup_.setFpgaHotSet(fpgaIndex, owned_fns);
    for (const FunctionDef *def : defs) {
        auto acq = co_await startup_.acquireFpga(*def, fpgaIndex, ctx);
        if (!acq.ok())
            co_return acq.error();
    }

    const sim::SimTime t0 = sim.now();
    obs::ChainRecord record;
    record.chain = "fpga-chain";
    sim::SimTime prevDone = t0;
    for (std::size_t i = 0; i < owned_fns.size(); ++i) {
        const bool zeroIn = shmOptimization && i > 0;
        const bool zeroOut = shmOptimization && i + 1 < owned_fns.size();
        const std::string sandboxId = "fpga/" + owned_fns[i];
        co_await runf.invoke(sandboxId,
                             defs[i]->fpgaWork->kernelTime(messageBytes),
                             messageBytes, messageBytes, zeroIn,
                             zeroOut, ctx);
        if (i > 0)
            record.edgeLatencies.push_back(sim.now() - prevDone);
        prevDone = sim.now();
    }
    record.endToEnd = sim.now() - t0;
    co_return record;
}

} // namespace molecule::core
