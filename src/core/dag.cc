#include "core/dag.hh"

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

/** Per-node communication state for one chain execution. */
struct DagEngine::Endpoint
{
    const FunctionDef *def = nullptr;
    AcquiredInstance acq;
    int pu = -1;
    /** Direct-connect local FIFO (same-PU edges). */
    os::LocalFifo *localFifo = nullptr;
    std::string fifoName;
    /** XPUcall client + self XPU-FIFO (cross-PU edges). */
    std::unique_ptr<xpu::XpuClient> client;
    xpu::XpuFd selfFd = -1;
    /** fd this endpoint uses to write each other endpoint (by node). */
    std::map<int, xpu::XpuFd> peerFds;
};

namespace {

/** Everything one chain execution shares. */
struct RunContext
{
    DagEngine *engine = nullptr;
    Deployment *dep = nullptr;
    const ChainSpec *spec = nullptr;
    const std::vector<int> *placement = nullptr;
    DagCommMode mode = DagCommMode::MoleculeIpc;
    int managerPu = 0;
    /** Causal root for every span of this chain execution. */
    obs::SpanContext trace;
    std::vector<DagEngine::Endpoint> eps;
    /** Gateway-side client used for the entry edge. */
    std::unique_ptr<xpu::XpuClient> gatewayClient;
    std::vector<sim::SimTime> edgeLatency; // per node; root = entry
    std::vector<sim::SimTime> execEnd;     // per node
    std::vector<std::vector<int>> children;
};

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
 * Move one message from @p fromNode (-1: gateway) into @p toNode's
 * instance, charging the full path of the selected mode.
 */
sim::Task<>
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
        if (fromPu == to.pu) {
            os::FifoMessage msg{bytes, "req"};
            co_await to.localFifo->write(msg);
            (void)co_await to.localFifo->read();
        } else {
            xpu::XpuClient *writer = nullptr;
            xpu::XpuFd fd = -1;
            if (fromNode < 0) {
                writer = ctx->gatewayClient.get();
                auto it = to.peerFds.find(-1);
                fd = it == to.peerFds.end() ? -1 : it->second;
            } else {
                auto &from = ctx->eps[std::size_t(fromNode)];
                writer = from.client.get();
                auto it = from.peerFds.find(toNode);
                fd = it == from.peerFds.end() ? -1 : it->second;
            }
            MOLECULE_ASSERT(writer && fd >= 0,
                            "missing xfifo connection %d->%d", fromNode,
                            toNode);
            core::Status st =
                co_await writer->xfifoWrite(fd, bytes, "req");
            MOLECULE_ASSERT(st.ok(), "xfifo write failed: %s",
                            st.toString().c_str());
            auto r = co_await to.client->xfifoRead(to.selfFd);
            MOLECULE_ASSERT(r.ok(), "xfifo read failed: %s",
                            r.error().toString().c_str());
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
        co_await edgeTransfer(ctx, parent, idx, comm.ctx());
    }
    ctx->edgeLatency[std::size_t(idx)] = sim.now() - upstreamDone;

    const auto exec = ep.acq.cold
                          ? ep.def->cpuWork->execCost *
                                ep.def->cpuWork->coldExecFactor
                          : ep.def->cpuWork->execCost;
    core::Status st = co_await ctx->dep->runcOn(ep.pu).invoke(
        ep.acq.instance->id, exec, span.ctx());
    MOLECULE_ASSERT(st.ok(), "chain node exec failed: %s",
                    st.toString().c_str());
    ctx->execEnd[std::size_t(idx)] = sim.now();
    span.finish();

    std::vector<sim::Task<>> kids;
    kids.reserve(ctx->children[std::size_t(idx)].size());
    for (int child : ctx->children[std::size_t(idx)])
        kids.push_back(runNode(ctx, child, sim.now()));
    co_await sim::allOf(sim, std::move(kids));
}

} // namespace

sim::Task<obs::ChainRecord>
DagEngine::run(const ChainSpec &spec, const std::vector<int> &placement,
               DagCommMode mode, bool prewarm, int managerPu,
               obs::SpanContext ctx)
{
    MOLECULE_ASSERT(placement.size() == spec.nodes.size(),
                    "placement size mismatch");
    auto &sim = dep_.simulation();

    RunContext run;
    run.engine = this;
    run.dep = &dep_;
    run.spec = &spec;
    run.placement = &placement;
    run.mode = mode;
    run.managerPu = managerPu;
    run.trace = ctx;
    run.eps.resize(spec.nodes.size());
    run.edgeLatency.resize(spec.nodes.size());
    run.execEnd.resize(spec.nodes.size());
    run.children.resize(spec.nodes.size());
    for (std::size_t i = 0; i < spec.nodes.size(); ++i)
        if (spec.nodes[i].parent >= 0)
            run.children[std::size_t(spec.nodes[i].parent)].push_back(
                int(i));

    const sim::SimTime setupStart = sim.now();

    // Acquire all instances (pre-boot when prewarm).
    for (std::size_t i = 0; i < spec.nodes.size(); ++i) {
        const FunctionDef &def = registry_.find(spec.nodes[i].fn);
        auto &ep = run.eps[i];
        ep.def = &def;
        ep.pu = placement[i];
        ep.acq = co_await startup_.acquire(def, ep.pu, managerPu, ctx);
        MOLECULE_ASSERT(ep.acq.instance != nullptr,
                        "chain instance acquisition failed");
    }

    // Wire the direct-connect fabric (Molecule mode only).
    if (mode == DagCommMode::MoleculeIpc) {
        // Gateway-side process for the entry edge.
        os::Process *gw = co_await dep_.osOn(managerPu).spawnProcess(
            "gateway/" + spec.name, 1 << 20, ctx);
        MOLECULE_ASSERT(gw != nullptr, "gateway spawn failed");
        run.gatewayClient = std::make_unique<xpu::XpuClient>(
            dep_.shimOn(managerPu), *gw);
        run.gatewayClient->setTraceContext(ctx);

        for (std::size_t i = 0; i < run.eps.size(); ++i) {
            auto &ep = run.eps[i];
            ep.fifoName = "self/" + spec.name + "/" +
                          std::to_string(nextUuid_++);
            ep.localFifo =
                dep_.osOn(ep.pu).createFifo(ep.fifoName + "/local");
            ep.client = std::make_unique<xpu::XpuClient>(
                dep_.shimOn(ep.pu), *ep.acq.instance->proc);
            ep.client->setTraceContext(ctx);
            auto fd = co_await ep.client->xfifoInit(ep.fifoName);
            MOLECULE_ASSERT(fd.ok(), "xfifo init failed: %s",
                            fd.error().toString().c_str());
            ep.selfFd = fd.value();
        }
        // Connect writers: parent -> child (and gateway -> root) when
        // the edge crosses PUs; the owner grants Write first.
        for (std::size_t i = 0; i < run.eps.size(); ++i) {
            auto &child = run.eps[i];
            const int parent = spec.nodes[i].parent;
            const int fromPu = parent < 0
                                   ? managerPu
                                   : run.eps[std::size_t(parent)].pu;
            if (fromPu == child.pu)
                continue;
            xpu::XpuClient *writer =
                parent < 0 ? run.gatewayClient.get()
                           : run.eps[std::size_t(parent)].client.get();
            const xpu::ObjId obj = child.client->objectOf(child.selfFd);
            auto st = co_await child.client->grantCap(
                writer->xpuPid(), obj, xpu::Perm::Write);
            MOLECULE_ASSERT(st.ok(), "grant failed: %s",
                            st.toString().c_str());
            auto fd = co_await writer->xfifoConnect(child.fifoName);
            MOLECULE_ASSERT(fd.ok(), "xfifo connect failed: %s",
                            fd.error().toString().c_str());
            child.peerFds[parent] = fd.value(); // unused; kept symmetric
            if (parent < 0)
                child.peerFds[-1] = fd.value();
            else
                run.eps[std::size_t(parent)].peerFds[int(i)] =
                    fd.value();
        }
    }

    const sim::SimTime t0 = prewarm ? sim.now() : setupStart;
    co_await runNode(&run, 0, t0);

    obs::ChainRecord record;
    record.chain = spec.name;
    record.traceId = ctx.trace;
    sim::SimTime finish = t0;
    for (std::size_t i = 0; i < run.execEnd.size(); ++i)
        finish = std::max(finish, run.execEnd[i]);
    record.endToEnd = finish - t0;
    for (std::size_t i = 0; i < spec.nodes.size(); ++i) {
        if (spec.nodes[i].parent >= 0)
            record.edgeLatencies.push_back(run.edgeLatency[i]);
        obs::InvocationRecord inv;
        inv.function = spec.nodes[i].fn;
        inv.traceId = ctx.trace;
        inv.pu = run.eps[i].pu;
        inv.coldStart = run.eps[i].acq.cold;
        inv.startup = run.eps[i].acq.startupTime;
        inv.communication = run.edgeLatency[i];
        inv.execution = run.eps[i].def->cpuWork->execCost;
        record.invocations.push_back(std::move(inv));
    }

    // Return instances to the keep-alive cache; drop comm plumbing.
    for (std::size_t i = 0; i < run.eps.size(); ++i) {
        auto &ep = run.eps[i];
        if (ep.client && ep.selfFd >= 0)
            (void)co_await ep.client->xfifoClose(ep.selfFd);
        if (ep.localFifo)
            dep_.osOn(ep.pu).removeFifo(ep.fifoName + "/local");
        co_await startup_.release(*ep.def, ep.acq);
    }
    co_return record;
}

sim::Task<obs::ChainRecord>
DagEngine::runFpgaChain(const std::vector<std::string> &fns,
                        int fpgaIndex, bool shmOptimization,
                        std::uint64_t messageBytes, obs::SpanContext ctx)
{
    std::vector<std::string> owned_fns = fns;
    auto &sim = dep_.simulation();
    auto &runf = dep_.runf(fpgaIndex);

    // Make the whole chain resident as one vectorized image, then
    // warm every sandbox (pre-boot, as in Fig 13's measurement).
    startup_.setFpgaHotSet(fpgaIndex, owned_fns);
    for (const auto &fn : owned_fns) {
        const FunctionDef &def = registry_.find(fn);
        auto acq = co_await startup_.acquireFpga(def, fpgaIndex, ctx);
        MOLECULE_ASSERT(acq.ok(), "fpga chain warm-up failed: %s",
                        acq.error().toString().c_str());
    }

    const sim::SimTime t0 = sim.now();
    obs::ChainRecord record;
    record.chain = "fpga-chain";
    sim::SimTime prevDone = t0;
    for (std::size_t i = 0; i < owned_fns.size(); ++i) {
        const FunctionDef &def = registry_.find(owned_fns[i]);
        const bool zeroIn = shmOptimization && i > 0;
        const bool zeroOut = shmOptimization && i + 1 < owned_fns.size();
        co_await runf.invoke("fpga/" + owned_fns[i],
                             def.fpgaWork->kernelTime(messageBytes),
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
