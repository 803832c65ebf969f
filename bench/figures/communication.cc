/**
 * @file
 * Communication: Figures 8 and 12, and the state-sync ablation.
 */

#include <algorithm>
#include <array>

#include "bench/figures/figures.hh"
#include "xpu/client.hh"

namespace molecule::figures {

namespace {

using core::DagCommMode;
using xpu::TransportKind;

/** A BF-1 caller and a host-CPU reader, each behind its XPU-Shim. */
struct Harness
{
    sim::Simulation sim;
    std::unique_ptr<hw::Computer> computer =
        hw::buildCpuDpuServer(sim, 1, hw::DpuGeneration::Bf1);
    os::LocalOs cpuOs{computer->pu(0)};
    os::LocalOs dpuOs{computer->pu(1)};
    xpu::XpuShimNetwork net{*computer};
    xpu::XpuShim *cpuShim = net.addShim(cpuOs, TransportKind::Fifo);
    xpu::XpuShim *dpuShim = net.addShim(dpuOs, TransportKind::MpscPoll);
    os::Process *cpuProc = nullptr;
    os::Process *dpuProc = nullptr;
    std::unique_ptr<xpu::XpuClient> cpuClient;
    std::unique_ptr<xpu::XpuClient> dpuClient;
    int fifoCounter = 0;

    Harness()
    {
        auto boot = [](Harness *h) -> sim::Task<> {
            h->cpuProc = co_await h->cpuOs.spawnProcess("reader", 1 << 20);
            h->dpuProc = co_await h->dpuOs.spawnProcess("caller", 1 << 20);
        };
        sim.spawn(boot(this));
        sim.run();
        cpuClient = std::make_unique<xpu::XpuClient>(*cpuShim, *cpuProc);
        dpuClient = std::make_unique<xpu::XpuClient>(*dpuShim, *dpuProc);
    }

    /** Mean xfifo_write latency from the DPU for one transport. */
    sim::SimTime
    nipcWrite(TransportKind kind, std::uint64_t bytes, int iters)
    {
        dpuShim->setTransport(kind);
        const std::string uuid = "fig8-" + std::to_string(fifoCounter++);
        sim::Histogram lat;

        auto setup = [](Harness *h, std::string id) -> sim::Task<> {
            auto fd = co_await h->cpuClient->xfifoInit(id);
            const xpu::ObjId obj = h->cpuClient->objectOf(fd.value());
            (void)co_await h->cpuClient->grantCap(
                h->dpuClient->xpuPid(), obj, xpu::Perm::Write);
        };
        sim.spawn(setup(this, uuid));
        sim.run();

        auto measure = [](Harness *h, std::string id, std::uint64_t sz,
                          int n, sim::Histogram *out) -> sim::Task<> {
            auto fd = co_await h->dpuClient->xfifoConnect(id);
            for (int i = 0; i < n; ++i) {
                const auto t0 = h->sim.now();
                (void)co_await h->dpuClient->xfifoWrite(fd.value(), sz, "m");
                out->addTime(h->sim.now() - t0);
            }
        };
        sim.spawn(measure(this, uuid, bytes, iters, &lat));
        sim.run();
        return sim::SimTime::fromMicroseconds(lat.mean());
    }

    /** Mean local Linux FIFO one-way latency on @p os. */
    sim::SimTime
    linuxFifo(os::LocalOs &os, std::uint64_t bytes, int iters)
    {
        const std::string name = "lf-" + std::to_string(fifoCounter++);
        os.createFifo(name);
        sim::Histogram lat;
        auto measure = [](os::LocalOs *o, std::string fifo,
                          std::uint64_t sz, int n,
                          sim::Histogram *out) -> sim::Task<> {
            auto *f = o->findFifo(fifo);
            for (int i = 0; i < n; ++i) {
                const auto t0 = o->simulation().now();
                os::FifoMessage msg{sz, "m"};
                co_await f->write(msg);
                (void)co_await f->read();
                out->addTime(o->simulation().now() - t0);
            }
        };
        sim.spawn(measure(&os, name, bytes, iters, &lat));
        sim.run();
        return sim::SimTime::fromMicroseconds(lat.mean());
    }
};

/** Per-edge latencies for one mode and placement. */
std::vector<sim::SimTime>
edges(DagCommMode mode, const std::vector<int> &placement)
{
    core::MoleculeOptions options;
    options.dagMode = mode;
    if (mode == DagCommMode::BaselineHttp)
        options.startup.useCfork = false;
    auto s = cpuDpuStack(2, hw::DpuGeneration::Bf1,
                         workloads::Catalog::alexaChain(), options);
    auto rec = s->runtime->runSync(
        s->runtime->invokeChain(core::ChainSpec::alexa(), placement))
        .value();
    return rec.edgeLatencies;
}

/** A host CPU and @p dpus DPUs, one shim each, a process on the CPU. */
struct World
{
    sim::Simulation sim;
    std::unique_ptr<hw::Computer> computer;
    std::vector<std::unique_ptr<os::LocalOs>> oses;
    std::unique_ptr<xpu::XpuShimNetwork> net;
    os::Process *proc = nullptr;
    std::unique_ptr<xpu::XpuClient> client;

    explicit World(int dpus)
    {
        computer = hw::buildCpuDpuServer(sim, dpus,
                                         hw::DpuGeneration::Bf1);
        net = std::make_unique<xpu::XpuShimNetwork>(*computer);
        for (int pu = 0; pu < computer->puCount(); ++pu) {
            oses.push_back(
                std::make_unique<os::LocalOs>(computer->pu(pu)));
            net->addShim(*oses.back(), pu == 0 ? TransportKind::Fifo
                                               : TransportKind::MpscPoll);
        }
        auto boot = [](World *w) -> sim::Task<> {
            w->proc = co_await w->oses[0]->spawnProcess("p", 1 << 20);
        };
        sim.spawn(boot(this));
        sim.run();
        client = std::make_unique<xpu::XpuClient>(net->shimOn(0), *proc);
    }
};

/** Mean xfifo_init latency (immediate broadcast to all peers). */
sim::SimTime
initLatency(int dpus)
{
    World w(dpus);
    sim::Histogram lat;
    auto run = [](World *world, sim::Histogram *out) -> sim::Task<> {
        for (int i = 0; i < 20; ++i) {
            const auto t0 = world->sim.now();
            auto fd = co_await world->client->xfifoInit(
                "f" + std::to_string(i));
            MOLECULE_ASSERT(fd.ok(), "init");
            out->addTime(world->sim.now() - t0);
        }
    };
    w.sim.spawn(run(&w, &lat));
    w.sim.run();
    return sim::SimTime::fromMicroseconds(lat.mean());
}

/** Sync messages + time for 64 close reclamations. */
std::pair<std::int64_t, sim::SimTime>
closeStorm(int dpus, bool batched)
{
    World w(dpus);
    auto &shim = w.net->shimOn(0);
    auto run = [](World *world, bool batch) -> sim::Task<> {
        std::vector<xpu::XpuFd> fds;
        for (int i = 0; i < 64; ++i) {
            auto fd = co_await world->client->xfifoInit(
                "c" + std::to_string(i));
            fds.push_back(fd.value());
        }
        for (auto fd : fds) {
            (void)co_await world->client->xfifoClose(fd);
            if (!batch)
                co_await world->net->shimOn(0).flushLazy();
        }
        co_await world->net->shimOn(0).flushLazy();
    };
    const auto before = shim.syncMessagesSent();
    const auto t0 = w.sim.now();
    w.sim.spawn(run(&w, batched));
    w.sim.run();
    // Subtract the init broadcasts (one per fifo per peer).
    const auto initMsgs = std::int64_t(64 * dpus);
    return {shim.syncMessagesSent() - before - initMsgs,
            w.sim.now() - t0};
}

/** Process spawn cost (pid allocation is statically partitioned). */
sim::SimTime
spawnCost(int dpus)
{
    World w(dpus);
    const auto t0 = w.sim.now();
    auto run = [](World *world) -> sim::Task<> {
        for (int i = 0; i < 8; ++i)
            (void)co_await world->oses[0]->spawnProcess(
                "s" + std::to_string(i), 1 << 20);
    };
    w.sim.spawn(run(&w));
    w.sim.run();
    return (w.sim.now() - t0) / 8.0;
}

} // namespace

/**
 * Fig 8: xfifo_write latency from a BF-1 DPU caller to an XPU-FIFO
 * homed on the host CPU under the three XPUcall transports (§6.1),
 * against a local Linux FIFO one-way transfer on each PU.
 */
Figure
fig8()
{
    Harness h;
    sim::Table t("Figure 8: latency (us) vs message size");
    t.header({"msg size", "nIPC-Base", "nIPC-MPSC", "nIPC-Poll",
              "Linux (DPU)", "Linux (CPU)"});
    const int iters = 50;
    // Per size, in us: Base, MPSC, Poll, Linux (DPU), Linux (CPU).
    std::vector<std::array<double, 5>> us5;
    for (std::uint64_t bytes : {16, 32, 64, 128, 256, 512, 1024, 2048}) {
        const sim::SimTime lat[] = {
            h.nipcWrite(TransportKind::Fifo, bytes, iters),
            h.nipcWrite(TransportKind::Mpsc, bytes, iters),
            h.nipcWrite(TransportKind::MpscPoll, bytes, iters),
            h.linuxFifo(h.dpuOs, bytes, iters),
            h.linuxFifo(h.cpuOs, bytes, iters)};
        t.row({std::to_string(bytes) + "B", us(lat[0]), us(lat[1]),
               us(lat[2]), us(lat[3]), us(lat[4])});
        us5.push_back({});
        for (int i = 0; i < 5; ++i)
            us5.back()[std::size_t(i)] = lat[i].toMicroseconds();
    }
    Figure fig;
    fig.tables.push_back(t);

    int ordered = 0;
    double pollVsDpu = 1e300;
    for (const auto &r : us5) {
        ordered += r[2] < r[1] && r[1] < r[0];
        pollVsDpu = std::min(pollVsDpu, r[3] / r[2]);
    }
    const auto &b16 = us5.front();
    const auto &k2 = us5.back();
    fig.inBand("nIPC-Base / Linux (DPU), 16 B", range(1.6, 2.8, "×"),
               b16[0] / b16[3], 2);
    fig.inBand("nIPC-Base / Linux (DPU), 2 KB", range(1.6, 2.8, "×"),
               k2[0] / k2[3], 2);
    fig.inBand("nIPC-Base, 2 KB", atMost(250, " µs"), k2[0], 1);
    fig.inBand("nIPC-Poll, 16 B", about(25, " µs"), b16[2], 1);
    fig.inBand("sizes with Poll < MPSC < Base", range(8, 8, " of 8"),
               ordered, 0);
    fig.inBand("Linux (DPU) / nIPC-Poll, min over sizes", atLeast(1, "×"),
               pollVsDpu, 2);
    fig.inBand("nIPC-Poll / Linux (CPU), 16 B", range(1.5, 3.1, "×"),
               b16[2] / b16[4], 2);
    fig.outOfBand("nIPC-Poll / Linux (CPU), 2 KB", range(1.5, 3.1, "×"),
                  k2[2] / k2[4], 2, Side::Above,
                  "Poll's per-byte cost on the BF-1 grows faster with size "
                  "than the host pipe's");
    return fig;
}

/**
 * Fig 12: latency of the four Alexa edges under four placements,
 * baseline (Node Express HTTP) vs Molecule (IPC same-PU, nIPC
 * cross-PU).
 */
Figure
fig12()
{
    struct Case
    {
        const char *name;
        std::vector<int> placement;
    };
    // Edge k goes from node k's PU to node k+1's (the fan-out edges
    // both leave smarthome). (c) and (d) cross PUs.
    const std::vector<Case> cases{
        {"(a) CPU to CPU", {0, 0, 0, 0, 0}},
        {"(b) DPU to DPU", {1, 1, 1, 1, 1}},
        {"(c) CPU to DPU", {0, 1, 0, 1, 1}},
        {"(d) DPU to CPU", {1, 0, 1, 0, 0}},
    };
    const std::vector<std::string> edgeNames{
        "front-interact", "interact-smarthome", "smarthome-door",
        "smarthome-light"};

    Figure fig;
    // Speedups over every edge, same-PU and cross-PU.
    std::vector<double> speedups[2];
    for (std::size_t k = 0; k < cases.size(); ++k) {
        const auto &c = cases[k];
        auto base = edges(DagCommMode::BaselineHttp, c.placement);
        auto mol = edges(DagCommMode::MoleculeIpc, c.placement);
        sim::Table t(std::string("Figure 12 ") + c.name +
                     " (ms per edge)");
        t.header({"edge", "Baseline", "Molecule", "speedup"});
        for (std::size_t i = 0; i < edgeNames.size(); ++i) {
            const double s =
                base[i].toMilliseconds() / mol[i].toMilliseconds();
            t.row({edgeNames[i], ms(base[i]), ms(mol[i], 3), times(s, 1)});
            speedups[k >= 2].push_back(s);
        }
        fig.tables.push_back(t);
    }
    const auto same = std::minmax_element(speedups[0].begin(),
                                          speedups[0].end());
    const auto cross = std::minmax_element(speedups[1].begin(),
                                           speedups[1].end());
    fig.inBand("same-PU IPC (a, b), min over edges", range(15, 18, "×"),
               *same.first, 1);
    fig.inBand("same-PU IPC (a, b), max over edges", range(15, 18, "×"),
               *same.second, 1);
    const char *why = "the baseline HTTP edges run ~30% above the "
                      "figure's bars and the nIPC edges do not offset it";
    fig.outOfBand("cross-PU nIPC (c, d), min over edges", range(10, 13, "×"),
                  *cross.first, 1, Side::Above, why);
    fig.outOfBand("cross-PU nIPC (c, d), max over edges", range(10, 13, "×"),
                  *cross.second, 1, Side::Above, why);
    return fig;
}

/**
 * Ablation (§5 "Inter-PU synchronization"): immediate sync's
 * xfifo_init latency as the PU count grows; lazy batching's wire
 * messages for a burst of xfifo_close reclamations; and static pid
 * partitioning, whose process creation cost is flat in the PU count.
 */
Figure
stateSync()
{
    Figure fig;
    sim::Table a("Immediate sync: xfifo_init latency vs machine size");
    a.header({"PUs", "init latency (us)", "spawn (no sync, ms)"});
    for (int dpus : {0, 1, 2, 4, 8}) {
        a.row({std::to_string(dpus + 1), us(initLatency(dpus)),
               ms(spawnCost(dpus))});
    }
    fig.tables.push_back(a);

    sim::Table b("Lazy sync: 64 xfifo_close reclamations, 2 DPUs");
    b.header({"mode", "reclaim sync messages", "elapsed (ms)"});
    auto batched = closeStorm(2, true);
    auto eager = closeStorm(2, false);
    b.row({"batched (8/batch)", std::to_string(batched.first),
           ms(batched.second)});
    b.row({"flush per close", std::to_string(eager.first),
           ms(eager.second)});
    fig.tables.push_back(b);
    return fig;
}

} // namespace molecule::figures
