/**
 * @file
 * The closed-loop hetero_dag workload on one buildFullHetero computer
 * (host CPU, two BlueField-2 DPUs, one F1 FPGA, one GPU).
 *
 * Three chain clients loop on the five-function Alexa chain placed
 * across the CPU and both DPUs, so every edge is an nIPC crossing; each
 * waits a seeded exponential think time between chains. One
 * accelerator client alternates an FPGA invocation (one of five
 * kernels, seeded, so the fabric keeps reconfiguring) with a GPU
 * invocation (one of three modules). Only one accelerator client runs:
 * two concurrent callers abort the process today (see probe.cc).
 */

#include <algorithm>
#include <memory>

#include "core/molecule.hh"
#include "hw/computer.hh"
#include "seams.hh"
#include "sim/random.hh"
#include "sim/stats.hh"
#include "workloads/catalog.hh"

namespace molbench {

using namespace molecule;

namespace {

constexpr const char *kFpgaKernels[] = {"fpga-aml", "fpga-mscale",
                                        "fpga-madd", "fpga-vmult",
                                        "fpga-vecstage"};

struct GpuModule
{
    const char *name;
    double kernelMs;
    std::uint64_t ioBytes;
};

constexpr GpuModule kGpuModules[] = {{"gnn-gather", 3.0, 8 << 20},
                                     {"gnn-apply", 5.0, 4 << 20},
                                     {"embed-lookup", 0.4, 1 << 20}};

constexpr int kChainClients = 3;
constexpr double kThinkMeanMs = 2.0;
constexpr double kHorizonS = 90.0;

/** Everything the clients report into, in completion order. */
struct Outcome
{
    sim::Simulation &sim;
    core::Molecule &rt;
    sim::SimTime horizon;
    Rep &rep;
    /** Keep per-operation samples (latencies, edges, FPGA start-ups). */
    bool record;
    sim::Fingerprint fp;
    std::vector<double> edgeUs;
    std::int64_t fpgaCalls = 0;
    std::int64_t fpgaCold = 0;
    std::vector<double> fpgaStartupMs;
    std::int64_t gpuCalls = 0;
    std::int64_t gpuCold = 0;

    void
    fold(const obs::InvocationRecord &r)
    {
        fp.mix(std::uint64_t(r.pu));
        fp.mix(r.coldStart ? 1 : 0);
        fp.mixTime(r.startup);
        fp.mixTime(r.execution);
        fp.mixTime(r.endToEnd);
    }
};

sim::Task<>
chainClient(Outcome &out, const core::ChainSpec &spec,
            const std::vector<int> &placement, std::uint64_t seed)
{
    sim::Rng rng(seed);
    while (out.sim.now() < out.horizon) {
        co_await out.sim.delay(
            sim::SimTime::fromMilliseconds(rng.exponential(kThinkMeanMs)));
        ++out.rep.attempted;
        auto r = co_await out.rt.invokeChain(spec, placement);
        if (!r.ok()) {
            ++out.rep.failed;
            out.fp.mix(std::uint64_t(r.error().code()));
            continue;
        }
        const obs::ChainRecord &rec = r.value();
        ++out.rep.ops;
        if (out.record)
            out.rep.latencyMs.push_back(rec.endToEnd.toMilliseconds());
        out.fp.mixTime(rec.endToEnd);
        for (sim::SimTime e : rec.edgeLatencies) {
            if (out.record)
                out.edgeUs.push_back(e.toMicroseconds());
            out.fp.mixTime(e);
        }
        for (const auto &inv : rec.invocations)
            out.fold(inv);
    }
}

sim::Task<>
acceleratorClient(Outcome &out, std::uint64_t seed)
{
    sim::Rng rng(seed);
    for (std::uint64_t i = 0; out.sim.now() < out.horizon; ++i) {
        ++out.rep.attempted;
        const bool fpga = i % 2 == 0;
        core::Expected<obs::InvocationRecord> r =
            core::Error(core::Errc::NotFound, "not run");
        if (fpga) {
            const auto k = std::size_t(rng.uniformInt(0, 4));
            const auto units = std::uint64_t(rng.uniformInt(1, 1 << 16));
            r = co_await out.rt.invokeFpga(kFpgaKernels[k], 0, units);
        } else {
            const auto m = std::size_t(rng.uniformInt(0, 2));
            r = co_await out.rt.invokeGpu(kGpuModules[m].name, 0);
        }
        if (!r.ok()) {
            ++out.rep.failed;
            out.fp.mix(std::uint64_t(r.error().code()));
            continue;
        }
        const obs::InvocationRecord &rec = r.value();
        ++out.rep.ops;
        out.fold(rec);
        if (fpga) {
            ++out.fpgaCalls;
            out.fpgaCold += rec.coldStart ? 1 : 0;
            if (out.record)
                out.fpgaStartupMs.push_back(rec.startup.toMilliseconds());
        } else {
            ++out.gpuCalls;
            out.gpuCold += rec.coldStart ? 1 : 0;
        }
    }
}

/** The Alexa chain: front -> interact -> smarthome -> {door, light}. */
core::ChainSpec
alexaChain()
{
    const auto fns = workloads::Catalog::alexaChain();
    core::ChainSpec spec;
    spec.name = "alexa";
    spec.nodes = {{fns[0], -1}, {fns[1], 0}, {fns[2], 1}, {fns[3], 2},
                  {fns[4], 2}};
    return spec;
}

} // namespace

Rep
runHeteroDag(const RepConfig &cfg)
{
    Rep rep;
    const double c0 = threadCpuSeconds();

    sim::Simulation sim(cfg.seed);
    std::unique_ptr<obs::Tracer> tracer;
    core::MoleculeOptions opts;
    if (cfg.traced) {
        tracer = std::make_unique<obs::Tracer>(sim, cfg.seed);
        opts.tracer = tracer.get();
    }
    auto computer = hw::buildFullHetero(sim);
    core::Molecule rt(*computer, opts);
    for (const auto &fn : workloads::Catalog::alexaChain())
        rt.registerCpuFunction(fn, {hw::PuType::HostCpu, hw::PuType::Dpu});
    for (const char *k : kFpgaKernels)
        rt.registerFpgaFunction(k);
    for (const GpuModule &m : kGpuModules)
        rt.registerGpuFunction(m.name,
                               sim::SimTime::fromMilliseconds(m.kernelMs),
                               m.ioBytes);
    CallTimer placeT, keepAliveT;
    if (cfg.traced)
        installTimedPolicies(rt, placeT, keepAliveT);
    rt.start();

    const core::ChainSpec spec = alexaChain();
    // Host CPU (0) and the two DPUs (1, 2): every edge crosses PUs.
    const std::vector<int> placement{0, 1, 0, 1, 2};
    const sim::SimTime start = sim.now();
    Outcome out{sim, rt, start + sim::SimTime::fromSeconds(kHorizonS), rep,
                cfg.samples, {}, {}, 0, 0, {}, 0, 0};

    rep.setupCpuS = threadCpuSeconds() - c0;
    if (cfg.setupOnly)
        return rep;
    if (cfg.samples) {
        rep.latencyMs.reserve(1 << 16);
        out.edgeUs.reserve(1 << 18);
        out.fpgaStartupMs.reserve(1 << 14);
    }

    const std::uint64_t a0 = allocCount();
    const double c1 = threadCpuSeconds();
    // Client seeds derive from the run seed; the chain clients'
    // think times and the accelerator client's kernel mix differ.
    for (int c = 0; c < kChainClients; ++c)
        sim.spawn(chainClient(out, spec, placement,
                              cfg.seed * 1000003 + std::uint64_t(c)));
    sim.spawn(acceleratorClient(out, cfg.seed * 1000003 + 99));
    double tallyS = 0.0;
    rep.events = runLoop(sim, tracer.get(), &rep.spans, tallyS);
    rep.loopCpuS = threadCpuSeconds() - c1 - tallyS;
    rep.allocs = allocCount() - a0;
    rep.simSeconds = (sim.now() - start).toSeconds();

    rep.digest = out.fp.digest();
    rep.detail = "chains=" + std::to_string(rep.ops - out.fpgaCalls -
                                            out.gpuCalls) +
                 " fpga=" + std::to_string(out.fpgaCalls) +
                 " gpu=" + std::to_string(out.gpuCalls) +
                 " failed=" + std::to_string(rep.failed);
    if (rep.attempted != rep.ops + rep.failed)
        rep.accountingError = "attempted != completed + failed";

    std::sort(out.edgeUs.begin(), out.edgeUs.end());
    if (!out.edgeUs.empty())
        rep.exact["xpu.edge_p50_us"] = percentile(out.edgeUs, 50.0);
    if (!out.fpgaStartupMs.empty()) {
        std::sort(out.fpgaStartupMs.begin(), out.fpgaStartupMs.end());
        rep.exact["hw.fpga_reconfig_frac"] =
            double(out.fpgaCold) / double(out.fpgaCalls);
        rep.exact["hw.fpga_startup_p50_ms"] =
            percentile(out.fpgaStartupMs, 50.0);
    }
    if (out.gpuCalls > 0)
        rep.exact["hw.gpu_cold_frac"] =
            double(out.gpuCold) / double(out.gpuCalls);
    CoreCounters core;
    core.add(rt);
    core.record(rep, rep.ops);

    if (cfg.traced) {
        recordTimer(rep, "core.place", placeT);
        rep.layerNs["core.keepalive_ns"] =
            double(keepAliveT.ns) / double(rep.ops > 0 ? rep.ops : 1);
    }
    return rep;
}

} // namespace molbench
