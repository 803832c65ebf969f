#include "cluster/scenario.hh"

#include <utility>

#include "load/generator.hh"
#include "sim/simulation.hh"
#include "sim/stats.hh"
#include "workloads/catalog.hh"

namespace molecule::cluster {

Scenario::Scenario(sim::Simulation &sim, ScenarioSpec spec)
    : sim_(sim), spec_(std::move(spec)), fleet_(sim, spec_.fleet),
      stats_(registry_)
{
    // The scoreboard only names counters in its own registry, so
    // building it ahead of the boot touches no simulation state.
    for (const auto &fn : spec_.trace.functions)
        fleet_.registerCpuFunction(fn,
                                   {hw::PuType::HostCpu, hw::PuType::Dpu});
    fleet_.start();
    if (spec_.cost)
        stats_.setCostModel(&*spec_.cost, fleet_.puTypeTable());
}

ScenarioResult
Scenario::run(const ScenarioHooks &hooks)
{
    GatewayConfig cfg =
        GatewayConfig::forFunctions(spec_.trace.functions, stats_);
    cfg.admission = spec_.admission;
    cfg.dispatch = hooks.dispatch;
    cfg.recorder = hooks.recorder;
    ClusterGateway gateway(fleet_, cfg);

    load::OpenLoopGenerator gen(spec_.trace);
    const sim::SimTime t0 = sim_.now();
    sim_.spawn(load::drive(sim_, gen, gateway));
    sim_.run();

    ScenarioResult out;
    out.summary = stats_.summarize(sim_.now() - t0, fleet_.coreTable());
    out.statsDigest = stats_.digest();
    sim::Fingerprint placeFp;
    sim::Fingerprint evictFp;
    for (int i = 0; i < fleet_.size(); ++i) {
        placeFp.mix(fleet_.node(i).scheduler().placementDigest());
        evictFp.mix(fleet_.node(i).startup().evictionDigest());
    }
    out.placementDigest = placeFp.digest();
    out.evictionDigest = evictFp.digest();
    out.generated = gen.emitted();
    out.drained = gateway.idle();
    return out;
}

ScenarioResult
runScenario(const ScenarioSpec &spec, const ScenarioHooks &hooks)
{
    sim::Simulation sim(spec.trace.seed);
    Scenario scenario(sim, spec);
    return scenario.run(hooks);
}

load::TraceSpec
catalogueTrace(std::uint64_t seed, double ratePerSecond,
               sim::SimTime duration)
{
    load::TraceSpec trace;
    trace.seed = seed;
    trace.ratePerSecond = ratePerSecond;
    trace.duration = duration;
    trace.functions = {"helloworld", "pyaes", "dd", "gzip-compression"};
    trace.tenants = {
        {"alpha", 3.0, 1.1, 1},
        {"beta", 1.0, 0.8, 2},
    };
    return trace;
}

namespace {

/** The 4-node 2xBF2 fleet and backlog both named scenarios share. */
ScenarioSpec
fourNodeFleet(std::uint64_t seed, double ratePerSecond,
              sim::SimTime duration)
{
    ScenarioSpec spec;
    spec.fleet.nodes = 4;
    spec.fleet.dpusPerNode = 2;
    spec.trace = catalogueTrace(seed, ratePerSecond, duration);
    spec.admission.queueCapacity = 2048;
    spec.admission.maxOutstandingPerNode = 96;
    spec.admission.invoke.maxAttempts = 2;
    return spec;
}

} // namespace

ScenarioSpec
clusterLadder(std::uint64_t seed, double ratePerSecond,
              sim::SimTime duration)
{
    ScenarioSpec spec = fourNodeFleet(seed, ratePerSecond, duration);
    spec.admission.tokensPerSecond = kLadderAdmittedPerSecond;
    spec.admission.bucketCapacity = 200.0;
    return spec;
}

ScenarioSpec
policyRace(std::uint64_t seed, double ratePerSecond,
           sim::SimTime duration)
{
    ScenarioSpec spec = fourNodeFleet(seed, ratePerSecond, duration);
    spec.admission.tokensPerSecond = 0.0;
    spec.cost.emplace();
    return spec;
}

ScenarioSpec
churnRace(std::uint64_t seed, double ratePerSecond,
          sim::SimTime duration)
{
    ScenarioSpec spec = policyRace(seed, ratePerSecond, duration);
    std::vector<std::string> &fns = spec.trace.functions;
    fns.clear();
    for (const auto &fn : workloads::Catalog::functionBenchNames())
        if (fn != "video-processing" && fn != "linpack")
            fns.push_back(fn);
    for (const auto &fn : workloads::Catalog::alexaChain())
        fns.push_back(fn);
    for (const auto &fn : workloads::Catalog::mapReduceChain())
        fns.push_back(fn);
    spec.trace.tenants = {
        {"alpha", 3.0, 0.4, 1},
        {"beta", 1.0, 0.28, 2},
    };
    spec.fleet.runtime.startup.globalWarmCapacityPerPu = 4;
    return spec;
}

} // namespace molecule::cluster
