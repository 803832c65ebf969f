/**
 * @file
 * The two open-loop cluster workloads: overload_warm and cold_churn.
 *
 * Both replay a seeded Poisson stream through a ClusterGateway onto a
 * 4-node fleet with two BlueField-2 DPUs per node, under the default
 * PriceOrdered placement and LRU keep-alive, with the $-cost model
 * attached. They differ in what the stream asks of the fleet:
 * overload_warm offers 1.6x the DPU-bound capacity with four hot
 * functions, so the gateway queue fills and nearly every start is
 * warm; cold_churn offers a quarter of that rate over fourteen
 * functions with a four-instance warm pool per PU, so keep-alive
 * evicts and most starts are cold while the gateway never queues.
 */

#include <algorithm>
#include <memory>

#include "cluster/cost.hh"
#include "cluster/gateway.hh"
#include "load/generator.hh"
#include "seams.hh"
#include "workloads/catalog.hh"

namespace molbench {

using namespace molecule;

namespace {

struct ClusterScenario
{
    load::TraceSpec spec;
    cluster::FleetSpec fleet;
};

/**
 * Least-outstanding dispatch (the gateway default) that also records
 * each dispatched arrival's queue wait and each completion's
 * end-to-end latency, exactly, in simulated milliseconds (unless the
 * repetition records no samples).
 */
class ObservedDispatch final : public cluster::DispatchPolicy
{
  public:
    ObservedDispatch(sim::Simulation &sim, const obs::Counter &completed,
                     Rep &rep, std::vector<double> &waitMs,
                     CallTimer *timer, bool record)
        : sim_(sim), completed_(completed), rep_(rep), waitMs_(waitMs),
          timer_(timer), record_(record)
    {}

    const char *name() const override { return inner_.name(); }

    int
    pick(const load::Arrival &a, std::span<const int> outstanding,
         int cap) override
    {
        const int node =
            timer_ != nullptr
                ? timer_->time(
                      [&] { return inner_.pick(a, outstanding, cap); })
                : inner_.pick(a, outstanding, cap);
        if (record_ && node >= 0) // every successful pick dispatches
            waitMs_.push_back((sim_.now() - a.at).toMilliseconds());
        return node;
    }

    void
    onComplete(const load::Arrival &a, int node) override
    {
        inner_.onComplete(a, node);
        // Errors complete too; only a bumped counter is a success.
        if (record_ && completed_.value() != seen_) {
            seen_ = completed_.value();
            rep_.latencyMs.push_back((sim_.now() - a.at).toMilliseconds());
        }
    }

  private:
    cluster::LeastOutstandingPolicy inner_;
    sim::Simulation &sim_;
    const obs::Counter &completed_;
    std::int64_t seen_ = 0;
    Rep &rep_;
    std::vector<double> &waitMs_;
    CallTimer *timer_;
    bool record_;
};

/** Charges ClusterGateway::onArrival to a timer. */
class TimedSink final : public load::ArrivalSink
{
  public:
    TimedSink(load::ArrivalSink &inner, CallTimer &timer)
        : inner_(inner), timer_(timer)
    {}

    void
    onArrival(const load::Arrival &a) override
    {
        timer_.time([&] { inner_.onArrival(a); });
    }

  private:
    load::ArrivalSink &inner_;
    CallTimer &timer_;
};

/**
 * Host ns and heap allocations per OpenLoopGenerator::next call,
 * measured on a fresh generator over @p spec drained in one timed
 * pass (so the clock is read twice, not twice per call).
 */
void
timeGenerator(const load::TraceSpec &spec, CallTimer &timer)
{
    load::OpenLoopGenerator gen(spec);
    load::Arrival a;
    const std::uint64_t a0 = allocCount();
    const std::uint64_t t0 = CallTimer::nowNs();
    std::uint64_t calls = 1;
    while (gen.next(a))
        ++calls;
    timer.ns = CallTimer::nowNs() - t0;
    timer.allocs = allocCount() - a0;
    timer.calls = calls;
}

Rep
runCluster(ClusterScenario sc, const RepConfig &cfg)
{
    Rep rep;
    const double c0 = threadCpuSeconds();

    sim::Simulation sim(cfg.seed);
    std::unique_ptr<obs::Tracer> tracer;
    if (cfg.traced) {
        tracer = std::make_unique<obs::Tracer>(sim, cfg.seed);
        sc.fleet.runtime.tracer = tracer.get();
    }
    cluster::Fleet fleet(sim, sc.fleet);
    for (const auto &fn : sc.spec.functions)
        fleet.registerCpuFunction(fn,
                                  {hw::PuType::HostCpu, hw::PuType::Dpu});
    CallTimer placeT, keepAliveT, arrivalT, pickT, nextT;
    if (cfg.traced)
        for (int i = 0; i < fleet.size(); ++i)
            installTimedPolicies(fleet.node(i), placeT, keepAliveT);
    fleet.start();

    obs::Registry registry;
    cluster::ClusterStats stats(registry);
    cluster::CostModel cost;
    stats.setCostModel(&cost, fleet.puTypeTable());

    std::vector<double> waitMs;
    ObservedDispatch dispatch(sim, registry.counter("cluster.completed"),
                              rep, waitMs, cfg.traced ? &pickT : nullptr,
                              cfg.samples);

    cluster::GatewayConfig gw =
        cluster::GatewayConfig::forFunctions(sc.spec.functions, stats);
    gw.admission.tokensPerSecond = 0.0;
    gw.admission.queueCapacity = 2048;
    gw.admission.maxOutstandingPerNode = 96;
    gw.admission.invoke.maxAttempts = 2;
    gw.dispatch = &dispatch;
    cluster::ClusterGateway gateway(fleet, gw);
    TimedSink timedGateway(gateway, arrivalT);
    load::OpenLoopGenerator gen(sc.spec);

    rep.setupCpuS = threadCpuSeconds() - c0;
    if (cfg.setupOnly)
        return rep;
    if (cfg.samples) {
        const auto expected =
            std::size_t(sc.spec.expectedArrivals() * 1.1);
        waitMs.reserve(expected);
        rep.latencyMs.reserve(expected);
    }

    const sim::SimTime start = sim.now();
    const std::uint64_t a0 = allocCount();
    const double c1 = threadCpuSeconds();
    sim.spawn(cfg.traced ? load::drive(sim, gen, timedGateway)
                         : load::drive(sim, gen, gateway));
    double tallyS = 0.0;
    rep.events = runLoop(sim, tracer.get(), &rep.spans, tallyS);
    rep.loopCpuS = threadCpuSeconds() - c1 - tallyS;
    rep.allocs = allocCount() - a0;
    rep.simSeconds = (sim.now() - start).toSeconds();

    const cluster::ClusterSummary s =
        stats.summarize(sim.now(), fleet.coreTable());
    rep.digest = stats.digest();
    rep.ops = s.completed;
    rep.attempted = s.arrivals;
    rep.failed = s.shed + s.dropped + s.errors;
    rep.detail = "arrivals=" + std::to_string(s.arrivals) +
                 " admitted=" + std::to_string(s.admitted) +
                 " shed=" + std::to_string(s.shed) +
                 " dropped=" + std::to_string(s.dropped) +
                 " completed=" + std::to_string(s.completed) +
                 " errors=" + std::to_string(s.errors);
    if (s.arrivals != s.admitted + s.shed + s.dropped)
        rep.accountingError = "arrivals != admitted + shed + dropped";
    else if (s.admitted != s.completed + s.errors)
        rep.accountingError = "admitted != completed + errors";
    else if (cfg.samples &&
             std::int64_t(rep.latencyMs.size()) != s.completed)
        rep.accountingError = "latency samples != completions";

    const double ops = double(s.completed > 0 ? s.completed : 1);
    rep.exact["cost_cents_per_kinv"] = stats.totalCost() * 1e5 / ops;
    std::sort(waitMs.begin(), waitMs.end());
    rep.exact["cluster.queue_wait_p99_ms"] =
        waitMs.empty() ? 0.0 : percentile(waitMs, 99.0);
    rep.exact["cluster.queue_max_depth"] = double(s.queueMaxDepth);
    CoreCounters core;
    for (int i = 0; i < fleet.size(); ++i)
        core.add(fleet.node(i));
    core.record(rep, s.completed);

    if (cfg.traced) {
        timeGenerator(sc.spec, nextT);
        recordTimer(rep, "load.next", nextT);
        recordTimer(rep, "cluster.on_arrival", arrivalT);
        recordTimer(rep, "cluster.pick", pickT);
        recordTimer(rep, "core.place", placeT);
        rep.layerNs["core.keepalive_ns"] = double(keepAliveT.ns) / ops;
    }
    return rep;
}

/**
 * Two tenants, 3:1 traffic shares. The generator shuffles each
 * tenant's popularity ranking with (seed ^ salt), so the salts are
 * folded with the seed to pin the ranking seed 42 gives with salts 1
 * and 2: the seed varies arrival instants and draws, never which
 * functions are hot (that would swing the fleet's capacity 3x).
 */
std::vector<load::TenantSpec>
twoTenants(std::uint64_t seed, double zipfA, double zipfB)
{
    constexpr std::uint64_t kRankingSeed = 42;
    return {{"alpha", 3.0, zipfA, kRankingSeed ^ seed ^ 1},
            {"beta", 1.0, zipfB, kRankingSeed ^ seed ^ 2}};
}

} // namespace

Rep
runOverloadWarm(const RepConfig &cfg)
{
    ClusterScenario sc;
    sc.spec.seed = cfg.seed;
    sc.spec.ratePerSecond = 768.0; // 1.6x the DPU-bound ceiling
    sc.spec.duration = sim::SimTime::fromSeconds(600.0);
    sc.spec.functions = {"helloworld", "pyaes", "dd", "gzip-compression"};
    sc.spec.tenants = twoTenants(cfg.seed, 1.1, 0.77);
    sc.fleet.nodes = 4;
    sc.fleet.dpusPerNode = 2;
    return runCluster(std::move(sc), cfg);
}

Rep
runColdChurn(const RepConfig &cfg)
{
    ClusterScenario sc;
    sc.spec.seed = cfg.seed;
    sc.spec.ratePerSecond = 240.0;
    sc.spec.duration = sim::SimTime::fromSeconds(400.0);
    for (const auto &fn : workloads::Catalog::functionBenchNames())
        if (fn != "video-processing" && fn != "linpack")
            sc.spec.functions.push_back(fn);
    for (const auto &fn : workloads::Catalog::alexaChain())
        sc.spec.functions.push_back(fn);
    for (const auto &fn : workloads::Catalog::mapReduceChain())
        sc.spec.functions.push_back(fn);
    sc.spec.tenants = twoTenants(cfg.seed, 0.4, 0.28);
    sc.fleet.nodes = 4;
    sc.fleet.dpusPerNode = 2;
    sc.fleet.runtime.startup.globalWarmCapacityPerPu = 4;
    return runCluster(std::move(sc), cfg);
}

} // namespace molbench
