/**
 * @file
 * Scenario: one cluster experiment as a value, and the one runner
 * that wires it.
 *
 * Every cluster-scale report, bench and test runs the same sequence:
 * Fleet → register the trace's functions on {HostCpu, Dpu} → boot →
 * ClusterStats (+ CostModel) → ClusterGateway → OpenLoopGenerator →
 * load::drive → run → summary and digests. The order fixes the event
 * stream, so it fixes every digest: a TimeSeries anchors its window
 * grid at sim.now(), and the gateway starts its token-bucket refill
 * from sim.now(). Scenario is the only place that order is written.
 *
 * Boot and drive are split. The constructor boots the fleet and
 * builds the scoreboard; run() builds the gateway and drives the
 * stream to completion. In between, callers attach what reads the
 * clock or watches the run (a TimeSeries through
 * stats().attachTelemetry, an SloMonitor, a fault injector), and
 * benches start their wall clock — which keeps it out of src/.
 *
 * @code
 *   sim::Simulation sim(seed);
 *   cluster::Scenario scenario(sim, cluster::clusterLadder(seed, 480.0,
 *                                                         horizon));
 *   obs::TimeSeries ts(sim);              // optional observers here
 *   scenario.stats().attachTelemetry(&ts);
 *   const cluster::ScenarioResult r = scenario.run();
 *   // r.summary.p99Us, r.statsDigest, ...
 * @endcode
 */

#ifndef MOLECULE_CLUSTER_SCENARIO_HH
#define MOLECULE_CLUSTER_SCENARIO_HH

#include <cstdint>
#include <optional>

#include "cluster/cost.hh"
#include "cluster/fleet.hh"
#include "cluster/gateway.hh"
#include "cluster/stats.hh"
#include "load/spec.hh"
#include "obs/registry.hh"

namespace molecule::cluster {

/**
 * What one cluster run is made of. A copyable value: every
 * SweepRunner replica takes its own copy.
 */
struct ScenarioSpec
{
    /** Fleet shape and the per-node runtime options template. */
    FleetSpec fleet;
    /** The open-loop stream; its functions are the catalogue every
     * node registers (on HostCpu and Dpu) and the gateway maps. */
    load::TraceSpec trace;
    /** Gateway rate policing, backlog and concurrency knobs. */
    AdmissionOptions admission;
    /** Price card; set, every completion is costed (and cost joins
     * the stats digest). */
    std::optional<CostModel> cost;
};

/** Non-owning observers and policies handed to the gateway; each
 * must outlive run(). */
struct ScenarioHooks
{
    /** Node-selection policy; null keeps the gateway's
     * least-outstanding default. */
    DispatchPolicy *dispatch = nullptr;
    /** Post-mortem bundle dump on Errc::Hang (optional). */
    obs::FlightRecorder *recorder = nullptr;
};

/** What one run produced. */
struct ScenarioResult
{
    /** Scoreboard over [boot end, drain]. */
    ClusterSummary summary;
    std::uint64_t statsDigest = 0;
    /** Per-node Scheduler::placementDigest, folded in node order. */
    std::uint64_t placementDigest = 0;
    /** Per-node StartupManager::evictionDigest, folded in node
     * order. */
    std::uint64_t evictionDigest = 0;
    /** Arrivals the generator emitted. */
    std::uint64_t generated = 0;
    /** Nothing was left queued or in flight at the gateway. */
    bool drained = false;
};

/**
 * One booted cluster plus its scoreboard, ready to be driven once.
 */
class Scenario
{
  public:
    /** Build the fleet, register the catalogue, boot every node (runs
     * the simulation), then build the stats (with cost, if set). */
    Scenario(sim::Simulation &sim, ScenarioSpec spec);

    Scenario(const Scenario &) = delete;
    Scenario &operator=(const Scenario &) = delete;

    Fleet &fleet() { return fleet_; }

    ClusterStats &stats() { return stats_; }

    /** Build the gateway and drive the whole stream through it until
     * the simulation drains. Call once. */
    ScenarioResult run(const ScenarioHooks &hooks = {});

  private:
    sim::Simulation &sim_;
    ScenarioSpec spec_;
    Fleet fleet_;
    obs::Registry registry_;
    ClusterStats stats_;
};

/** Boot and run @p spec on a fresh Simulation seeded with
 * spec.trace.seed — one seed names the whole run. */
ScenarioResult runScenario(const ScenarioSpec &spec,
                           const ScenarioHooks &hooks = {});

/** @name Named scenarios shared by the report tools and benches */
///@{

/** The token-bucket rate of clusterLadder: its 1.0x rung, inv/s. */
inline constexpr double kLadderAdmittedPerSecond = 300.0;

/** The measured DPU-bound ceiling of policyRace (price-ordered
 * placement, 4 nodes x 2 BF2), inv/s. */
inline constexpr double kRaceCeilingPerSecond = 480.0;

/**
 * The two-tenant catalogue stream: Poisson arrivals over four
 * catalogue functions; tenant alpha (share 3, Zipf 1.1) and beta
 * (share 1, Zipf 0.8) rank them with different salts.
 */
load::TraceSpec catalogueTrace(std::uint64_t seed, double ratePerSecond,
                               sim::SimTime duration);

/**
 * tools/cluster_report's ladder: a 4-node 2xBF2 fleet behind a token
 * bucket at kLadderAdmittedPerSecond (burst 200), backlog 2048, 96
 * in flight per node, two attempts per invocation.
 */
ScenarioSpec clusterLadder(std::uint64_t seed, double ratePerSecond,
                           sim::SimTime duration);

/**
 * tools/policy_report's race: the same fleet and backlog behind an
 * open gateway (node capacity binds, not policing), with the default
 * price card attached. Callers install the raced placement and
 * keep-alive configs in fleet.runtime.
 */
ScenarioSpec policyRace(std::uint64_t seed, double ratePerSecond,
                        sim::SimTime duration);

/**
 * tools/policy_report's churn rung: policyRace's fleet, open gateway
 * and price card under cold_churn's stream. Fourteen CPU functions
 * (FunctionBench without video-processing and linpack, plus the Alexa
 * and map-reduce chains); tenant alpha (share 3, Zipf 0.4) and beta
 * (share 1, Zipf 0.28); four warm instances per PU, so keep-alive
 * evicts and its strategy decides what stays warm.
 */
ScenarioSpec churnRace(std::uint64_t seed, double ratePerSecond,
                       sim::SimTime duration);
///@}

} // namespace molecule::cluster

#endif // MOLECULE_CLUSTER_SCENARIO_HH
