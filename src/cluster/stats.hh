/**
 * @file
 * ClusterStats: the tail-latency scoreboard of one fleet run.
 *
 * Every admission decision and completion of the ClusterGateway lands
 * here, published through the existing obs::Registry vocabulary
 * (counters / gauges / log-bucketed histograms) so tools read cluster
 * numbers exactly like per-invocation trace metrics:
 *
 *   counters   cluster.arrivals / admitted / shed / dropped /
 *              completed / errors, cluster.queue_max_depth
 *   gauges     cluster.queue_depth (current backlog)
 *   histograms cluster.e2e_us (arrival -> completion, queue wait
 *              included), cluster.queue_wait_us, cluster.exec_us
 *
 * Per-PU utilization is tracked exactly (busy nanoseconds per
 * (node, pu), divided by horizon x cores at report time) rather than
 * through bucketed histograms, and the whole scoreboard folds into an
 * order-sensitive FNV-1a digest the golden tests pin serial and under
 * SweepRunner.
 */

#ifndef MOLECULE_CLUSTER_STATS_HH
#define MOLECULE_CLUSTER_STATS_HH

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cost.hh"
#include "obs/records.hh"
#include "obs/registry.hh"
#include "obs/timeseries.hh"
#include "sim/stats.hh"
#include "sim/time.hh"

namespace molecule::cluster {

/** Utilization of one PU over the run horizon. */
struct PuUtilization
{
    int node = 0;
    int pu = 0;
    /** Sum of execution time charged to this PU. */
    sim::SimTime busy;
    /** busy / (horizon x cores); may exceed 1 transiently when more
     * instances than cores overlap (cores queue, execution spans
     * include the overlap). */
    double utilization = 0.0;
};

/** Per-tenant slice of the scoreboard. */
struct TenantSummary
{
    int tenant = 0;
    std::int64_t arrivals = 0;
    std::int64_t admitted = 0;
    std::int64_t shed = 0;
    std::int64_t dropped = 0;
    std::int64_t completed = 0;
    std::int64_t errors = 0;
    /** End-to-end latency of this tenant's completions, us. */
    double p50Us = 0.0;
    double p99Us = 0.0;
    double meanUs = 0.0;
    /** Accumulated $ of this tenant's completions (0 without a cost
     * model attached). */
    double cost = 0.0;
};

/** Snapshot of the scoreboard (one row of a rate-ladder table). */
struct ClusterSummary
{
    std::int64_t arrivals = 0;
    std::int64_t admitted = 0;
    /** Rejected by the token bucket (rate policing). */
    std::int64_t shed = 0;
    /** Evicted from the bounded queue (backlog overflow). */
    std::int64_t dropped = 0;
    std::int64_t completed = 0;
    /** Typed invocation errors (NoCapacity under overload, faults). */
    std::int64_t errors = 0;
    std::int64_t queueMaxDepth = 0;
    /** Completions per simulated second. */
    double throughputPerSecond = 0.0;
    /** End-to-end latency percentiles, microseconds. */
    double p50Us = 0.0;
    double p99Us = 0.0;
    double p999Us = 0.0;
    double meanUs = 0.0;
    double queueWaitP99Us = 0.0;
    /** Accumulated $ across all completions (0 without a model). */
    double totalCost = 0.0;
    /** Mean $ per completed invocation. */
    double costPerInvocation = 0.0;
    std::vector<PuUtilization> utilization;
    /** Per-tenant attribution, ascending tenant id. */
    std::vector<TenantSummary> tenants;
};

/**
 * Scoreboard over one run; owns nothing, writes into the registry the
 * caller provides (one registry per replica keeps SweepRunner runs
 * isolated).
 */
class ClusterStats
{
  public:
    explicit ClusterStats(obs::Registry &registry);

    obs::Registry &registry() { return reg_; }

    /**
     * Mirror the feed into a windowed TimeSeries: per-tenant
     * "tenant.*" series, per-node "node.*" series and the
     * "gateway.queue_depth" gauge (label ids are the tenant/node
     * indices — see the cardinality rule in obs/timeseries.hh). The
     * run-total registry is watch()ed too, so the cluster.* vocabulary
     * shows up windowed for free. Observation only: attaching must
     * not — and by construction cannot — change stats digests.
     */
    void attachTelemetry(obs::TimeSeries *ts);

    /** @name Gateway feed (one call per event, in event order;
     * @p tenant is the arrival's tenant label) */
    ///@{
    void onArrival(int tenant = 0);

    void onShed(int tenant = 0);

    void onDropped(int tenant = 0);

    void onAdmitted(int tenant = 0);

    void onQueueDepth(std::size_t depth);

    void onDispatched(sim::SimTime queueWait);

    /** A completed invocation served on (node, rec.pu);
     * @p transferBytes is the cross-PU delivery volume (cost model
     * egress — 0 when the manager PU served it directly). */
    void onCompleted(int node, const obs::InvocationRecord &rec,
                     sim::SimTime endToEnd, int tenant = 0,
                     std::uint64_t transferBytes = 0);

    /** A typed failure: the arrival was admitted but not served, or
     * (@p node -1) the gateway rejected it before dispatch. */
    void onError(int node, std::uint8_t errc, int tenant = 0);
    ///@}

    /** Busy-time charge for utilization (normally via onCompleted). */
    void charge(int node, int pu, sim::SimTime busy);

    /**
     * Attach the $-cost model: every later completion accrues
     * invocationCost() under its tenant. @p puTypes maps (node, pu)
     * to kinds for the per-PU-second rate (see Fleet::puTypeTable).
     * Null detaches. Attachment changes the digest domain (cost joins
     * the fold), so goldens pinned without a model stay untouched.
     */
    void setCostModel(const CostModel *model,
                      std::map<std::pair<int, int>, hw::PuType>
                          puTypes = {});

    /** Accumulated $ so far (0 without a model). */
    double totalCost() const { return totalCost_; }

    /**
     * Summarize the scoreboard over @p horizon. @p cores maps flat
     * (node, pu) pairs to core counts for utilization; pass the
     * fleet's table (see Fleet::coreTable).
     */
    ClusterSummary
    summarize(sim::SimTime horizon,
              const std::map<std::pair<int, int>, int> &cores) const;

    /**
     * Order-sensitive digest of everything recorded so far: every
     * completion (latency, node, pu) and error in arrival order plus
     * the final counters. Bit-identical across replays of the same
     * scenario — the cluster golden the determinism tests pin.
     */
    std::uint64_t digest() const;

  private:
    /**
     * Per-tenant slice: exact counters, a private latency histogram
     * for the summary percentiles, and (when telemetry is attached)
     * the tenant-labeled series ids. Tenants materialize on first
     * touch, so the map stays as small as the traffic mix.
     */
    struct TenantState
    {
        std::int64_t arrivals = 0;
        std::int64_t admitted = 0;
        std::int64_t shed = 0;
        std::int64_t dropped = 0;
        std::int64_t completed = 0;
        std::int64_t errors = 0;
        double cost = 0.0;
        obs::Histogram e2eUs;
        bool tsReady = false;
        std::uint32_t tsArrivals = 0;
        std::uint32_t tsAdmitted = 0;
        std::uint32_t tsShed = 0;
        std::uint32_t tsDropped = 0;
        std::uint32_t tsCompleted = 0;
        std::uint32_t tsErrors = 0;
        std::uint32_t tsE2eUs = 0;
    };

    /** Per-node telemetry series ids (exact totals live in busy_). */
    struct NodeState
    {
        bool tsReady = false;
        std::uint32_t tsCompleted = 0;
        std::uint32_t tsErrors = 0;
        std::uint32_t tsExecUs = 0;
    };

    TenantState &tenant(int t);

    NodeState &node(int n);

    obs::Registry &reg_;
    obs::Counter *arrivals_;
    obs::Counter *admitted_;
    obs::Counter *shed_;
    obs::Counter *dropped_;
    obs::Counter *completed_;
    obs::Counter *errors_;
    obs::Counter *queueMax_;
    obs::Gauge *queueDepth_;
    obs::Histogram *e2eUs_;
    obs::Histogram *queueWaitUs_;
    obs::Histogram *execUs_;

    /** Exact busy nanoseconds per (node, pu). */
    std::map<std::pair<int, int>, sim::SimTime> busy_;

    std::map<int, TenantState> tenants_;
    std::map<int, NodeState> nodes_;

    /** Attached collector (null: telemetry mirroring off). */
    obs::TimeSeries *ts_ = nullptr;
    std::uint32_t tsQueueDepth_ = 0;

    /** Attached price card (null: cost accounting off). */
    const CostModel *cost_ = nullptr;
    std::map<std::pair<int, int>, hw::PuType> puTypes_;
    double totalCost_ = 0.0;

    sim::Fingerprint fp_;
};

} // namespace molecule::cluster

#endif // MOLECULE_CLUSTER_STATS_HH
