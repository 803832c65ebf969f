#include "cluster/gateway.hh"

#include <algorithm>

#include "obs/flight_recorder.hh"
#include "sim/logging.hh"
#include "sim/simulation.hh"

namespace molecule::cluster {

const char *
toString(DropPolicy p)
{
    switch (p) {
    case DropPolicy::DropNewest:
        return "drop-newest";
    case DropPolicy::DropOldest:
        return "drop-oldest";
    }
    return "?";
}

int
LeastOutstandingPolicy::pick(const load::Arrival &a,
                             std::span<const int> outstanding, int cap)
{
    (void)a;
    int best = -1;
    int bestLoad = cap;
    for (std::size_t node = 0; node < outstanding.size(); ++node) {
        if (outstanding[node] < bestLoad) {
            bestLoad = outstanding[node];
            best = int(node);
        }
    }
    return best;
}

int
WarmAffinityPolicy::pick(const load::Arrival &a,
                         std::span<const int> outstanding, int cap)
{
    const auto it = home_.find(a.fn);
    if (it != home_.end() && outstanding[std::size_t(it->second)] < cap)
        return it->second;
    LeastOutstandingPolicy fallback;
    const int node = fallback.pick(a, outstanding, cap);
    if (node >= 0)
        home_[a.fn] = node;
    return node;
}

core::Status
GatewayConfig::validate() const
{
    if (stats == nullptr)
        return core::Error(core::Errc::InvalidArgument,
                           "GatewayConfig.stats is required");
    if (functions.empty())
        return core::Error(core::Errc::InvalidArgument,
                           "GatewayConfig.functions is empty");
    if (admission.maxOutstandingPerNode <= 0)
        return core::Error(
            core::Errc::InvalidArgument,
            "GatewayConfig.admission.maxOutstandingPerNode must be "
            "positive");
    if (admission.tokensPerSecond < 0.0)
        return core::Error(
            core::Errc::InvalidArgument,
            "GatewayConfig.admission.tokensPerSecond is negative");
    if (admission.tokensPerSecond > 0.0 &&
        admission.bucketCapacity < 1.0)
        return core::Error(
            core::Errc::InvalidArgument,
            "GatewayConfig.admission.bucketCapacity must be >= 1 "
            "when rate policing is on");
    return core::Status();
}

GatewayConfig
GatewayConfig::forFunctions(std::vector<std::string> fns,
                            ClusterStats &stats)
{
    GatewayConfig cfg;
    cfg.functions = std::move(fns);
    cfg.stats = &stats;
    return cfg;
}

namespace {

/** Fail fast on a broken config, before any member binds to it. */
GatewayConfig &
validated(GatewayConfig &config)
{
    const core::Status st = config.validate();
    MOLECULE_ASSERT(st.ok(), "invalid GatewayConfig: %s",
                    st.error().detail().c_str());
    return config;
}

} // namespace

ClusterGateway::ClusterGateway(Fleet &fleet, GatewayConfig config)
    : fleet_(fleet),
      functions_(std::move(validated(config).functions)),
      opts_(config.admission),
      ownedPolicy_(config.dispatch == nullptr
                       ? std::make_unique<LeastOutstandingPolicy>()
                       : nullptr),
      policy_(config.dispatch != nullptr ? config.dispatch
                                         : ownedPolicy_.get()),
      stats_(*config.stats), recorder_(config.recorder),
      tokens_(config.admission.bucketCapacity),
      lastRefill_(fleet.simulation().now()),
      outstanding_(std::size_t(fleet.size()), 0)
{
}

void
ClusterGateway::refill()
{
    const sim::SimTime now = fleet_.simulation().now();
    if (now > lastRefill_) {
        tokens_ += (now - lastRefill_).toSeconds() *
                   opts_.tokensPerSecond;
        tokens_ = std::min(tokens_, opts_.bucketCapacity);
        lastRefill_ = now;
    }
}

void
ClusterGateway::onArrival(const load::Arrival &a)
{
    stats_.onArrival(int(a.tenant));
    if (a.fn >= functions_.size()) {
        // A caller-side mistake, not a node failure: a typed error
        // charged to no node, which keeps arrivals = admitted + shed +
        // dropped and admitted = completed + errors.
        stats_.onAdmitted(int(a.tenant));
        stats_.onError(-1, std::uint8_t(core::Errc::InvalidArgument),
                       int(a.tenant));
        return;
    }
    if (opts_.tokensPerSecond > 0.0) {
        refill();
        if (tokens_ < 1.0) {
            stats_.onShed(int(a.tenant));
            return;
        }
        tokens_ -= 1.0;
    }
    const int node =
        policy_->pick(a, outstanding_, opts_.maxOutstandingPerNode);
    if (node >= 0) {
        dispatch(a, node);
        return;
    }
    if (queue_.size() >= opts_.queueCapacity) {
        if (opts_.dropPolicy == DropPolicy::DropNewest) {
            stats_.onDropped(int(a.tenant));
            return; // the new arrival is the casualty
        }
        // DropOldest: the evicted front takes the drop, under its
        // own tenant — not the arrival that displaced it.
        stats_.onDropped(int(queue_.empty() ? a.tenant
                                            : queue_.front().tenant));
        if (!queue_.empty())
            queue_.pop_front();
    }
    queue_.push_back(a);
    stats_.onQueueDepth(queue_.size());
}

void
ClusterGateway::pump()
{
    while (!queue_.empty()) {
        const int node = policy_->pick(
            queue_.front(), outstanding_, opts_.maxOutstandingPerNode);
        if (node < 0)
            break;
        const load::Arrival a = queue_.front();
        queue_.pop_front();
        dispatch(a, node);
    }
    stats_.onQueueDepth(queue_.size());
}

void
ClusterGateway::dispatch(const load::Arrival &a, int node)
{
    stats_.onAdmitted(int(a.tenant));
    stats_.onDispatched(fleet_.simulation().now() - a.at);
    ++outstanding_[std::size_t(node)];
    fleet_.simulation().spawn(serve(a, node));
}

sim::Task<>
ClusterGateway::serve(load::Arrival a, int node)
{
    // onArrival rejected out-of-range indices, so a.fn is valid here.
    core::Molecule &rt = fleet_.node(node);
    const std::string &fn = functions_[a.fn];
    const core::FunctionDef *def = rt.registry().findPtr(fn);
    auto result = co_await rt.invoke(fn, opts_.invoke);
    sim::Simulation &sim = fleet_.simulation();
    if (result.ok()) {
        // Cross-PU serves paid the manager->worker delivery; that
        // volume is the cost model's egress term.
        std::uint64_t transferBytes = 0;
        if (result.value().pu != rt.options().managerPu &&
            def != nullptr && def->cpuWork != nullptr)
            transferBytes = def->cpuWork->msgBytes;
        stats_.onCompleted(node, result.value(), sim.now() - a.at,
                           int(a.tenant), transferBytes);
    } else {
        stats_.onError(node, std::uint8_t(result.error().code()),
                       int(a.tenant));
        // A hang is the black-box moment: the watchdog just caught a
        // wedged node, so freeze the evidence before the cascade.
        if (recorder_ != nullptr &&
            result.error().code() == core::Errc::Hang)
            recorder_->trigger("errc.hang", sim.now());
    }
    --outstanding_[std::size_t(node)];
    policy_->onComplete(a, node);
    pump();
}

bool
ClusterGateway::idle() const
{
    if (!queue_.empty())
        return false;
    return std::all_of(outstanding_.begin(), outstanding_.end(),
                       [](int o) { return o == 0; });
}

} // namespace molecule::cluster
