#include "cluster/stats.hh"

#include <algorithm>

namespace molecule::cluster {

ClusterStats::ClusterStats(obs::Registry &registry)
    : reg_(registry),
      arrivals_(&reg_.counter("cluster.arrivals")),
      admitted_(&reg_.counter("cluster.admitted")),
      shed_(&reg_.counter("cluster.shed")),
      dropped_(&reg_.counter("cluster.dropped")),
      completed_(&reg_.counter("cluster.completed")),
      errors_(&reg_.counter("cluster.errors")),
      queueMax_(&reg_.counter("cluster.queue_max_depth")),
      queueDepth_(&reg_.gauge("cluster.queue_depth")),
      e2eUs_(&reg_.histogram("cluster.e2e_us")),
      queueWaitUs_(&reg_.histogram("cluster.queue_wait_us")),
      execUs_(&reg_.histogram("cluster.exec_us"))
{
}

void
ClusterStats::attachTelemetry(obs::TimeSeries *ts)
{
    ts_ = ts;
    if (ts_ == nullptr)
        return;
    ts_->watch(reg_);
    tsQueueDepth_ = ts_->gaugeId("gateway.queue_depth");
    // Tenants/nodes touched before attachment get their series now;
    // later ones get theirs on first touch.
    for (auto &[t, state] : tenants_) {
        (void)state;
        tenant(t);
    }
    for (auto &[n, state] : nodes_) {
        (void)state;
        node(n);
    }
}

ClusterStats::TenantState &
ClusterStats::tenant(int t)
{
    TenantState &s = tenants_[t];
    if (ts_ != nullptr && !s.tsReady) {
        s.tsReady = true;
        s.tsArrivals = ts_->counterId("tenant.arrivals", t);
        s.tsAdmitted = ts_->counterId("tenant.admitted", t);
        s.tsShed = ts_->counterId("tenant.shed", t);
        s.tsDropped = ts_->counterId("tenant.dropped", t);
        s.tsCompleted = ts_->counterId("tenant.completed", t);
        s.tsErrors = ts_->counterId("tenant.errors", t);
        s.tsE2eUs = ts_->histogramId("tenant.e2e_us", t);
    }
    return s;
}

ClusterStats::NodeState &
ClusterStats::node(int n)
{
    NodeState &s = nodes_[n];
    if (ts_ != nullptr && !s.tsReady) {
        s.tsReady = true;
        s.tsCompleted = ts_->counterId("node.completed", -1, n);
        s.tsErrors = ts_->counterId("node.errors", -1, n);
        s.tsExecUs = ts_->histogramId("node.exec_us", -1, n);
    }
    return s;
}

void
ClusterStats::onArrival(int t)
{
    arrivals_->inc();
    TenantState &s = tenant(t);
    ++s.arrivals;
    if (ts_ != nullptr)
        ts_->count(s.tsArrivals);
}

void
ClusterStats::onShed(int t)
{
    shed_->inc();
    fp_.mix(0x5348ULL); // "SH"
    fp_.mix(std::uint64_t(t));
    TenantState &s = tenant(t);
    ++s.shed;
    if (ts_ != nullptr)
        ts_->count(s.tsShed);
}

void
ClusterStats::onDropped(int t)
{
    dropped_->inc();
    fp_.mix(0x4452ULL); // "DR"
    fp_.mix(std::uint64_t(t));
    TenantState &s = tenant(t);
    ++s.dropped;
    if (ts_ != nullptr)
        ts_->count(s.tsDropped);
}

void
ClusterStats::onAdmitted(int t)
{
    admitted_->inc();
    TenantState &s = tenant(t);
    ++s.admitted;
    if (ts_ != nullptr)
        ts_->count(s.tsAdmitted);
}

void
ClusterStats::onQueueDepth(std::size_t depth)
{
    queueDepth_->set(double(depth));
    if (std::int64_t(depth) > queueMax_->value()) {
        queueMax_->reset();
        queueMax_->inc(std::int64_t(depth));
    }
    if (ts_ != nullptr)
        ts_->set(tsQueueDepth_, double(depth));
}

void
ClusterStats::onDispatched(sim::SimTime queueWait)
{
    queueWaitUs_->addTime(queueWait);
}

void
ClusterStats::onCompleted(int n, const obs::InvocationRecord &rec,
                          sim::SimTime endToEnd, int t,
                          std::uint64_t transferBytes)
{
    completed_->inc();
    e2eUs_->addTime(endToEnd);
    execUs_->addTime(rec.execution);
    charge(n, rec.pu, rec.execution);
    fp_.mix(std::uint64_t(endToEnd.raw()));
    fp_.mix(std::uint64_t(n));
    fp_.mix(std::uint64_t(rec.pu));
    fp_.mix(std::uint64_t(t));
    TenantState &ts = tenant(t);
    ++ts.completed;
    ts.e2eUs.addTime(endToEnd);
    if (cost_ != nullptr) {
        const auto it = puTypes_.find({n, rec.pu});
        const hw::PuType kind = it != puTypes_.end()
                                    ? it->second
                                    : hw::PuType::HostCpu;
        const double dollars = cost_->invocationCost(
            kind, rec.execution, transferBytes);
        totalCost_ += dollars;
        ts.cost += dollars;
        fp_.mixDouble(dollars);
    }
    NodeState &ns = node(n);
    if (ts_ != nullptr) {
        ts_->count(ts.tsCompleted);
        ts_->observeTime(ts.tsE2eUs, endToEnd);
        ts_->count(ns.tsCompleted);
        ts_->observeTime(ns.tsExecUs, rec.execution);
    }
}

void
ClusterStats::onError(int n, std::uint8_t errc, int t)
{
    errors_->inc();
    fp_.mix(0x4552ULL); // "ER"
    fp_.mix(std::uint64_t(n));
    fp_.mix(std::uint64_t(errc));
    fp_.mix(std::uint64_t(t));
    TenantState &ts = tenant(t);
    ++ts.errors;
    // Node -1: rejected at the gateway, no node to charge.
    NodeState *ns = n >= 0 ? &node(n) : nullptr;
    if (ts_ != nullptr) {
        ts_->count(ts.tsErrors);
        if (ns != nullptr)
            ts_->count(ns->tsErrors);
    }
}

void
ClusterStats::charge(int node, int pu, sim::SimTime busy)
{
    busy_[{node, pu}] += busy;
}

void
ClusterStats::setCostModel(
    const CostModel *model,
    std::map<std::pair<int, int>, hw::PuType> puTypes)
{
    cost_ = model;
    puTypes_ = std::move(puTypes);
}

ClusterSummary
ClusterStats::summarize(
    sim::SimTime horizon,
    const std::map<std::pair<int, int>, int> &cores) const
{
    ClusterSummary s;
    s.arrivals = arrivals_->value();
    s.admitted = admitted_->value();
    s.shed = shed_->value();
    s.dropped = dropped_->value();
    s.completed = completed_->value();
    s.errors = errors_->value();
    s.queueMaxDepth = queueMax_->value();
    if (horizon.raw() > 0)
        s.throughputPerSecond =
            double(s.completed) / horizon.toSeconds();
    s.p50Us = e2eUs_->percentile(50);
    s.p99Us = e2eUs_->percentile(99);
    s.p999Us = e2eUs_->percentile(99.9);
    s.meanUs = e2eUs_->mean();
    s.queueWaitP99Us = queueWaitUs_->percentile(99);
    s.totalCost = totalCost_;
    if (s.completed > 0)
        s.costPerInvocation = totalCost_ / double(s.completed);
    for (const auto &[key, busy] : busy_) {
        PuUtilization u;
        u.node = key.first;
        u.pu = key.second;
        u.busy = busy;
        const auto it = cores.find(key);
        const int n = it != cores.end() ? std::max(it->second, 1) : 1;
        if (horizon.raw() > 0)
            u.utilization =
                busy.toSeconds() / (horizon.toSeconds() * double(n));
        s.utilization.push_back(u);
    }
    for (const auto &[t, state] : tenants_) {
        TenantSummary row;
        row.tenant = t;
        row.arrivals = state.arrivals;
        row.admitted = state.admitted;
        row.shed = state.shed;
        row.dropped = state.dropped;
        row.completed = state.completed;
        row.errors = state.errors;
        row.p50Us = state.e2eUs.percentile(50);
        row.p99Us = state.e2eUs.percentile(99);
        row.meanUs = state.e2eUs.mean();
        row.cost = state.cost;
        s.tenants.push_back(row);
    }
    return s;
}

std::uint64_t
ClusterStats::digest() const
{
    // Close over the running stream with the final counters so two
    // runs differing only in tail bookkeeping cannot collide.
    sim::Fingerprint fp = fp_;
    fp.mix(std::uint64_t(arrivals_->value()));
    fp.mix(std::uint64_t(admitted_->value()));
    fp.mix(std::uint64_t(shed_->value()));
    fp.mix(std::uint64_t(dropped_->value()));
    fp.mix(std::uint64_t(completed_->value()));
    fp.mix(std::uint64_t(errors_->value()));
    for (const auto &[key, busy] : busy_) {
        fp.mix(std::uint64_t(key.first));
        fp.mix(std::uint64_t(key.second));
        fp.mix(std::uint64_t(busy.raw()));
    }
    for (const auto &[t, state] : tenants_) {
        fp.mix(std::uint64_t(t));
        fp.mix(std::uint64_t(state.arrivals));
        fp.mix(std::uint64_t(state.admitted));
        fp.mix(std::uint64_t(state.shed));
        fp.mix(std::uint64_t(state.dropped));
        fp.mix(std::uint64_t(state.completed));
        fp.mix(std::uint64_t(state.errors));
    }
    // Cost joins the fold only when a model is attached, so goldens
    // pinned on cost-free runs stay bit-identical.
    if (cost_ != nullptr)
        fp.mixDouble(totalCost_);
    return fp.digest();
}

} // namespace molecule::cluster
