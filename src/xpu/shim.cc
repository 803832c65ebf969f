#include "xpu/shim.hh"

#include "hw/calibration.hh"
#include "sim/logging.hh"

namespace molecule::xpu {

namespace calib = hw::calib;

XpuShim::XpuShim(XpuShimNetwork &net, os::LocalOs &os,
                 TransportKind transport)
    : net_(net), os_(os), transport_(transport), caps_(os.pu().id())
{
    handlerSlots_ =
        std::make_unique<sim::Semaphore>(os.simulation(), 1);
}

void
XpuShim::setHandlerThreads(int n)
{
    MOLECULE_ASSERT(n > 0, "shim needs at least one handler thread");
    handlerThreads_ = n;
    handlerSlots_ =
        std::make_unique<sim::Semaphore>(os_.simulation(),
                                         std::size_t(n));
}

PuId
XpuShim::puId() const
{
    return os_.pu().id();
}

sim::Task<>
XpuShim::handleCost()
{
    // One shim thread decodes one call at a time; with multi-threaded
    // handling (per-thread MPSC queues, §5), calls are decoded
    // concurrently and bursts no longer convoy.
    ++xpucalls_;
    co_await handlerSlots_->acquire();
    sim::SemGuard g(*handlerSlots_);
    co_await os_.swDelay(calib::kShimHandleCost);
}

sim::Task<>
XpuShim::applySync(const SyncMessage &msg)
{
    co_await os_.swDelay(calib::kSyncApplyCost);
    switch (msg.op) {
      case SyncOp::RegisterObject:
        caps_.registerObject(msg.obj);
        // Replicating owner capabilities with the object keeps every
        // permission check local (§5 "Immediate synchronization").
        caps_.applyGrant(msg.obj.owner, msg.obj.id,
                         Perm::Read | Perm::Write | Perm::Owner);
        break;
      case SyncOp::RemoveObject:
        caps_.removeObject(msg.objId);
        if (msg.pid.pu >= 0)
            caps_.removeGroup(msg.pid);
        break;
      case SyncOp::Grant:
        caps_.applyGrant(msg.pid, msg.objId, msg.perm);
        break;
      case SyncOp::Revoke:
        caps_.applyRevoke(msg.pid, msg.objId, msg.perm);
        break;
    }
}

namespace {

/** One peer delivery: request hop, remote apply, ack hop. */
sim::Task<>
deliverToPeer(XpuShimNetwork &net, PuId from, PuId to, SyncMessage msg,
              obs::SpanContext ctx)
{
    co_await net.transfer(from, to, msg.wireBytes(), ctx);
    co_await net.shimOn(to).applySync(msg);
    co_await net.transfer(to, from, 16, ctx); // ack
}

} // namespace

sim::Task<>
XpuShim::broadcastImmediate(const SyncMessage &msg, obs::SpanContext ctx)
{
    // Apply locally first, then deliver to every peer concurrently and
    // wait for all acks (the call must not return before the state is
    // globally visible).
    obs::Span span(ctx, "xpu.sync", obs::Layer::Xpu, puId());
    co_await applySync(msg);
    std::vector<sim::Task<>> deliveries;
    for (XpuShim *peer : net_.allShims()) {
        if (peer == this)
            continue;
        // Crashed peers drop their replica anyway; they resync from a
        // live shim at restart instead of acking now (never hang).
        if (net_.puDown(peer->puId()))
            continue;
        ++syncSent_;
        deliveries.push_back(
            deliverToPeer(net_, puId(), peer->puId(), msg, span.ctx()));
    }
    span.setArg(std::int64_t(deliveries.size()));
    co_await sim::allOf(os_.simulation(), std::move(deliveries));
}

sim::Task<>
XpuShim::enqueueLazy(const SyncMessage &msg)
{
    // Lazy path (§5): apply locally, batch the remote update. Stale
    // remote state is harmless for reclamation; batching amortizes the
    // wire cost.
    co_await applySync(msg);
    lazyEpoch_.fetchAdd(1);
    lazyQueue_.push_back(msg);
    if (lazyQueue_.size() >= kLazyBatch)
        co_await flushLazy();
}

sim::Task<>
XpuShim::flushLazy()
{
    if (lazyQueue_.empty())
        co_return;
    lazyEpoch_.fetchAdd(1);
    std::vector<SyncMessage> batch;
    batch.swap(lazyQueue_);
    std::uint64_t bytes = 0;
    for (const auto &m : batch)
        bytes += m.wireBytes();
    for (XpuShim *peer : net_.allShims()) {
        if (peer == this)
            continue;
        if (net_.puDown(peer->puId()))
            continue;
        ++syncSent_;
        co_await net_.transfer(puId(), peer->puId(), bytes);
        for (const auto &m : batch)
            co_await peer->applySync(m);
    }
}

sim::Task<core::Status>
XpuShim::grantCap(XpuPid caller, XpuPid target, ObjId obj, Perm perm,
                  obs::SpanContext ctx)
{
    co_await handleCost();
    if (!caps_.check(caller, obj, Perm::Owner))
        co_return core::Status(core::Errc::NoPermission,
                               "caller does not own object", puId());
    SyncMessage msg;
    msg.op = SyncOp::Grant;
    msg.pid = target;
    msg.objId = obj;
    msg.perm = perm;
    co_await broadcastImmediate(msg, ctx);
    co_return core::Status();
}

sim::Task<core::Status>
XpuShim::revokeCap(XpuPid caller, XpuPid target, ObjId obj, Perm perm,
                   obs::SpanContext ctx)
{
    co_await handleCost();
    if (!caps_.check(caller, obj, Perm::Owner))
        co_return core::Status(core::Errc::NoPermission,
                               "caller does not own object", puId());
    SyncMessage msg;
    msg.op = SyncOp::Revoke;
    msg.pid = target;
    msg.objId = obj;
    msg.perm = perm;
    co_await broadcastImmediate(msg, ctx);
    co_return core::Status();
}

sim::Task<core::Expected<ObjId>>
XpuShim::xfifoInit(XpuPid caller, const std::string &globalUuid,
                   obs::SpanContext ctx)
{
    std::string uuid = globalUuid;
    co_await handleCost();
    if (caps_.findByUuid(uuid) != nullptr)
        co_return core::Error(core::Errc::AlreadyExists,
                              "fifo uuid '" + uuid + "' taken", puId());

    DistributedObject obj;
    obj.id = caps_.allocateId();
    obj.type = ObjType::Ipc;
    obj.owner = caller;
    obj.homePu = puId();
    obj.uuid = uuid;

    auto &homed = queues_[obj.id];
    homed.queue =
        std::make_unique<sim::Mailbox<os::FifoMessage>>(os_.simulation());
    homed.refCount = 1;

    SyncMessage msg;
    msg.op = SyncOp::RegisterObject;
    msg.obj = obj;
    // Global UUID uniqueness requires every shim to learn about the
    // fifo before init returns (§5 "Immediate synchronization").
    co_await broadcastImmediate(msg, ctx);
    co_return core::Expected<ObjId>(obj.id);
}

sim::Task<core::Expected<ObjId>>
XpuShim::xfifoConnect(XpuPid caller, const std::string &globalUuid)
{
    std::string uuid = globalUuid;
    co_await handleCost();
    const DistributedObject *obj = caps_.findByUuid(uuid);
    if (!obj)
        co_return core::Error(core::Errc::NotFound,
                              "no fifo with uuid '" + uuid + "'",
                              puId());
    // Connect requires read or write permission (§3.2).
    if (!caps_.check(caller, obj->id, Perm::Read) &&
        !caps_.check(caller, obj->id, Perm::Write)) {
        co_return core::Error(core::Errc::NoPermission,
                              "connect needs read or write", puId());
    }
    const ObjId id = obj->id;
    XpuShim &home = net_.shimOn(obj->homePu);
    if (auto *homed = home.findHomed(id))
        ++homed->refCount;
    co_return core::Expected<ObjId>(id);
}

XpuShim::HomedFifo *
XpuShim::findHomed(ObjId obj)
{
    auto it = queues_.find(obj);
    return it == queues_.end() ? nullptr : &it->second;
}

sim::Task<core::Status>
XpuShim::deliverLocal(ObjId obj, std::uint64_t bytes,
                      const std::string &tag)
{
    HomedFifo *homed = findHomed(obj);
    if (!homed)
        co_return core::Status(core::Errc::NotFound,
                               "fifo not homed here", puId());
    os::FifoMessage msg{bytes, tag};
    co_await homed->queue->put(std::move(msg));
    co_return core::Status();
}

sim::Task<core::Expected<os::FifoMessage>>
XpuShim::consumeLocal(ObjId obj)
{
    HomedFifo *homed = findHomed(obj);
    if (!homed)
        co_return core::Error(core::Errc::NotFound,
                              "fifo not homed here", puId());
    os::FifoMessage msg = co_await homed->queue->get();
    // A "!"-tagged message is a fault sentinel, not payload: the home
    // PU crashed while this read was pending.
    if (!msg.tag.empty() && msg.tag.front() == '!')
        co_return core::Error(core::Errc::PuCrashed,
                              "read failed: " + msg.tag, puId());
    co_return core::Expected<os::FifoMessage>(std::move(msg));
}

sim::Task<core::Status>
XpuShim::xfifoWrite(XpuPid caller, ObjId obj, std::uint64_t bytes,
                    const std::string &tag, obs::SpanContext ctx)
{
    std::string owned_tag = tag;
    co_await handleCost();
    if (!caps_.check(caller, obj, Perm::Write))
        co_return core::Status(core::Errc::NoPermission,
                               "no write capability", puId());
    const DistributedObject *o = caps_.findObject(obj);
    if (!o)
        co_return core::Status(core::Errc::NotFound,
                               "unknown object", puId());

    if (o->homePu == puId()) {
        co_return co_await deliverLocal(obj, bytes, owned_tag);
    }
    const PuId home = o->homePu;
    if (net_.puDown(home))
        co_return core::Status(core::Errc::PuCrashed,
                               "fifo home PU is down", home);
    // nIPC: payload + header cross the interconnect to the home shim,
    // which enqueues after its own handling; a small ack comes back.
    co_await net_.transfer(puId(), home, bytes + 48, ctx);
    XpuShim &homeShim = net_.shimOn(home);
    co_await homeShim.handleCost();
    core::Status st = co_await homeShim.deliverLocal(obj, bytes,
                                                     owned_tag);
    co_await net_.transfer(home, puId(), 16, ctx);
    co_return st;
}

sim::Task<core::Expected<os::FifoMessage>>
XpuShim::xfifoRead(XpuPid caller, ObjId obj, obs::SpanContext ctx)
{
    co_await handleCost();
    if (!caps_.check(caller, obj, Perm::Read))
        co_return core::Error(core::Errc::NoPermission,
                              "no read capability", puId());
    const DistributedObject *o = caps_.findObject(obj);
    if (!o)
        co_return core::Error(core::Errc::NotFound, "unknown object",
                              puId());

    if (o->homePu == puId()) {
        co_return co_await consumeLocal(obj);
    }
    // Remote read: ask the home shim, block there, payload rides the
    // return hop.
    const PuId home = o->homePu;
    if (net_.puDown(home))
        co_return core::Error(core::Errc::PuCrashed,
                              "fifo home PU is down", home);
    co_await net_.transfer(puId(), home, 48, ctx);
    XpuShim &homeShim = net_.shimOn(home);
    co_await homeShim.handleCost();
    core::Expected<os::FifoMessage> r =
        co_await homeShim.consumeLocal(obj);
    if (!r.ok())
        co_return r;
    co_await net_.transfer(home, puId(), r.value().bytes + 16, ctx);
    co_return r;
}

sim::Task<core::Status>
XpuShim::xfifoClose(XpuPid caller, ObjId obj)
{
    co_await handleCost();
    const DistributedObject *o = caps_.findObject(obj);
    if (!o)
        co_return core::Status(core::Errc::NotFound, "unknown object",
                               puId());
    if (!caps_.check(caller, obj, Perm::Read) &&
        !caps_.check(caller, obj, Perm::Write)) {
        co_return core::Status(core::Errc::NoPermission,
                               "close needs read or write", puId());
    }
    XpuShim &home = net_.shimOn(o->homePu);
    HomedFifo *homed = home.findHomed(obj);
    if (homed && --homed->refCount <= 0) {
        home.queues_.erase(obj);
        // Reclamation tolerates staleness: batch it (§5 "Lazy
        // synchronization").
        SyncMessage msg;
        msg.op = SyncOp::RemoveObject;
        msg.objId = obj;
        // The owner's exit rides on its last close: the grants it
        // still holds on live objects name a process that is gone.
        if (home.os_.findProcess(o->owner.local) == nullptr)
            msg.pid = o->owner;
        co_await home.enqueueLazy(msg);
    }
    co_return core::Status();
}

sim::Task<core::Expected<XpuPid>>
XpuShim::xspawn(XpuPid caller, PuId target, const std::string &path,
                const std::vector<CapGrant> &capv,
                std::uint64_t memBytes, obs::SpanContext ctx)
{
    (void)caller; // xSpawn grants nothing implicitly (§3.4)
    std::string owned_path = path;
    std::vector<CapGrant> owned_capv = capv;
    co_await handleCost();
    if (!net_.hasShim(target))
        co_return core::Error(core::Errc::NotFound,
                              "no shim on target PU", target);
    if (net_.puDown(target))
        co_return core::Error(core::Errc::PuCrashed,
                              "target PU is down", target);

    XpuShim &remote = net_.shimOn(target);
    const bool local = target == puId();
    if (!local)
        co_await net_.transfer(puId(), target, 64 + owned_path.size(),
                               ctx);
    co_await remote.handleCost();

    os::Process *proc =
        co_await remote.os_.spawnProcess(owned_path, memBytes, ctx);
    if (!proc) {
        if (!local)
            co_await net_.transfer(target, puId(), 16, ctx);
        co_return core::Error(core::Errc::NoMemory,
                              "spawn exceeds PU memory", target);
    }
    const XpuPid child{target, proc->pid()};

    // No implicit permission inheritance: only capv is granted (§3.4),
    // synchronized immediately like any capability update.
    for (const CapGrant &g : owned_capv) {
        SyncMessage msg;
        msg.op = SyncOp::Grant;
        msg.pid = child;
        msg.objId = g.obj;
        msg.perm = g.perm;
        co_await remote.broadcastImmediate(msg, ctx);
    }

    if (const auto *hook = net_.findProgram(owned_path))
        (*hook)(remote, *proc);

    if (!local)
        co_await net_.transfer(target, puId(), 24, ctx);
    co_return core::Expected<XpuPid>(child);
}

void
XpuShim::crashLocal()
{
    // Wake every blocked getter with a fault sentinel, then retire the
    // queue to the graveyard: woken coroutines resume strictly later
    // in the tick and still touch the mailbox.
    for (auto &[id, homed] : queues_) {
        const std::size_t waiting = homed.queue->waitingGetters();
        for (std::size_t i = 0; i < waiting; ++i)
            homed.queue->tryPut(os::FifoMessage{0, "!fault:pu-crash"});
        deadQueues_.push_back(std::move(homed.queue));
    }
    queues_.clear();
    lazyQueue_.clear();
    caps_.reset();
}

void
XpuShim::resyncFrom(XpuShim &peer)
{
    caps_.cloneFrom(peer.caps());
}

XpuShim *
XpuShimNetwork::addShim(os::LocalOs &os, TransportKind transport)
{
    const PuId pu = os.pu().id();
    MOLECULE_ASSERT(!shims_.count(pu), "PU %d already has a shim", pu);
    auto shim = std::make_unique<XpuShim>(*this, os, transport);
    XpuShim *raw = shim.get();
    shims_[pu] = std::move(shim);
    return raw;
}

XpuShim &
XpuShimNetwork::shimOn(PuId pu)
{
    auto it = shims_.find(pu);
    if (it == shims_.end())
        sim::fatal("no XPU-Shim on PU %d", pu);
    return *it->second;
}

bool
XpuShimNetwork::hasShim(PuId pu) const
{
    return shims_.count(pu) != 0;
}

std::vector<XpuShim *>
XpuShimNetwork::allShims()
{
    std::vector<XpuShim *> out;
    for (auto &[pu, shim] : shims_)
        out.push_back(shim.get());
    return out;
}

void
XpuShimNetwork::registerProgram(const std::string &path, ProgramHook hook)
{
    programs_[path] = std::move(hook);
}

const XpuShimNetwork::ProgramHook *
XpuShimNetwork::findProgram(const std::string &path) const
{
    auto it = programs_.find(path);
    return it == programs_.end() ? nullptr : &it->second;
}

sim::Task<>
XpuShimNetwork::transfer(PuId from, PuId to, std::uint64_t bytes,
                         obs::SpanContext ctx)
{
    if (from == to)
        co_return;
    obs::Span span(ctx, "nipc.transfer", obs::Layer::Xpu, from);
    span.setArg(std::int64_t(bytes));
    co_await computer_.topology().transfer(from, to, bytes, span.ctx());
}

sim::SimTime
XpuShimNetwork::transferLatency(PuId from, PuId to,
                                std::uint64_t bytes) const
{
    if (from == to)
        return sim::SimTime(0);
    return computer_.topology().transferLatency(from, to, bytes);
}

} // namespace molecule::xpu
