#include "xpu/capability.hh"

namespace molecule::xpu {

void
CapGroup::add(ObjId obj, Perm perm)
{
    caps_[obj] = caps_.count(obj) ? (caps_[obj] | perm) : perm;
}

void
CapGroup::remove(ObjId obj, Perm perm)
{
    auto it = caps_.find(obj);
    if (it == caps_.end())
        return;
    it->second = it->second & ~perm;
    if (it->second == Perm::None)
        caps_.erase(it);
}

Perm
CapGroup::lookup(ObjId obj) const
{
    auto it = caps_.find(obj);
    return it == caps_.end() ? Perm::None : it->second;
}

ObjId
CapabilityStore::allocateId()
{
    return (std::uint64_t(std::uint32_t(self_)) << 48) | nextLocal_++;
}

void
CapabilityStore::registerObject(const DistributedObject &obj)
{
    version_.fetchAdd(1);
    objects_[obj.id] = obj;
    if (!obj.uuid.empty())
        byUuid_[obj.uuid] = obj.id;
}

void
CapabilityStore::removeObject(ObjId id)
{
    auto it = objects_.find(id);
    if (it == objects_.end())
        return;
    version_.fetchAdd(1);
    if (!it->second.uuid.empty())
        byUuid_.erase(it->second.uuid);
    objects_.erase(it);
    // The grants on the object go with it, and a CAP_Group left with
    // none goes too: groups do not outlive every object they named.
    for (auto g = groups_.begin(); g != groups_.end();) {
        g->second.remove(id, Perm::Read | Perm::Write | Perm::Owner);
        g = g->second.size() == 0 ? groups_.erase(g) : std::next(g);
    }
}

void
CapabilityStore::removeGroup(XpuPid pid)
{
    version_.fetchAdd(1);
    groups_.erase(pid.encode());
}

void
CapabilityStore::applyGrant(XpuPid pid, ObjId obj, Perm perm)
{
    version_.fetchAdd(1);
    auto [it, inserted] = groups_.try_emplace(pid.encode(), pid);
    (void)inserted;
    it->second.add(obj, perm);
}

void
CapabilityStore::applyRevoke(XpuPid pid, ObjId obj, Perm perm)
{
    version_.fetchAdd(1);
    auto it = groups_.find(pid.encode());
    if (it == groups_.end())
        return;
    it->second.remove(obj, perm);
}

const DistributedObject *
CapabilityStore::findObject(ObjId id) const
{
    version_.read();
    auto it = objects_.find(id);
    return it == objects_.end() ? nullptr : &it->second;
}

const DistributedObject *
CapabilityStore::findByUuid(const std::string &uuid) const
{
    version_.read();
    auto it = byUuid_.find(uuid);
    return it == byUuid_.end() ? nullptr : findObject(it->second);
}

bool
CapabilityStore::check(XpuPid pid, ObjId obj, Perm need) const
{
    return hasPerm(lookup(pid, obj), need);
}

Perm
CapabilityStore::lookup(XpuPid pid, ObjId obj) const
{
    version_.read();
    auto it = groups_.find(pid.encode());
    return it == groups_.end() ? Perm::None : it->second.lookup(obj);
}

void
CapabilityStore::reset()
{
    // A PU reboot drops the replica wholesale; the id partition
    // survives (nextLocal_ stays monotonic so reallocated ids never
    // collide with pre-crash ones still replicated on peers).
    version_.fetchAdd(1);
    objects_.clear();
    byUuid_.clear();
    groups_.clear();
}

void
CapabilityStore::cloneFrom(const CapabilityStore &peer)
{
    version_.fetchAdd(1);
    objects_ = peer.objects_;
    byUuid_ = peer.byUuid_;
    groups_ = peer.groups_;
}

} // namespace molecule::xpu
