/**
 * @file
 * Distributed capabilities (§3.2).
 *
 * XPU-Shim manages global resources with two distributed objects:
 * CAP_Group (the capability list of a process) and IPC objects
 * (XPU-FIFO endpoints). Capability updates synchronize *immediately*
 * across PUs (§5 "Inter-PU synchronization") so every permission check
 * is a purely local lookup; this store is the per-shim replica.
 */

#ifndef MOLECULE_XPU_CAPABILITY_HH
#define MOLECULE_XPU_CAPABILITY_HH

#include <map>
#include <string>

#include "sim/analysis.hh"
#include "xpu/types.hh"

namespace molecule::xpu {

/** Kind of a distributed object. */
enum class ObjType { Ipc, CapGroup };

/** Descriptor of a distributed object, replicated on every shim. */
struct DistributedObject
{
    ObjId id = 0;
    ObjType type = ObjType::Ipc;
    XpuPid owner;
    /** Home PU for IPC objects (where the backing queue lives). */
    PuId homePu = -1;
    /** Global UUID for IPC objects (xfifo_connect key). */
    std::string uuid;
};

/**
 * Per-process capability list (the CAP_Group object's payload).
 */
class CapGroup
{
  public:
    CapGroup() = default;

    explicit CapGroup(XpuPid pid) : pid_(pid) {}

    XpuPid pid() const { return pid_; }

    /** Add permission bits for an object. */
    void add(ObjId obj, Perm perm);

    /** Remove permission bits; drops the entry when nothing is left. */
    void remove(ObjId obj, Perm perm);

    /** Permission bits this process holds on @p obj. */
    Perm lookup(ObjId obj) const;

    bool has(ObjId obj, Perm need) const
    {
        return hasPerm(lookup(obj), need);
    }

    std::size_t size() const { return caps_.size(); }

  private:
    XpuPid pid_;
    std::map<ObjId, Perm> caps_;
};

/**
 * One shim's replica of the global capability/object state.
 *
 * Object-id allocation is statically partitioned by PU (ids carry the
 * allocating PU in their high bits) so allocation never synchronizes,
 * mirroring the pid scheme.
 */
class CapabilityStore
{
  public:
    explicit CapabilityStore(PuId self) : self_(self) {}

    /** Allocate a fresh object id in this PU's partition. */
    ObjId allocateId();

    /** @name Replicated state updates (applied locally and on sync) */
    ///@{

    /** Register (or overwrite) a distributed object descriptor. */
    void registerObject(const DistributedObject &obj);

    /** Drop an object and every grant on it; a CAP_Group left empty
     * goes too. */
    void removeObject(ObjId id);

    /** Drop the CAP_Group of @p pid (the process has exited). */
    void removeGroup(XpuPid pid);

    /** Apply a capability grant. Creates the CAP_Group on demand. */
    void applyGrant(XpuPid pid, ObjId obj, Perm perm);

    /** Apply a capability revoke. */
    void applyRevoke(XpuPid pid, ObjId obj, Perm perm);

    /** Drop the whole replica (PU crash: reboot loses local state). */
    void reset();

    /** Re-populate from a live peer's replica (restart recovery). */
    void cloneFrom(const CapabilityStore &peer);
    ///@}

    /** @name Local queries (always synchronous, §5) */
    ///@{

    const DistributedObject *findObject(ObjId id) const;

    const DistributedObject *findByUuid(const std::string &uuid) const;

    /** Permission check: does @p pid hold @p need on @p obj? */
    bool check(XpuPid pid, ObjId obj, Perm need) const;

    Perm lookup(XpuPid pid, ObjId obj) const;

    std::size_t objectCount() const { return objects_.size(); }

    std::size_t groupCount() const { return groups_.size(); }
    ///@}

  private:
    PuId self_;
    std::uint64_t nextLocal_ = 1;
    std::map<ObjId, DistributedObject> objects_;
    std::map<std::string, ObjId> byUuid_;
    std::map<std::uint64_t, CapGroup> groups_; // key: XpuPid::encode()
    /** Replica version: bumped by every replicated-state update, read
     * by every local query. A same-tick update/check pair on one
     * replica depends only on the event tie-break — the exact hazard
     * behind "immediate synchronization" (§5). */
    sim::analysis::Tracked<std::uint64_t> version_{0, "xpu.caps"};
};

} // namespace molecule::xpu

#endif // MOLECULE_XPU_CAPABILITY_HH
