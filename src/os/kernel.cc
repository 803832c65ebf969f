#include "os/kernel.hh"

#include "hw/calibration.hh"
#include "sim/logging.hh"

namespace molecule::os {

namespace calib = hw::calib;

LocalOs::LocalOs(hw::ProcessingUnit &pu) : pu_(pu), containers_(*this) {}

sim::Task<>
LocalOs::syscall()
{
    co_await simulation().delay(scaledSw(calib::kSyscallCost));
}

sim::Task<>
LocalOs::swDelay(sim::SimTime hostCost)
{
    co_await simulation().delay(scaledSw(hostCost));
}

AddressSpace
LocalOs::makeAddressSpace()
{
    auto &pu = pu_;
    return AddressSpace([&pu](std::int64_t delta) {
        if (delta >= 0)
            return pu.tryAllocate(std::uint64_t(delta));
        pu.free(std::uint64_t(-delta));
        return true;
    });
}

sim::Task<Process *>
LocalOs::spawnProcess(const std::string &name, std::uint64_t privateBytes,
                      obs::SpanContext ctx)
{
    // Copy before the first suspension (see the GCC 12 note in task.hh).
    std::string owned_name = name;
    obs::Span span(ctx, "os.spawn", obs::Layer::Os, pu_.id());
    span.setDetail(owned_name.c_str());
    co_await swDelay(calib::kSpawnProcessCost);
    AddressSpace space = makeAddressSpace();
    if (privateBytes > 0 &&
        !space.mapPrivate(owned_name + "/image", privateBytes)) {
        co_return nullptr; // admission failure
    }
    const Pid pid = nextPid_.fetchAdd(1);
    auto proc = std::make_unique<Process>(*this, pid,
                                          std::move(owned_name),
                                          std::move(space));
    Process *raw = proc.get();
    procs_[pid] = std::move(proc);
    co_return raw;
}

sim::Task<Process *>
LocalOs::fork(Pid parent, const std::string &childName,
              obs::SpanContext ctx)
{
    std::string owned_name = childName;
    obs::Span span(ctx, "os.fork", obs::Layer::Os, pu_.id());
    span.setDetail(owned_name.c_str());
    MOLECULE_ASSERT(findProcess(parent) != nullptr,
                    "fork of unknown pid %d", parent);
    MOLECULE_ASSERT(findProcess(parent)->threads() == 1,
                    "Unix fork only propagates one thread; merge "
                    "threads first (forkable runtime, §4.2)");
    co_await swDelay(calib::kForkCost);
    // A crash of this PU during the fork reaped the parent: no child.
    if (findProcess(parent) == nullptr)
        co_return nullptr;
    AddressSpace space = makeAddressSpace();
    findProcess(parent)->addressSpace().forkInto(space);
    const Pid pid = nextPid_.fetchAdd(1);
    auto proc = std::make_unique<Process>(*this, pid,
                                          std::move(owned_name),
                                          std::move(space));
    Process *raw = proc.get();
    procs_[pid] = std::move(proc);
    co_return raw;
}

void
LocalOs::exitProcess(Process &proc)
{
    proc.state_ = ProcState::Zombie;
    proc.addressSpace().clear();
    procs_.erase(proc.pid());
}

Process *
LocalOs::findProcess(Pid pid)
{
    auto it = procs_.find(pid);
    return it == procs_.end() ? nullptr : it->second.get();
}

LocalFifo *
LocalOs::createFifo(const std::string &name)
{
    if (fifos_.count(name))
        sim::fatal("FIFO '%s' already exists", name.c_str());
    auto fifo = std::make_unique<LocalFifo>(*this, name);
    LocalFifo *raw = fifo.get();
    fifos_[name] = std::move(fifo);
    return raw;
}

LocalFifo *
LocalOs::findFifo(const std::string &name)
{
    auto it = fifos_.find(name);
    return it == fifos_.end() ? nullptr : it->second.get();
}

void
LocalOs::removeFifo(const std::string &name)
{
    fifos_.erase(name);
}

void
LocalOs::crashReset()
{
    while (!procs_.empty())
        exitProcess(*procs_.begin()->second);
    // Poison blocked readers, then retire the FIFOs to the graveyard:
    // the woken coroutines still touch the mailbox when they resume
    // later this tick, so the objects must outlive the crash instant.
    for (auto &[name, fifo] : fifos_) {
        fifo->poison("!fault:pu-crash");
        deadFifos_.push_back(std::move(fifo));
    }
    fifos_.clear();
}

} // namespace molecule::os
