#include "core/deployment.hh"

#include "sim/logging.hh"

namespace molecule::core {

Deployment::Deployment(hw::Computer &computer) : computer_(computer)
{
    shimNet_ = std::make_unique<xpu::XpuShimNetwork>(computer_);
    for (int pu = 0; pu < computer_.puCount(); ++pu) {
        auto &unit = computer_.pu(pu);
        oses_.push_back(std::make_unique<os::LocalOs>(unit));
        // §6.1: the XPUcall optimizations matter on slow DPU cores;
        // the host CPU keeps the plain FIFO transport (~20 us).
        const auto transport = unit.type() == hw::PuType::Dpu
                                   ? xpu::TransportKind::MpscPoll
                                   : xpu::TransportKind::Fifo;
        shimNet_->addShim(*oses_.back(), transport);
        runcs_.push_back(
            std::make_unique<sandbox::RuncRuntime>(*oses_.back()));
        generalPus_.push_back(pu);
        pusByType_[std::size_t(unit.type())].push_back(pu);
    }
    // Accelerators are managed from their host PU's virtual shim.
    for (const auto &fpga : computer_.fpgas()) {
        runfs_.push_back(std::make_unique<sandbox::RunfRuntime>(
            osOn(fpga->hostPuId()), *fpga));
    }
    for (const auto &gpu : computer_.gpus()) {
        rungs_.push_back(std::make_unique<sandbox::RungRuntime>(
            osOn(gpu->hostPuId()), *gpu));
    }
}

os::LocalOs &
Deployment::osOn(int pu)
{
    MOLECULE_ASSERT(pu >= 0 && pu < int(oses_.size()),
                    "no OS on PU %d", pu);
    return *oses_[std::size_t(pu)];
}

sandbox::RuncRuntime &
Deployment::runcOn(int pu)
{
    MOLECULE_ASSERT(pu >= 0 && pu < int(runcs_.size()),
                    "no runc on PU %d", pu);
    return *runcs_[std::size_t(pu)];
}

sandbox::RunfRuntime &
Deployment::runf(int index)
{
    MOLECULE_ASSERT(index >= 0 && index < int(runfs_.size()),
                    "no runf %d", index);
    return *runfs_[std::size_t(index)];
}

sandbox::RungRuntime &
Deployment::rung(int index)
{
    MOLECULE_ASSERT(index >= 0 && index < int(rungs_.size()),
                    "no runG %d", index);
    return *rungs_[std::size_t(index)];
}

void
Deployment::attachFaults(fault::FaultState *faults)
{
    faults_ = faults;
    shimNet_->attachFaults(faults);
    computer_.topology().attachFaults(faults);
    for (auto &runf : runfs_)
        runf->device().attachFaults(faults);
}

} // namespace molecule::core
