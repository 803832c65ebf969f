/**
 * @file
 * Deployment: the software stack wired onto one heterogeneous computer.
 *
 * Owns one LocalOs and one runc runtime per general-purpose PU, the
 * XPU-Shim network (with the paper's default transports: plain FIFO
 * XPUcalls on the fast host CPU, MPSC+polling on DPUs, §6.1), one runf
 * per FPGA card and one runG per GPU — runf/runG hang off the host
 * PU's *virtual* shim instance (§4.1).
 */

#ifndef MOLECULE_CORE_DEPLOYMENT_HH
#define MOLECULE_CORE_DEPLOYMENT_HH

#include <array>
#include <memory>
#include <vector>

#include "fault/state.hh"
#include "hw/computer.hh"
#include "sandbox/runc.hh"
#include "sandbox/runf.hh"
#include "sandbox/rung.hh"
#include "xpu/client.hh"
#include "xpu/shim.hh"

namespace molecule::core {

/**
 * All per-PU software of one worker machine.
 */
class Deployment
{
  public:
    explicit Deployment(hw::Computer &computer);

    Deployment(const Deployment &) = delete;
    Deployment &operator=(const Deployment &) = delete;

    hw::Computer &computer() { return computer_; }

    sim::Simulation &simulation() { return computer_.simulation(); }

    os::LocalOs &osOn(int pu);

    sandbox::RuncRuntime &runcOn(int pu);

    xpu::XpuShimNetwork &shimNet() { return *shimNet_; }

    xpu::XpuShim &shimOn(int pu) { return shimNet_->shimOn(pu); }

    /** runf instance of FPGA card @p index. */
    sandbox::RunfRuntime &runf(int index);

    std::size_t runfCount() const { return runfs_.size(); }

    /** runG instance of GPU card @p index. */
    sandbox::RungRuntime &rung(int index);

    std::size_t rungCount() const { return rungs_.size(); }

    /** General-purpose PU ids (host CPU first). */
    const std::vector<int> &generalPus() const { return generalPus_; }

    /** General-purpose PU ids of a given type, ascending (cached at
     * construction; the placement hot path reads it per decision). */
    const std::vector<int> &pusOfType(hw::PuType type) const
    {
        return pusByType_[std::size_t(type)];
    }

    /**
     * Wire the fault state through every layer that reacts to it:
     * shim network (peer-down checks), topology (link faults) and
     * FPGA devices (reconfiguration failures). Nullptr detaches; the
     * default (never attached) is the fault-free model, bit-identical
     * to a build without the fault subsystem.
     */
    void attachFaults(fault::FaultState *faults);

    fault::FaultState *faults() { return faults_; }

    /** True when @p pu is currently crashed (false when unfaulted). */
    bool puDown(int pu) const
    {
        return faults_ != nullptr && !faults_->puUp(pu);
    }

  private:
    hw::Computer &computer_;
    fault::FaultState *faults_ = nullptr;
    std::vector<std::unique_ptr<os::LocalOs>> oses_;
    std::unique_ptr<xpu::XpuShimNetwork> shimNet_;
    std::vector<std::unique_ptr<sandbox::RuncRuntime>> runcs_;
    std::vector<std::unique_ptr<sandbox::RunfRuntime>> runfs_;
    std::vector<std::unique_ptr<sandbox::RungRuntime>> rungs_;
    std::vector<int> generalPus_;
    /** generalPus_ split by hw::PuType. */
    std::array<std::vector<int>, std::size_t(hw::PuType::GpuHost) + 1>
        pusByType_;
};

} // namespace molecule::core

#endif // MOLECULE_CORE_DEPLOYMENT_HH
