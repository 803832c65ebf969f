/**
 * @file
 * Function definitions and the platform registry (§4.1).
 *
 * Unlike one-fits-all resource models, Molecule lets the user list the
 * PU kinds a function may run on, with per-kind prices (profiles); the
 * control plane picks a concrete PU per request (§5 "Profile
 * selections").
 */

#ifndef MOLECULE_CORE_FUNCTION_HH
#define MOLECULE_CORE_FUNCTION_HH

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "hw/pu.hh"
#include "workloads/catalog.hh"

namespace molecule::core {

/** One deployment profile of a function. */
struct Profile
{
    hw::PuType kind = hw::PuType::HostCpu;
    /** Price per 100 ms of execution, in arbitrary credit units. */
    double pricePer100ms = 1.0;
};

/** A registered serverless function. */
struct FunctionDef
{
    std::string name;
    /** Execution model on general-purpose PUs (null: accel-only). */
    const workloads::CpuWorkload *cpuWork = nullptr;
    /** Execution model on FPGAs (null: no FPGA profile). */
    const workloads::FpgaWorkload *fpgaWork = nullptr;
    /** FPGA size parameter (bytes/entries) used per invocation. */
    std::uint64_t fpgaUnits = 1;
    /** GPU kernel time per invocation (zero: no GPU profile). */
    sim::SimTime gpuKernelTime;
    /** GPU per-invocation DMA bytes (in and out). */
    std::uint64_t gpuIoBytes = 0;
    std::vector<Profile> profiles;

    bool
    allows(hw::PuType kind) const
    {
        for (const auto &p : profiles)
            if (p.kind == kind)
                return true;
        return false;
    }
};

/** Name-keyed registry of function definitions. */
class FunctionRegistry
{
  public:
    /** Register (or replace) a function definition. */
    void add(FunctionDef def);

    const FunctionDef &find(const std::string &name) const;

    /** Lookup without the fatal-on-missing contract of find(). */
    const FunctionDef *findPtr(const std::string &name) const;

    bool has(const std::string &name) const;

    /**
     * The registry's own copy of @p fn's name (its map key). Unlike
     * FunctionDef::name, that storage survives add() replacing the
     * def, so a view of it stays valid as long as the registry:
     * warm-pool and keep-alive keys hold such views instead of
     * strings. @p fn must be registered.
     */
    std::string_view stableName(const FunctionDef &fn) const;

    std::size_t size() const { return defs_.size(); }

    /** CPU/DPU images usable to seed per-language cfork templates. */
    std::vector<const sandbox::FunctionImage *>
    imagesForTemplates() const;

  private:
    std::map<std::string, FunctionDef> defs_;
};

} // namespace molecule::core

#endif // MOLECULE_CORE_FUNCTION_HH
