/**
 * @file
 * A smart-home pipeline (the paper's Alexa skill, §6.5) spread across
 * CPU and DPUs: front and smarthome on the host, interact and the two
 * actuator functions on the DPUs. Cross-PU edges use nIPC (XPU-FIFO
 * over RDMA); same-PU edges use direct-connect local FIFOs.
 */

#include <cstdio>

#include "core/molecule.hh"
#include "hw/computer.hh"
#include "workloads/catalog.hh"

int
main()
{
    using namespace molecule;
    using workloads::Catalog;

    sim::Simulation sim;
    auto computer = hw::buildCpuDpuServer(sim, 2,
                                          hw::DpuGeneration::Bf2);
    core::Molecule runtime(*computer, core::MoleculeOptions{});
    for (const auto &fn : Catalog::alexaChain())
        runtime.registerCpuFunction(fn,
                                    {hw::PuType::HostCpu,
                                     hw::PuType::Dpu});
    runtime.start();

    // front -> interact -> smarthome -> {door, light}
    const auto spec = core::ChainSpec::alexa();

    // Spread the pipeline: host CPU (0) and the two DPUs (1, 2).
    std::vector<int> placement{0, 1, 0, 1, 2};

    auto rec = runtime.runSync(runtime.invokeChain(spec, placement)).value();
    std::printf("alexa pipeline across CPU+2xDPU: e2e=%s\n\n",
                rec.endToEnd.toString().c_str());
    static const char *edges[] = {"front->interact",
                                  "interact->smarthome",
                                  "smarthome->door",
                                  "smarthome->light"};
    for (std::size_t i = 0; i < rec.edgeLatencies.size(); ++i) {
        const auto &inv = rec.invocations[i + 1];
        std::printf("  %-22s %-4s edge=%s\n", edges[i],
                    hw::toString(computer->pu(inv.pu).type()),
                    rec.edgeLatencies[i].toString().c_str());
    }

    // Compare with keeping everything on one PU (chain affinity).
    auto affinity = runtime.runSync(runtime.invokeChain(spec)).value();
    std::printf("\nsame pipeline with chain-affinity placement: "
                "e2e=%s\n",
                affinity.endToEnd.toString().c_str());
    return 0;
}
