/**
 * @file
 * Known-defect probe: concurrent callers of one accelerator.
 *
 * Two callers invoking FPGA kernels at the same time, or two calling
 * GPU modules at the same time, abort the whole process today (an
 * assertion in runF's DRAM-bank bookkeeping and in runG's sandbox
 * state machine). hetero_dag therefore drives a single accelerator
 * client. This probe keeps the defect in view: each pair runs in a
 * child process, every invocation that returns reports one byte on a
 * pipe, and the callers that never reported count as failed in
 * hetero_dag's failed_frac. A fix shows up as fewer failures.
 */

#include <csignal>
#include <cstring>
#include <string>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "core/molecule.hh"
#include "hw/computer.hh"
#include "molbench.hh"

namespace molbench {

using namespace molecule;

namespace {

constexpr int kCallers = 2;

sim::Task<>
caller(core::Molecule &rt, bool fpga, const char *fn, int reportFd)
{
    core::Expected<obs::InvocationRecord> r =
        fpga ? co_await rt.invokeFpga(fn, 0, 4096)
             : co_await rt.invokeGpu(fn, 0);
    if (r.ok()) {
        const char done = 1;
        [[maybe_unused]] const auto n = write(reportFd, &done, 1);
    }
}

[[noreturn]] void
childMain(bool fpga, int reportFd)
{
    const rlimit noCore{0, 0};
    setrlimit(RLIMIT_CORE, &noCore);
    sim::Simulation sim(1);
    auto computer = hw::buildFullHetero(sim);
    core::Molecule rt(*computer, core::MoleculeOptions{});
    const char *fns[kCallers] = {"fpga-madd", "fpga-mscale"};
    if (fpga) {
        for (const char *fn : fns)
            rt.registerFpgaFunction(fn);
    } else {
        fns[0] = "gnn-gather";
        fns[1] = "gnn-gather";
        rt.registerGpuFunction(fns[0], sim::SimTime::fromMilliseconds(3));
    }
    rt.start();
    for (const char *fn : fns)
        sim.spawn(caller(rt, fpga, fn, reportFd));
    sim.run();
    _exit(0);
}

/** Read @p fd to EOF; returns what was read. */
std::string
slurp(int fd)
{
    std::string out;
    char buf[512];
    for (;;) {
        const ssize_t n = read(fd, buf, sizeof(buf));
        if (n > 0) {
            out.append(buf, std::size_t(n));
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        return out;
    }
}

/** Run one caller pair in a child; returns the callers that failed. */
int
probePair(bool fpga, std::string &note)
{
    const char *what = fpga ? "2 concurrent FPGA callers"
                            : "2 concurrent GPU callers";
    int report[2], err[2];
    if (pipe(report) != 0 || pipe(err) != 0) {
        note = std::string(what) + ": pipe failed";
        return kCallers;
    }
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = fork();
    if (pid < 0) {
        note = std::string(what) + ": fork failed";
        return kCallers;
    }
    if (pid == 0) {
        close(report[0]);
        close(err[0]);
        dup2(err[1], STDERR_FILENO);
        childMain(fpga, report[1]);
    }
    close(report[1]);
    close(err[1]);
    const int returned = int(slurp(report[0]).size());
    std::string diag = slurp(err[0]);
    close(report[0]);
    close(err[0]);
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }

    if (const auto nl = diag.find('\n'); nl != std::string::npos)
        diag.resize(nl);
    note = std::string(what) + ": " + std::to_string(returned) + "/" +
           std::to_string(kCallers) + " returned, child ";
    if (WIFSIGNALED(status))
        note += std::string("killed by ") + strsignal(WTERMSIG(status));
    else
        note += "exited " + std::to_string(WEXITSTATUS(status));
    if (!diag.empty())
        note += " (" + diag + ")";
    return kCallers - std::min(returned, kCallers);
}

} // namespace

ProbeResult
runAcceleratorProbe()
{
    ProbeResult res;
    for (bool fpga : {true, false}) {
        std::string note;
        res.failed += probePair(fpga, note);
        res.attempted += kCallers;
        res.notes.push_back(note);
    }
    return res;
}

} // namespace molbench
