/**
 * @file
 * Shared vocabulary of the Molecule simulator benchmark.
 *
 * A workload runs as a sequence of repetitions. Each repetition builds
 * the system from scratch (timed as set-up), runs one fixed stretch of
 * simulated time (timed as the run loop) and hands back a Rep: its host
 * times, the deterministic counts and samples, and a digest of
 * everything the simulation computed. Simulated results are pure
 * functions of the seed, so every repetition of one run must agree on
 * them bit for bit; only the host times vary.
 *
 * Layers are measured from outside: wrappers around the public seams
 * (ArrivalSink, DispatchPolicy, PlacementPolicy, KeepAliveStrategy),
 * an operator-new counter, Simulation::step and an obs::Tracer whose
 * spans are tallied per obs::Layer.
 */

#ifndef MOLBENCH_MOLBENCH_HH
#define MOLBENCH_MOLBENCH_HH

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/trace.hh"
#include "sim/simulation.hh"

namespace molbench {

/** Heap allocations made by this process so far (operator new hook). */
std::uint64_t allocCount();

/** Host seconds on this thread's CPU clock. */
double threadCpuSeconds();

/** Host seconds on the monotonic wall clock. */
double wallSeconds();

/** Host ns, calls and heap allocations spent inside one wrapped seam. */
struct CallTimer
{
    std::uint64_t calls = 0;
    std::uint64_t ns = 0;
    std::uint64_t allocs = 0;

    /** Run @p f, charging its host time and allocations to this timer. */
    template <typename F>
    auto
    time(F &&f)
    {
        const std::uint64_t a0 = allocCount();
        const std::uint64_t t0 = nowNs();
        struct Charge
        {
            CallTimer &t;
            std::uint64_t a0, t0;
            ~Charge()
            {
                t.ns += nowNs() - t0;
                t.allocs += allocCount() - a0;
                ++t.calls;
            }
        } charge{*this, a0, t0};
        return f();
    }

    static std::uint64_t nowNs();
};

/**
 * Per-obs::Layer span counts and simulated self time. A span's self
 * time is its duration minus the union of its children's intervals.
 * drain() consumes the tracer's buffer, so a long run never holds more
 * than one chunk of spans in memory.
 */
class SpanTally
{
  public:
    static constexpr int kLayers = 5;

    /** Tally every span recorded so far, then clear the tracer. */
    void drain(molecule::obs::Tracer &tracer);

    std::array<std::uint64_t, kLayers> spans{};
    std::array<std::int64_t, kLayers> selfNs{};

  private:
    /** Child intervals waiting for their parent span to finish. */
    std::unordered_map<std::uint64_t,
                       std::vector<std::pair<std::int64_t, std::int64_t>>>
        pending_;
};

/**
 * Step @p sim until its event set drains; returns the events fired.
 * With a tracer, spans are tallied every 16384 events and the host
 * time spent tallying is returned in @p tallyCpuS (to be taken off the
 * loop time: it is the benchmark's work, not the program's).
 */
std::uint64_t runLoop(molecule::sim::Simulation &sim,
                      molecule::obs::Tracer *tracer, SpanTally *tally,
                      double &tallyCpuS);

/** Nearest-rank percentile of @p sorted (ascending, non-empty). */
double percentile(const std::vector<double> &sorted, double p);

/** One repetition of a workload. */
struct Rep
{
    /** @name Host (vary run to run) */
    ///@{
    double setupCpuS = 0.0;
    double loopCpuS = 0.0;
    ///@}

    /** @name Exact (pure functions of the seed) */
    ///@{
    std::uint64_t digest = 0;
    std::uint64_t events = 0;
    std::uint64_t allocs = 0;
    std::int64_t ops = 0;
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    double simSeconds = 0.0;
    /** End-to-end simulated latency of each completed operation. */
    std::vector<double> latencyMs;
    /** Named deterministic metrics (cost, per-layer counts, ...). */
    std::map<std::string, double> exact;
    /** Empty when the workload's accounting identities hold. */
    std::string accountingError;
    /** One line breaking the operation counts down, for the report. */
    std::string detail;
    ///@}

    /** @name Traced repetitions only */
    ///@{
    /** Host ns per call (or per op) of each wrapped seam. */
    std::map<std::string, double> layerNs;
    /** Heap allocations per call of each wrapped seam. */
    std::map<std::string, double> layerAllocs;
    SpanTally spans;
    ///@}
};

/** How one repetition is run. */
struct RepConfig
{
    std::uint64_t seed = 1;
    /** Attach an obs::Tracer and time every wrapped seam. */
    bool traced = false;
    /** Stop after set-up: only the set-up times are filled in. */
    bool setupOnly = false;
    /**
     * Keep per-operation samples (latencies, queue waits). Off, the
     * repetition holds no sample buffers, its latency percentiles are
     * not defined and its peak memory is the simulator's alone.
     */
    bool samples = true;
};

/** @name Workloads (cluster_workloads.cc, hetero_dag.cc) */
///@{
Rep runOverloadWarm(const RepConfig &cfg);
Rep runColdChurn(const RepConfig &cfg);
Rep runHeteroDag(const RepConfig &cfg);
///@}

/** Outcome of the concurrent-accelerator probe (probe.cc). */
struct ProbeResult
{
    int attempted = 0;
    int failed = 0;
    /** One line per probe: what ran and how it ended. */
    std::vector<std::string> notes;
};

/**
 * Known-defect probe: two concurrent FPGA callers and two concurrent
 * GPU callers, each pair in a child process. A caller counts as failed
 * unless its invocation returned; today both pairs abort the process.
 */
ProbeResult runAcceleratorProbe();

} // namespace molbench

#endif // MOLBENCH_MOLBENCH_HH
