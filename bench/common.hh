/**
 * @file
 * Shared helpers for the wall-clock bench binaries: the output banner
 * and the PerfSnapshot that writes their BENCH_*.json files.
 */

#ifndef MOLECULE_BENCH_COMMON_HH
#define MOLECULE_BENCH_COMMON_HH

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

namespace molecule::bench {

/** Print the standard header of a bench binary. */
inline void
banner(const std::string &what, const std::string &paperRef)
{
    std::printf("Molecule reproduction - %s\n", what.c_str());
    std::printf("Paper reference: %s\n\n", paperRef.c_str());
}

/**
 * Collects benchmark results and emits a machine-readable perf
 * snapshot (BENCH_simcore.json). Each entry pairs a measured value
 * with an optional recorded baseline so the snapshot itself documents
 * the speedup a perf PR claims.
 */
class PerfSnapshot
{
  public:
    explicit PerfSnapshot(std::string metric) : metric_(std::move(metric))
    {
    }

    /** Pre-register the reference value a result is judged against. */
    void
    baseline(const std::string &name, double value)
    {
        entry(name).baseline = value;
    }

    /**
     * Record a measured value for @p name. Repeated records (e.g.
     * --benchmark_repetitions) report the median as the headline
     * value: one lucky or unlucky repetition cannot move it, where
     * the max followed the least-loaded run. Every sample is kept
     * exactly, so the snapshot also reports the run-to-run spread
     * (min/mean/p50/p95/p99).
     */
    void
    record(const std::string &name, double value)
    {
        entry(name).samples.push_back(value);
    }

    /** Headline value of @p name: the median of its samples. */
    double
    value(const std::string &name)
    {
        return percentileOf(entry(name).samples, 50);
    }

    /**
     * Exact percentile over the recorded samples: linear
     * interpolation between closest ranks, the convention used by
     * numpy and gbench aggregates. @p p in [0, 100].
     */
    static double
    percentileOf(std::vector<double> sorted, double p)
    {
        if (sorted.empty())
            return 0.0;
        std::sort(sorted.begin(), sorted.end());
        const double rank =
            (p / 100.0) * double(sorted.size() - 1);
        const std::size_t lo = std::size_t(rank);
        const std::size_t hi =
            lo + 1 < sorted.size() ? lo + 1 : lo;
        const double frac = rank - double(lo);
        return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
    }

    /** Write the snapshot as JSON. @retval false open/write failed. */
    bool
    writeJson(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (f == nullptr)
            return false;
        std::fprintf(f, "{\n  \"metric\": \"%s\",\n  \"results\": {",
                     metric_.c_str());
        const char *sep = "\n";
        for (const auto &e : entries_) {
            const double value = percentileOf(e.samples, 50);
            std::fprintf(f, "%s    \"%s\": {\n      \"value\": %.1f",
                         sep, e.name.c_str(), value);
            if (e.baseline > 0.0) {
                std::fprintf(f,
                             ",\n      \"baseline\": %.1f"
                             ",\n      \"speedup\": %.3f",
                             e.baseline, value / e.baseline);
            }
            // Spread only means something with repetitions; a single
            // sample would just echo the value.
            if (e.samples.size() > 1) {
                double sum = 0.0;
                double mn = e.samples.front();
                for (double s : e.samples) {
                    sum += s;
                    mn = std::min(mn, s);
                }
                std::fprintf(
                    f,
                    ",\n      \"samples\": %llu"
                    ",\n      \"min\": %.1f"
                    ",\n      \"mean\": %.1f"
                    ",\n      \"p50\": %.1f"
                    ",\n      \"p95\": %.1f"
                    ",\n      \"p99\": %.1f",
                    static_cast<unsigned long long>(e.samples.size()),
                    mn, sum / double(e.samples.size()),
                    percentileOf(e.samples, 50),
                    percentileOf(e.samples, 95),
                    percentileOf(e.samples, 99));
            }
            std::fprintf(f, "\n    }");
            sep = ",\n";
        }
        std::fprintf(f, "\n  }\n}\n");
        return std::fclose(f) == 0;
    }

  private:
    struct Entry
    {
        std::string name;
        double baseline = 0.0;
        /** Every recorded sample, in record order (exact spread). */
        std::vector<double> samples;
    };

    Entry &
    entry(const std::string &name)
    {
        for (auto &e : entries_)
            if (e.name == name)
                return e;
        entries_.push_back(Entry{name, 0.0, {}});
        return entries_.back();
    }

    std::string metric_;
    std::vector<Entry> entries_;
};

} // namespace molecule::bench

#endif // MOLECULE_BENCH_COMMON_HH
