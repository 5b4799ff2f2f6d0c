/**
 * @file
 * Shared pieces of the repository benchmark (pmdb_bench): run
 * configuration, the result record one workload run produces, the
 * correctness-check tally, and sample statistics.
 */

#ifndef PMDB_BENCHMARK_BENCH_HH
#define PMDB_BENCHMARK_BENCH_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "stats.hh"
#include "telemetry/metrics.hh"

namespace pmdb
{
namespace bench
{

/** What one invocation asks of a workload. */
struct RunConfig
{
    /** Seeds every input of the workload; all repetitions share it. */
    std::uint64_t seed = 1;
    /** Wall-clock budget of the measured phase (BENCHMARK.json's
     *  run_seconds). */
    double seconds = 12.0;
    /** Per-layer pass (TimedSink + spans) instead of end-to-end. */
    bool traced = false;
    /**
     * Set up once (references, daemon, one warm-up repetition) and stop:
     * a set-up child, whose set-up time and peak RSS are reported. A
     * measured child's RSS creeps up with its repetition count as freed
     * memory fragments.
     */
    bool setupOnly = false;
    /** Directory for sockets, rings and span traces. */
    std::string outDir;
};

/** One reported metric, with the spread of the samples behind it. */
struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
    /** Samples the value was derived from (1 for single readings). */
    std::size_t samples = 1;
    double q1 = 0.0;
    double q3 = 0.0;
};

/** Correctness checks of one run: every verdict is compared. */
struct Checks
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /** Count one check; a failure is reported on stderr. */
    void expect(bool ok, const std::string &what);
};

/** Everything one workload run reports. */
struct RunResult
{
    std::vector<Metric> metrics;
    Checks checks;
    /** Measured rounds (native + detected passes each). */
    std::size_t reps = 0;

    /** A single reading. */
    void add(const std::string &name, const std::string &unit,
             double value);
    /** The median of @p samples, keeping their quartiles. */
    void addMedian(const std::string &name, const std::string &unit,
                   std::vector<double> samples);

    const Metric *find(const std::string &name) const;
};

/**
 * Quantile of a log2-bucket telemetry histogram, interpolated linearly
 * inside the bucket that holds it. The registry's own quantile()
 * returns the bucket's upper bound, which reads the same power of two
 * on every run; interpolation keeps the estimate continuous.
 */
double histogramQuantile(const telemetry::HistogramSnapshot &hist,
                         double q);

/** Snapshot of one registry histogram by full name (empty if absent). */
telemetry::HistogramSnapshot registryHistogram(const std::string &name);

/** Counter or gauge value from the registry (0 if absent). */
std::int64_t registryValue(const std::string &name);

/**
 * Run @p rep (with the repetition index) until @p seconds of wall time
 * have passed and at least @p min_reps repetitions are done, but stop
 * after @p cap_seconds once three are done; returns the number of
 * repetitions.
 */
std::size_t measureFor(double seconds, std::size_t min_reps,
                       const std::function<void(std::size_t)> &rep,
                       double cap_seconds = 1e9);

/** Time @p fn in seconds. */
double timeIt(const std::function<void()> &fn);

/**
 * One instrument cross-check: the same quantity read by the benchmark
 * (TimedSink, wall clocks) and by the program's own telemetry. They
 * must agree within one log2 bucket, a factor of two either way; a
 * disagreement is printed and marked, and counted.
 */
void crossCheck(const std::string &what, double bench_value,
                double program_value, std::size_t *mismatches);

/** A workload the benchmark can run. */
struct WorkloadDef
{
    const char *name;
    RunResult (*run)(const RunConfig &config);
};

/** The four workloads, in run order. */
const std::vector<WorkloadDef> &workloadDefs();

} // namespace bench
} // namespace pmdb

#endif // PMDB_BENCHMARK_BENCH_HH
