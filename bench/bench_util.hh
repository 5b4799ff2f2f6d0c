/**
 * @file
 * Shared harness for the paper-reproduction benchmarks: run a
 * (workload, detector) pair and measure wall-clock time, with the
 * persistence-domain model detached (real PM tracks persistence in
 * hardware) and repetitions for stability.
 *
 * PMDB_BENCH_SCALE scales every operation count (default 1.0); set it
 * below 1 for quick smoke runs of the full bench suite.
 */

#ifndef PMDB_BENCH_BENCH_UTIL_HH
#define PMDB_BENCH_BENCH_UTIL_HH

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/stopwatch.hh"
#include "common/table.hh"
#include "detectors/registry.hh"
#include "workloads/workload.hh"

namespace pmdb
{

/** Global operation-count scale from PMDB_BENCH_SCALE. */
inline double
benchScale()
{
    static const double scale = [] {
        if (const char *env = std::getenv("PMDB_BENCH_SCALE"))
            return std::max(0.001, std::atof(env));
        return 1.0;
    }();
    return scale;
}

inline std::size_t
scaled(std::size_t ops)
{
    return std::max<std::size_t>(64,
                                 static_cast<std::size_t>(
                                     static_cast<double>(ops) *
                                     benchScale()));
}

/** Visible core count (never 0). */
inline unsigned
benchCores()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

/**
 * Write one BENCH_<bench>.json row (echoed to stdout): the bench name,
 * core count and core_limited flag (fewer cores than the bench's widest
 * parallel phase, @p parallelism: such numbers measure time-slicing,
 * not capacity), then the fields @p fill adds.
 */
inline void
writeBenchRow(const char *bench, unsigned parallelism,
              const std::function<void(JsonWriter &)> &fill)
{
    JsonWriter row;
    row.beginObject()
        .field("bench", bench)
        .field("cores", benchCores())
        .field("core_limited", benchCores() < parallelism);
    fill(row);
    const std::string &json = row.endObject().str();
    std::printf("\n%s\n", json.c_str());
    const std::string path = std::string("BENCH_") + bench + ".json";
    if (std::FILE *f = std::fopen(path.c_str(), "w")) {
        std::fprintf(f, "%s\n", json.c_str());
        std::fclose(f);
    }
}

/** One timed run of @p workload under @p detector ("" = native). */
struct BenchRun
{
    double seconds = 0.0;
    DebuggerStats stats;
    std::size_t bugSites = 0;
};

inline BenchRun
runWorkload(const std::string &workload_name,
            const std::string &detector_name, std::size_t ops,
            int threads = 1, std::uint64_t seed = 42)
{
    auto workload = makeWorkload(workload_name);
    if (!workload)
        fatal("bench: unknown workload " + workload_name);

    PmRuntime runtime;
    std::unique_ptr<Detector> detector;
    if (!detector_name.empty()) {
        DebuggerConfig config;
        config.model = workload->model();
        if (!workload->orderSpecText().empty()) {
            config.orderSpec =
                OrderSpec::fromText(workload->orderSpecText());
        }
        detector = makeDetector(detector_name, config);
        if (!detector)
            fatal("bench: unknown detector " + detector_name);
        runtime.attach(detector.get());
    }

    WorkloadOptions options;
    options.operations = ops;
    options.seed = seed;
    options.threads = threads;
    options.trackPersistence = false; // hardware does this for free

    Stopwatch watch;
    workload->run(runtime, options);
    // Delivering the last partial batch is part of the measured time.
    runtime.drain();
    BenchRun run;
    run.seconds = watch.elapsedSeconds();
    if (detector) {
        detector->finalize();
        run.stats = detector->stats();
        run.bugSites = detector->bugs().total();
    }
    return run;
}

/** Median-of-@p reps timing (fresh state each repetition). */
inline BenchRun
runMedian(const std::string &workload_name,
          const std::string &detector_name, std::size_t ops,
          int threads = 1, int reps = 3)
{
    // One unmeasured warm-up run (page faults, allocator growth), then
    // the median of the measured repetitions.
    runWorkload(workload_name, detector_name,
                std::max<std::size_t>(64, ops / 4), threads, 41);
    std::vector<BenchRun> runs;
    for (int r = 0; r < reps; ++r) {
        runs.push_back(runWorkload(workload_name, detector_name, ops,
                                   threads, 42 + r));
    }
    std::sort(runs.begin(), runs.end(),
              [](const BenchRun &a, const BenchRun &b) {
                  return a.seconds < b.seconds;
              });
    return runs[runs.size() / 2];
}

} // namespace pmdb

#endif // PMDB_BENCH_BENCH_UTIL_HH
