/**
 * @file
 * Crash-state exploration benchmark.
 *
 * Part 1 — capture rate: crash points/sec captured by the incremental
 * per-cache-line delta capture (CrashsimSession, O(dirty lines) per
 * boundary) vs a naive capture that materializes a full crash image
 * (CrashSimulator::crashImage, O(pool size)) at every fence. The
 * engine's acceptance bar is a >= 5x capture-rate advantage.
 *
 * Part 2 — exploration: run a seeded-fault workload end to end
 * (capture + bounded enumeration + recovery verification +
 * minimization) single-threaded and with 4 workers, checking the
 * results are bit-identical and reporting the parallel speedup,
 * images deduped and bugs found.
 *
 * Emits a JSON row to BENCH_crashsim.json (and stdout).
 */

#include <cstdio>

#include "bench/bench_util.hh"
#include "crashsim/capture.hh"
#include "pmdk/pool.hh"
#include "workloads/crashsim_runner.hh"

namespace pmdb
{
namespace
{

/**
 * The baseline the delta capture replaces: a PersistenceObserver that
 * copies the full crash image at every boundary. The copy is folded
 * into a checksum (a real naive capture would retain or spill each
 * image; retaining thousands of pool-sized copies would dominate the
 * comparison with allocator effects, so only the mandatory O(pool)
 * materialization cost is measured).
 */
class NaiveCapture : public PersistenceObserver
{
  public:
    void adopt(const PmemDevice &device)
    {
        device_ = &device;
        device.setPersistenceObserver(this);
    }

    void onLineQueued(std::uint64_t, const PendingLine &) override {}

    void onBoundary(const Event &, int) override
    {
        if (!device_)
            return;
        const std::vector<std::uint8_t> image =
            CrashSimulator(*device_).crashImage(CrashPolicy::DropPending);
        for (std::size_t i = 0; i < image.size(); i += 4096)
            checksum_ ^= image[i];
        ++points_;
    }

    void onDeviceDestroyed() override { device_ = nullptr; }

    std::uint64_t points() const { return points_; }
    std::uint8_t checksum() const { return checksum_; }

  private:
    const PmemDevice *device_ = nullptr;
    std::uint64_t points_ = 0;
    std::uint8_t checksum_ = 0;
};

struct CaptureResult
{
    double seconds = 0.0;
    std::uint64_t points = 0;
    double pointsPerSec() const
    {
        return seconds > 0.0 ? static_cast<double>(points) / seconds
                             : 0.0;
    }
};

/**
 * A fence-interval stream over a multi-MiB pool: a handful of dirty
 * lines per fence, which is the regime the delta capture targets —
 * capture work proportional to the dirty lines, not the pool.
 */
CaptureResult
runCapture(bool naive, std::size_t fence_intervals)
{
    constexpr std::size_t poolBytes = 4 << 20;
    constexpr std::size_t linesPerInterval = 8;

    PmRuntime runtime;
    PmemPool pool(runtime, poolBytes, "capture.pool", true);
    const Addr base = pool.alloc(1 << 20);

    CrashsimSession session;
    NaiveCapture naive_capture;
    if (naive)
        naive_capture.adopt(pool.device());
    else
        session.adopt(pool.device());

    Stopwatch watch;
    Addr cursor = base;
    for (std::size_t i = 0; i < fence_intervals; ++i) {
        for (std::size_t l = 0; l < linesPerInterval; ++l) {
            const Addr addr = cursor + l * cacheLineSize;
            pool.store<std::uint64_t>(addr, i);
            pool.flush(addr, 8);
        }
        pool.fence();
        cursor = base + (i * linesPerInterval * cacheLineSize) %
                            (1 << 19);
    }
    runtime.programEnd();

    CaptureResult result;
    result.seconds = watch.elapsedSeconds();
    result.points = naive ? naive_capture.points()
                          : session.log().points.size();
    return result;
}

CaptureResult
medianCapture(bool naive, std::size_t fence_intervals, int reps = 3)
{
    runCapture(naive, std::max<std::size_t>(16, fence_intervals / 8));
    std::vector<CaptureResult> runs;
    for (int r = 0; r < reps; ++r)
        runs.push_back(runCapture(naive, fence_intervals));
    std::sort(runs.begin(), runs.end(),
              [](const CaptureResult &a, const CaptureResult &b) {
                  return a.seconds < b.seconds;
              });
    return runs[runs.size() / 2];
}

int
benchMain()
{
    std::printf("=== Crash-state exploration: capture rate and "
                "parallel verification ===\n\n");

    // Part 1: incremental delta capture vs naive full-image capture.
    const std::size_t intervals = scaled(4000);
    const CaptureResult delta = medianCapture(false, intervals);
    const CaptureResult naive = medianCapture(true, intervals);
    const double capture_speedup =
        naive.pointsPerSec() > 0.0
            ? delta.pointsPerSec() / naive.pointsPerSec()
            : 0.0;

    TextTable capture;
    capture.setHeader({"capture", "crash points", "seconds",
                       "points/sec", "vs naive"});
    capture.addRow({"delta (incremental)", fmtCount(delta.points),
                    fmtDouble(delta.seconds, 4),
                    fmtCount(static_cast<std::size_t>(
                        delta.pointsPerSec())),
                    fmtFactor(capture_speedup, 2)});
    capture.addRow({"naive (full image)", fmtCount(naive.points),
                    fmtDouble(naive.seconds, 4),
                    fmtCount(static_cast<std::size_t>(
                        naive.pointsPerSec())),
                    fmtFactor(1.0, 2)});
    std::printf("--- capture: 4 MiB pool, 8 dirty lines per fence "
                "---\n%s\n",
                capture.render().c_str());

    // Part 2: end-to-end exploration of a seeded-fault workload,
    // single-threaded vs 4 workers.
    WorkloadOptions wl_options;
    wl_options.operations = scaled(120);
    wl_options.poolBytes = 1 << 20;
    wl_options.faults.enable("hmatomic_skip_entry_flush");

    CrashsimOptions explore_options;
    explore_options.maxFindings = 1 << 20; // compare complete results
    explore_options.workers = 1;
    const CrashsimResult one = runCrashsimWorkload(
        "hashmap_atomic", wl_options, explore_options);
    explore_options.workers = 4;
    const CrashsimResult four = runCrashsimWorkload(
        "hashmap_atomic", wl_options, explore_options);
    const bool identical = one.identicalTo(four);
    const double parallel_speedup =
        four.exploreSeconds > 0.0
            ? one.exploreSeconds / four.exploreSeconds
            : 0.0;

    TextTable explore;
    explore.setHeader({"workers", "images verified", "findings",
                       "explore s", "speedup"});
    explore.addRow({"1",
                    fmtCount(one.stats.imagesVerified),
                    fmtCount(one.findings.size()),
                    fmtDouble(one.exploreSeconds, 4),
                    fmtFactor(1.0, 2)});
    explore.addRow({"4",
                    fmtCount(four.stats.imagesVerified),
                    fmtCount(four.findings.size()),
                    fmtDouble(four.exploreSeconds, 4),
                    fmtFactor(parallel_speedup, 2)});
    std::printf("--- explore: hashmap_atomic x %zu ops, "
                "hmatomic_skip_entry_flush ---\n%s\n",
                wl_options.operations, explore.render().c_str());
    std::printf("crash points %llu, images enumerated %llu, deduped "
                "%llu, bugs found %zu\n",
                static_cast<unsigned long long>(one.stats.points),
                static_cast<unsigned long long>(
                    one.stats.imagesEnumerated),
                static_cast<unsigned long long>(
                    one.stats.imagesDeduped),
                one.findings.size());
    std::printf("4-worker results identical to single-threaded: %s\n",
                identical ? "yes" : "NO — BUG");

    const bool capture_ok = capture_speedup >= 5.0;
    if (!capture_ok) {
        std::printf("WARNING: delta capture advantage %.2fx below the "
                    "5x acceptance bar\n",
                    capture_speedup);
    }

    writeBenchRow("crashsim", 4, [&](JsonWriter &row) {
        row.field("capture_points", delta.points)
            .field("capture_points_per_sec_delta", delta.pointsPerSec(), 0)
            .field("capture_points_per_sec_naive", naive.pointsPerSec(), 0)
            .field("capture_speedup", capture_speedup, 2)
            .field("explore_points", one.stats.points)
            .field("explore_points_per_sec",
                   one.exploreSeconds > 0.0
                       ? static_cast<double>(one.stats.points) /
                             one.exploreSeconds
                       : 0.0,
                   0)
            .field("images_enumerated", one.stats.imagesEnumerated)
            .field("images_deduped", one.stats.imagesDeduped)
            .field("images_verified", one.stats.imagesVerified)
            .field("bugs_found", one.findings.size())
            .field("parallel_speedup_4w", parallel_speedup, 2)
            .field("results_identical", identical);
    });

    return identical && capture_ok ? 0 : 1;
}

} // namespace
} // namespace pmdb

int
main()
{
    return pmdb::benchMain();
}
