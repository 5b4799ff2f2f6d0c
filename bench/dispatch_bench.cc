/**
 * @file
 * Dispatch-pipeline benchmark: events/sec through PmRuntime with the
 * PMDebugger detector attached, at batch capacity 1 (per-event
 * delivery) and at the default capacity.
 *
 * It attaches the registry's PMDebugger detector (DBI cost model on)
 * and measures dispatch + bookkeeping cost — the overhead batching
 * attacks: at capacity 1 every event pays a full clean-call charge and
 * a virtual sink call, at the default capacity events pay an inline
 * buffer-append and the batch amortizes the clean call, the sink
 * virtual call and (in thread-safe mode, which this runs in) the sink
 * mutex.
 *
 * Emits a JSON row to BENCH_dispatch.json (and stdout) so the perf
 * trajectory across PRs can be tracked.
 */

#include <cstdio>

#include "bench/bench_util.hh"
#include "core/debugger.hh"
#include "trace/runtime.hh"

namespace pmdb
{
namespace
{

struct MicroResult
{
    double seconds = 0.0;
    double eventsPerSec = 0.0;
    std::uint64_t events = 0;
    std::size_t bugs = 0;
    std::uint64_t arrayFreed = 0;
    std::uint64_t treeInsertions = 0;
};

/**
 * Synthetic fence-interval stream over a 1 MiB region: runs of 64
 * eight-byte stores, one collective writeback covering the whole run,
 * then the fence. Collective flushes that match the CLF-interval
 * bounds are the common case the paper's Pattern 2 optimization
 * targets (Fig 2), and they keep flush handling O(1) so the
 * measurement is dominated by per-store dispatch + bookkeeping — the
 * cost the batched pipeline amortizes.
 */
MicroResult
runMicro(std::size_t capacity, std::size_t fence_intervals)
{
    constexpr std::size_t storesPerInterval = 64;
    constexpr std::size_t bytesPerStore = 8;
    constexpr std::size_t regionBytes = 1 << 20;

    PmRuntime runtime;
    const auto debugger = makeDetector("pmdebugger", DebuggerConfig{});
    runtime.attach(debugger.get());
    runtime.setThreadSafe(true);
    runtime.setBatchCapacity(capacity);

    Stopwatch watch;
    Addr base = 0;
    for (std::size_t i = 0; i < fence_intervals; ++i) {
        for (std::size_t s = 0; s < storesPerInterval; ++s)
            runtime.store(base + s * bytesPerStore, bytesPerStore);
        const std::size_t spanBytes = storesPerInterval * bytesPerStore;
        runtime.flush(base, static_cast<std::uint32_t>(spanBytes));
        runtime.fence();
        base = (base + spanBytes) % regionBytes;
    }
    runtime.programEnd();

    MicroResult result;
    result.seconds = watch.elapsedSeconds();
    debugger->finalize();
    result.events = runtime.eventCount();
    result.eventsPerSec =
        result.seconds > 0.0
            ? static_cast<double>(result.events) / result.seconds
            : 0.0;
    result.bugs = debugger->bugs().total();
    const DebuggerStats stats = debugger->stats();
    result.arrayFreed = stats.array.recordsCollectivelyFreed;
    result.treeInsertions = stats.tree.insertions;
    return result;
}

MicroResult
medianMicro(std::size_t capacity, std::size_t fence_intervals,
            int reps = 3)
{
    runMicro(capacity, std::max<std::size_t>(64, fence_intervals / 4));
    std::vector<MicroResult> runs;
    for (int r = 0; r < reps; ++r)
        runs.push_back(runMicro(capacity, fence_intervals));
    std::sort(runs.begin(), runs.end(),
              [](const MicroResult &a, const MicroResult &b) {
                  return a.seconds < b.seconds;
              });
    return runs[runs.size() / 2];
}

int
benchMain()
{
    std::printf("=== Dispatch pipeline: batch capacity 1 vs %zu ===\n\n",
                defaultBatchCapacity);

    const std::size_t intervals = scaled(40000);

    const MicroResult per = medianMicro(1, intervals);
    const MicroResult bat = medianMicro(defaultBatchCapacity, intervals);

    const bool identical = per.bugs == bat.bugs &&
                           per.arrayFreed == bat.arrayFreed &&
                           per.treeInsertions == bat.treeInsertions;

    TextTable micro;
    micro.setHeader({"capacity", "events", "seconds", "events/sec",
                     "vs capacity 1"});
    const auto row = [&](const char *name, const MicroResult &r) {
        micro.addRow({name, fmtCount(r.events), fmtDouble(r.seconds, 4),
                      fmtCount(static_cast<std::size_t>(r.eventsPerSec)),
                      fmtFactor(r.eventsPerSec / per.eventsPerSec, 2)});
    };
    row("1", per);
    row(std::to_string(defaultBatchCapacity).c_str(), bat);
    std::printf("--- micro: PMDebugger bookkeeping, store-dominated "
                "stream ---\n%s\n",
                micro.render().c_str());
    std::printf("results identical across capacities: %s\n",
                identical ? "yes" : "NO — BUG");

    writeBenchRow("dispatch", 1, [&](JsonWriter &row) {
        row.field("events", per.events)
            .field("events_per_sec_perevent", per.eventsPerSec, 0)
            .field("events_per_sec_batched", bat.eventsPerSec, 0)
            .field("batched_speedup", bat.eventsPerSec / per.eventsPerSec,
                   3)
            .field("results_identical", identical);
    });

    return identical ? 0 : 1;
}

} // namespace
} // namespace pmdb

int
main()
{
    return pmdb::benchMain();
}
