/**
 * @file
 * Two-writer shared-pool benchmark: aggregate events/s of the
 * shared_queue producer/consumer pair streaming into an in-process
 * daemon, with the cross-session engine active (pool announced in the
 * Hello) versus inactive (same workload, same pool file, sessions
 * unannounced — the daemon treats them as unrelated). The delta is
 * the full cost of cross-session detection: retaining the shared
 * events per session, the end-of-group merge sort, and the rule
 * replay.
 *
 * The pair runs in lock-step (every operation is a producer turn then
 * a consumer turn over the pool's coordination word), so the measured
 * stream is identical event-for-event between the two configurations
 * and across repetitions — the comparison isolates engine cost, not
 * scheduling luck.
 *
 * Emits a JSON row to BENCH_crossproc.json (and stdout). Exits
 * non-zero if the cross-engine run's verdict is wrong (the seeded
 * case must report exactly ops bugs; the clean case none).
 */

#include <cstdio>
#include <thread>
#include <unistd.h>
#include <vector>

#include "bench/bench_util.hh"
#include "pmem/shared_device.hh"
#include "service/daemon.hh"
#include "service/remote_sink.hh"
#include "workloads/shared_queue.hh"

namespace pmdb
{
namespace
{

std::string
scratch(const std::string &stem)
{
    static int counter = 0;
    return "/tmp/pmdb_xpb." + std::to_string(::getpid()) + "." + stem +
           "." + std::to_string(counter++);
}

struct PairResult
{
    double seconds = 0.0;
    std::uint64_t sessionEvents = 0; // both writers' processed events
    std::uint64_t mergedEvents = 0;  // shared events replayed
    std::size_t crossBugs = 0;
};

/** One two-writer run; @p announce switches the cross engine on/off. */
PairResult
runPair(std::size_t ops, const std::string &fault, bool announce,
        std::size_t shards)
{
    ServiceConfig config;
    config.socketPath = scratch("sock");
    config.pool.shards = shards;
    ServiceDaemon daemon(config);
    std::string error;
    if (!daemon.start(&error))
        fatal("crossproc_bench: daemon start failed: " + error);

    const std::string pool_path = scratch("pool");
    if (!SharedPmemPool::createPoolFile(
            pool_path, SharedQueueWorkload::poolBytesFor(ops), &error))
        fatal("crossproc_bench: pool create failed: " + error);

    std::uint64_t events[2] = {0, 0};
    auto writerBody = [&](std::uint32_t writer, std::uint64_t *out) {
        SharedQueueWorkload workload;
        WorkloadOptions options;
        options.operations = ops;
        options.sharedPoolPath = pool_path;
        options.sharedWriter = writer;
        if (!fault.empty())
            options.faults.enable(fault);

        RemoteSink::Options ropts;
        ropts.socketPath = config.socketPath;
        ropts.ringPath = scratch("ring");
        ropts.model = workload.model();
        if (announce) {
            ropts.sharedPoolPath = pool_path;
            ropts.sharedWriterId = writer;
        }
        RemoteSink sink;
        std::string err;
        if (!sink.connect(ropts, &err))
            fatal("crossproc_bench: connect failed: " + err);
        PmRuntime runtime;
        runtime.attach(&sink);
        workload.run(runtime, options);
        ReportBody report;
        if (!sink.finish(&report, &err))
            fatal("crossproc_bench: finish failed: " + err);
        *out = report.eventsProcessed;
    };

    Stopwatch watch;
    std::thread producer(writerBody,
                         SharedQueueWorkload::producerWriter,
                         &events[0]);
    std::thread consumer(writerBody,
                         SharedQueueWorkload::consumerWriter,
                         &events[1]);
    producer.join();
    consumer.join();
    while (!daemon.waitForSessions(2, 100)) {
    }
    PairResult result;
    result.seconds = watch.elapsedSeconds();
    daemon.stop();
    result.sessionEvents = events[0] + events[1];
    for (const CrossGroupResult &group : daemon.crossprocResults()) {
        result.mergedEvents += group.eventsReplayed;
        result.crossBugs += group.bugs.size();
    }
    std::remove(pool_path.c_str());
    return result;
}

/** Warm-up + median-of-3. */
PairResult
timedPair(std::size_t ops, const std::string &fault, bool announce,
          std::size_t shards)
{
    runPair(std::max<std::size_t>(64, ops / 4), fault, announce, shards);
    std::vector<PairResult> runs;
    for (int r = 0; r < 3; ++r)
        runs.push_back(runPair(ops, fault, announce, shards));
    std::sort(runs.begin(), runs.end(),
              [](const PairResult &a, const PairResult &b) {
                  return a.seconds < b.seconds;
              });
    return runs[1];
}

int
benchMain()
{
    const std::size_t ops = scaled(2000);
    constexpr std::size_t shards = 4;

    const PairResult cleanOff = timedPair(ops, "", false, shards);
    const PairResult cleanOn = timedPair(ops, "", true, shards);
    const std::string fault = crossprocCases()[0].fault;
    const PairResult seededOn = timedPair(ops, fault, true, shards);

    const auto rate = [](const PairResult &r) {
        return r.seconds > 0.0
                   ? static_cast<double>(r.sessionEvents) / r.seconds
                   : 0.0;
    };
    const double overhead =
        cleanOff.seconds > 0.0
            ? (cleanOn.seconds - cleanOff.seconds) / cleanOff.seconds
            : 0.0;

    TextTable table;
    table.setHeader({"configuration", "seconds", "events",
                     "aggregate events/s", "merged", "cross bugs"});
    const auto addRow = [&](const char *name, const PairResult &r) {
        table.addRow({name, fmtDouble(r.seconds, 3),
                      fmtCount(r.sessionEvents),
                      fmtCount(static_cast<std::uint64_t>(rate(r))),
                      fmtCount(r.mergedEvents),
                      std::to_string(r.crossBugs)});
    };
    addRow("independent sessions", cleanOff);
    addRow("cross engine, clean", cleanOn);
    addRow("cross engine, seeded", seededOn);
    std::printf("--- shared_queue: 2 writers x %zu ops -> pmdbd "
                "(%zu shards) ---\n%s\n",
                ops, shards, table.render().c_str());
    std::printf("cross-session engine overhead vs independent "
                "sessions: %.1f%%\n", overhead * 100.0);

    const bool verdictOk =
        cleanOn.crossBugs == 0 && cleanOff.crossBugs == 0 &&
        cleanOff.mergedEvents == 0 && seededOn.crossBugs == ops;
    if (!verdictOk)
        std::printf("VERDICT MISMATCH: clean %zu/%zu bugs, seeded %zu "
                    "(want %zu)\n", cleanOff.crossBugs,
                    cleanOn.crossBugs, seededOn.crossBugs, ops);

    writeBenchRow("crossproc", static_cast<unsigned>(shards),
                  [&](JsonWriter &row) {
        row.field("ops", ops)
            .field("shards", shards)
            .field("events_per_sec_independent", rate(cleanOff), 0)
            .field("events_per_sec_cross_clean", rate(cleanOn), 0)
            .field("events_per_sec_cross_seeded", rate(seededOn), 0)
            .field("merged_events_clean", cleanOn.mergedEvents)
            .field("cross_overhead", overhead, 4)
            .field("seeded_fault", fault)
            .field("seeded_cross_bugs", seededOn.crossBugs)
            .field("verdict_ok", verdictOk);
    });
    return verdictOk ? 0 : 1;
}

} // namespace
} // namespace pmdb

int
main()
{
    return pmdb::benchMain();
}
