/**
 * @file
 * Detection-service benchmark: (a) shard scaling of the address-range
 * sharded detector pool on a synthetic store-heavy stream, and (b) an
 * ingestion sweep — 1/2/4/8 concurrent RemoteSink clients x 1/4
 * detector shards streaming into an in-process ServiceDaemon — that
 * reports aggregate events/s plus per-client fairness (min/max client
 * rate).
 *
 * Why shard scaling pays even on a single core: the synthetic stream
 * flushes every line individually, so each CLF closes a CLF interval
 * (§4.3) and the next applyFlush scans the fence interval's whole
 * accumulated interval-metadata list — cost grows with the number of
 * live intervals, quadratic over a fence interval. Sharding partitions
 * the bookkeeping space: each shard scans only its own stripes'
 * interval list, dividing that cost by the shard count. On top of
 * that, a fence interval's 131072 distinct locations overflow one
 * shard's fixed-capacity memory-location array (Section 4.1) into
 * AVL-tree insertion (Section 4.2), while 2+ shards stay under
 * capacity on the O(1) array path. Both effects are bookkeeping-space
 * partitioning, not thread parallelism, so the speedup holds on 1-CPU
 * hosts.
 *
 * Emits a JSON row to BENCH_service.json (and stdout). Exits non-zero
 * if the per-shard-count verdicts disagree (identity self-check).
 */

#include <cstdio>
#include <thread>
#include <unistd.h>
#include <vector>

#include "bench/bench_util.hh"
#include "service/daemon.hh"
#include "service/remote_sink.hh"
#include "service/shard.hh"
#include "trace/event.hh"

namespace pmdb
{
namespace
{

constexpr Addr stripeBytes = 4ull << 20;
constexpr std::size_t stripes = 8;

/**
 * Store-heavy stream: per fence interval, every stripe gets
 * @p lines_per_stripe distinct 64-byte lines stored and flushed, then
 * one fence closes the interval. Fully persisted, so the verdict is
 * zero bugs and the identity check across shard counts is trivial to
 * state: same (empty) bug list, same store/flush totals.
 */
std::vector<Event>
buildStream(std::size_t rounds, std::size_t lines_per_stripe)
{
    std::vector<Event> events;
    events.reserve(rounds * (stripes * lines_per_stripe * 2 + 1) + 1);
    SeqNum seq = 1;
    auto emit = [&](EventKind kind, Addr addr, std::uint32_t size) {
        Event event;
        event.kind = kind;
        event.addr = addr;
        event.size = size;
        event.seq = seq++;
        events.push_back(event);
    };
    for (std::size_t round = 0; round < rounds; ++round) {
        for (std::size_t stripe = 0; stripe < stripes; ++stripe) {
            const Addr base = static_cast<Addr>(stripe) * stripeBytes;
            for (std::size_t line = 0; line < lines_per_stripe;
                 ++line) {
                const Addr addr = base + 64 * line;
                emit(EventKind::Store, addr, 64);
                emit(EventKind::Flush, addr, 64);
            }
        }
        emit(EventKind::Fence, 0, 0);
    }
    emit(EventKind::ProgramEnd, 0, 0);
    return events;
}

struct ShardRun
{
    double seconds = 0.0;
    double eventsPerSec = 0.0;
    SessionVerdict verdict;
};

/** Stream @p events through a pool of @p shards and time to verdict. */
ShardRun
runShardPool(std::size_t shards, const std::vector<Event> &events)
{
    ShardPoolConfig config;
    config.shards = shards;
    config.stripeBytes = stripeBytes;
    ShardPool pool(config);
    pool.start();

    DebuggerConfig debugger; // default epoch model, default capacity
    const SessionId session = 1;
    pool.openSession(session, debugger, /*pinned=*/false);

    // Route in ring-batch-sized chunks, mirroring the daemon's
    // tryPop(512) drain loop.
    constexpr std::size_t chunk = 512;
    Stopwatch watch;
    for (std::size_t at = 0; at < events.size(); at += chunk) {
        pool.routeEvents(session, events.data() + at,
                         std::min(chunk, events.size() - at));
    }
    ShardRun run;
    run.verdict = pool.closeSession(session, {});
    run.seconds = watch.elapsedSeconds();
    run.eventsPerSec =
        static_cast<double>(events.size()) / run.seconds;
    pool.stop();
    return run;
}

/**
 * One measured pass after an unmeasured warm-up. A single rep is
 * enough here: the shard effect under measurement is 2-5x, orders of
 * magnitude above run-to-run noise, and the quadratic 1-shard pass
 * dominates the bench's wall clock.
 */
ShardRun
timedShardRun(std::size_t shards, const std::vector<Event> &events,
              const std::vector<Event> &warmup)
{
    runShardPool(shards, warmup);
    return runShardPool(shards, events);
}

struct OneClient
{
    std::uint64_t events = 0;
    double seconds = 0.0;
};

/**
 * One ingestion client: connects a RemoteSink (Block policy) to the
 * daemon and pushes a flush+fence-punctuated store stream over a small
 * working set, so the measurement is ring + control-plane transport
 * cost, not detector bookkeeping.
 */
OneClient
runClient(const std::string &socket_path, int client,
          std::size_t store_count)
{
    RemoteSink sink;
    RemoteSink::Options options;
    options.socketPath = socket_path;
    options.ringPath = "/tmp/pmdb_bench." +
                       std::to_string(::getpid()) + "." +
                       std::to_string(client) + ".ring";
    std::string error;
    if (!sink.connect(options, &error))
        fatal("service_bench: connect failed: " + error);

    SeqNum seq = 1;
    Stopwatch watch;
    auto send = [&](EventKind kind, Addr addr, std::uint32_t size) {
        Event event;
        event.kind = kind;
        event.addr = addr;
        event.size = size;
        event.seq = seq++;
        sink.handle(event);
    };
    for (std::size_t i = 0; i < store_count; ++i) {
        const Addr addr = 0x1000 + 64 * (i % 64);
        send(EventKind::Store, addr, 64);
        if (i % 64 == 63) {
            send(EventKind::Flush, 0x1000, 64 * 64);
            send(EventKind::Fence, 0, 0);
        }
    }
    send(EventKind::ProgramEnd, 0, 0);

    ReportBody report;
    if (!sink.finish(&report, &error))
        fatal("service_bench: finish failed: " + error);
    OneClient result;
    result.events = report.eventsProcessed;
    result.seconds = watch.elapsedSeconds();
    return result;
}

struct ClientRun
{
    double seconds = 0.0;
    double eventsPerSec = 0.0;
    std::uint64_t events = 0;
    /** Slowest / fastest single-client rate (fairness spread). */
    double minClientRate = 0.0;
    double maxClientRate = 0.0;
};

/** Aggregate throughput of @p clients concurrent sessions. */
ClientRun
runClients(const std::string &socket_path, int clients,
           std::size_t stores_per_client)
{
    std::vector<std::thread> threads;
    std::vector<OneClient> per(static_cast<std::size_t>(clients));
    Stopwatch watch;
    for (int c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            per[static_cast<std::size_t>(c)] =
                runClient(socket_path, c, stores_per_client);
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    ClientRun run;
    run.seconds = watch.elapsedSeconds();
    for (const OneClient &client : per) {
        run.events += client.events;
        const double rate =
            client.seconds > 0.0
                ? static_cast<double>(client.events) / client.seconds
                : 0.0;
        if (run.minClientRate == 0.0 || rate < run.minClientRate)
            run.minClientRate = rate;
        if (rate > run.maxClientRate)
            run.maxClientRate = rate;
    }
    run.eventsPerSec = static_cast<double>(run.events) / run.seconds;
    return run;
}

/** One ingest-sweep measurement point. */
struct SweepPoint
{
    std::size_t shards = 0;
    int clients = 0;
    ClientRun run;
};

/**
 * The ingestion sweep: for each shard count, one daemon serves
 * 1/2/4/8-client groups back to back. Two pollers multiplex all
 * rings; detector workers scale with the shard count.
 */
std::vector<SweepPoint>
runIngestSweep(std::size_t stores_per_client)
{
    std::vector<SweepPoint> points;
    for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
        ServiceConfig config;
        config.socketPath = "/tmp/pmdb_bench." +
                            std::to_string(::getpid()) + ".s" +
                            std::to_string(shards) + ".sock";
        config.pool.shards = shards;
        config.pollers = 2;
        ServiceDaemon daemon(config);
        std::string error;
        if (!daemon.start(&error))
            fatal("service_bench: daemon start failed: " + error);
        runClients(config.socketPath, 1,
                   std::max<std::size_t>(64, stores_per_client / 4));
        for (const int clients : {1, 2, 4, 8}) {
            SweepPoint point;
            point.shards = shards;
            point.clients = clients;
            point.run = runClients(config.socketPath, clients,
                                   stores_per_client);
            points.push_back(point);
        }
        daemon.stop();
    }
    return points;
}

int
benchMain()
{
    const unsigned cores =
        std::max(1u, std::thread::hardware_concurrency());

    // --- shard scaling -------------------------------------------------
    // 8 stripes x 16384 lines = 131072 distinct locations per fence
    // interval: 1.3x one shard's array capacity (forced AVL overflow),
    // under capacity per shard at 2 and 4 shards (array path).
    const std::size_t lines = scaled(16384);
    const std::vector<Event> stream = buildStream(3, lines);
    const std::vector<Event> warmup =
        buildStream(1, std::max<std::size_t>(64, lines / 8));

    const ShardRun s1 = timedShardRun(1, stream, warmup);
    const ShardRun s2 = timedShardRun(2, stream, warmup);
    const ShardRun s4 = timedShardRun(4, stream, warmup);

    const bool identical =
        s1.verdict.bugs.size() == s2.verdict.bugs.size() &&
        s1.verdict.bugs.size() == s4.verdict.bugs.size() &&
        s1.verdict.stats.stores == s2.verdict.stats.stores &&
        s1.verdict.stats.stores == s4.verdict.stats.stores &&
        s1.verdict.stats.flushes == s2.verdict.stats.flushes &&
        s1.verdict.stats.flushes == s4.verdict.stats.flushes;

    TextTable shard_table;
    shard_table.setHeader(
        {"shards", "seconds", "events/s", "speedup", "tree inserts"});
    const auto addShardRow = [&](std::size_t n, const ShardRun &run) {
        shard_table.addRow(
            {std::to_string(n), fmtDouble(run.seconds, 3),
             fmtCount(static_cast<std::uint64_t>(run.eventsPerSec)),
             fmtFactor(s1.seconds / run.seconds, 2),
             fmtCount(run.verdict.stats.tree.insertions)});
    };
    addShardRow(1, s1);
    addShardRow(2, s2);
    addShardRow(4, s4);
    std::printf("--- shard scaling: %zu-event store-heavy stream, "
                "%zu stripes x %zu lines per fence interval ---\n%s\n",
                stream.size(), stripes, lines,
                shard_table.render().c_str());
    const double shard_speedup = s1.seconds / s4.seconds;
    std::printf("verdicts identical across shard counts: %s\n",
                identical ? "yes" : "NO — BUG");
    std::printf("4-shard >= 2x 1-shard: %s (%.2fx)\n",
                shard_speedup >= 2.0 ? "yes" : "no", shard_speedup);
    if (benchScale() < 1.0) {
        std::printf("note: PMDB_BENCH_SCALE < 1 shrinks the working "
                    "set below the array-overflow threshold, so the "
                    "shard speedup target only applies at full "
                    "scale\n");
    }

    // --- multi-client ingestion sweep ---------------------------------
    const std::size_t stores = scaled(200000);
    const std::vector<SweepPoint> sweep = runIngestSweep(stores);

    // Aggregate rate of the 1-client group at each shard count, the
    // scaling baseline for that shard count's rows.
    const auto baseRate = [&](std::size_t shards) {
        for (const SweepPoint &point : sweep) {
            if (point.shards == shards && point.clients == 1)
                return point.run.eventsPerSec;
        }
        return 0.0;
    };

    TextTable client_table;
    client_table.setHeader({"shards", "clients", "events", "seconds",
                            "aggregate events/s", "vs 1 client",
                            "client min", "client max"});
    for (const SweepPoint &point : sweep) {
        const double base = baseRate(point.shards);
        client_table.addRow(
            {std::to_string(point.shards),
             std::to_string(point.clients),
             fmtCount(point.run.events),
             fmtDouble(point.run.seconds, 3),
             fmtCount(
                 static_cast<std::uint64_t>(point.run.eventsPerSec)),
             fmtFactor(base > 0.0 ? point.run.eventsPerSec / base
                                  : 0.0,
                       2),
             fmtCount(static_cast<std::uint64_t>(
                 point.run.minClientRate)),
             fmtCount(static_cast<std::uint64_t>(
                 point.run.maxClientRate))});
    }
    std::printf("--- ingestion sweep: concurrent RemoteSink clients "
                "-> pmdbd (2 pollers, block policy) ---\n%s\n",
                client_table.render().c_str());
    const auto ratioAt = [&](std::size_t shards, int clients) {
        const double base = baseRate(shards);
        for (const SweepPoint &point : sweep) {
            if (point.shards == shards && point.clients == clients)
                return base > 0.0 ? point.run.eventsPerSec / base
                                  : 0.0;
        }
        return 0.0;
    };
    std::printf("4-client aggregate vs 1-client: %.2fx at 1 shard, "
                "%.2fx at 4 shards (%u core%s visible)\n",
                ratioAt(1, 4), ratioAt(4, 4), cores,
                cores == 1 ? "" : "s");
    if (cores < 4) {
        std::printf("note: multi-client scaling is core-bound; the "
                    ">=4x aggregate target needs >=4 cores (this "
                    "host pins every thread to %u)\n", cores);
    }

    // The sweep's largest client group; aggregate scaling numbers from
    // hosts with fewer cores than clients measure time-slicing, not
    // ingestion capacity — flag them for downstream consumers.
    constexpr unsigned maxClients = 8;

    writeBenchRow("service", maxClients, [&](JsonWriter &row) {
        row.field("shard_stream_events", stream.size())
            .field("events_per_sec_shard1", s1.eventsPerSec, 0)
            .field("events_per_sec_shard2", s2.eventsPerSec, 0)
            .field("events_per_sec_shard4", s4.eventsPerSec, 0)
            .field("shard_speedup_4x1", shard_speedup, 3)
            .field("shard_speedup_2x1", s1.seconds / s2.seconds, 3)
            .field("ingest_stores_per_client", stores)
            .key("ingest")
            .beginArray();
        for (const SweepPoint &point : sweep) {
            row.beginObject()
                .field("shards", point.shards)
                .field("clients", point.clients)
                .field("events", point.run.events)
                .field("seconds", point.run.seconds, 3)
                .field("events_per_sec", point.run.eventsPerSec, 0)
                .field("vs_1_client", ratioAt(point.shards, point.clients),
                       3)
                .field("client_min_events_per_sec",
                       point.run.minClientRate, 0)
                .field("client_max_events_per_sec",
                       point.run.maxClientRate, 0)
                .endObject();
        }
        row.endArray()
            .field("ingest_ratio_4v1_shard1", ratioAt(1, 4), 3)
            .field("ingest_ratio_4v1_shard4", ratioAt(4, 4), 3)
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
