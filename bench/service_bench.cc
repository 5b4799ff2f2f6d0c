/**
 * @file
 * Detection-service benchmark: (a) a one-session stream, store-heavy
 * and fully persisted, at 1024, 2048 and 4096 lines per fence interval,
 * streamed through a one-worker session pool — the cost of one
 * detector's fence-interval bookkeeping as the interval grows (every
 * line is flushed on its own, so each flush closes a CLF interval that
 * the next flush's scan visits); and (b) an ingestion sweep — 1/2/4/8
 * concurrent RemoteSink clients x 1/4 detector workers streaming into
 * an in-process ServiceDaemon — that reports aggregate events/s plus
 * per-client fairness (min/max client rate).
 *
 * Emits a JSON row to BENCH_service.json (and stdout). Exits non-zero
 * if a stream's verdict is not exact (no bug, every store and flush
 * counted).
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>
#include <unistd.h>
#include <vector>

#include "bench/bench_util.hh"
#include "service/daemon.hh"
#include "service/remote_sink.hh"
#include "service/session_pool.hh"
#include "trace/event.hh"

namespace pmdb
{
namespace
{

/**
 * Store-heavy stream: @p rounds fence intervals, each storing and
 * flushing @p lines distinct 64-byte lines one at a time, then one
 * fence. Fully persisted, so the exact verdict is zero bugs.
 */
std::vector<Event>
buildStream(std::size_t rounds, std::size_t lines)
{
    std::vector<Event> events;
    events.reserve(rounds * (lines * 2 + 1) + 1);
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
        for (std::size_t line = 0; line < lines; ++line) {
            const Addr addr = 0x10000 + 64 * line;
            emit(EventKind::Store, addr, 64);
            emit(EventKind::Flush, addr, 64);
        }
        emit(EventKind::Fence, 0, 0);
    }
    emit(EventKind::ProgramEnd, 0, 0);
    return events;
}

struct StreamRun
{
    double seconds = 0.0;
    double eventsPerSec = 0.0;
    SessionVerdict verdict;
};

/** Stream @p events through a one-worker pool and time to verdict. */
StreamRun
runSession(const std::vector<Event> &events)
{
    SessionPool pool;
    pool.start();
    const SessionId session = 1;
    pool.openSession(session, DebuggerConfig{});

    // Route in chunks the size of a typical ring drain.
    constexpr std::size_t chunk = 512;
    Stopwatch watch;
    for (std::size_t at = 0; at < events.size(); at += chunk) {
        const auto from = events.begin() + static_cast<std::ptrdiff_t>(at);
        pool.routeEvents(session,
                         std::vector<Event>(
                             from, from + static_cast<std::ptrdiff_t>(
                                              std::min(chunk,
                                                       events.size() - at))));
    }
    StreamRun run;
    run.verdict = pool.closeSession(session);
    run.seconds = watch.elapsedSeconds();
    run.eventsPerSec = static_cast<double>(events.size()) / run.seconds;
    pool.stop();
    return run;
}

/** Median-time run of three, after an unmeasured warm-up. */
StreamRun
timedStream(const std::vector<Event> &events)
{
    runSession(events);
    std::vector<StreamRun> runs;
    for (int rep = 0; rep < 3; ++rep)
        runs.push_back(runSession(events));
    std::sort(runs.begin(), runs.end(),
              [](const StreamRun &a, const StreamRun &b) {
                  return a.seconds < b.seconds;
              });
    return std::move(runs[1]);
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
    std::size_t workers = 0;
    int clients = 0;
    ClientRun run;
};

/**
 * The ingestion sweep: for each worker count, one daemon serves
 * 1/2/4/8-client groups back to back. Two pollers multiplex all rings.
 */
std::vector<SweepPoint>
runIngestSweep(std::size_t stores_per_client)
{
    std::vector<SweepPoint> points;
    for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
        ServiceConfig config;
        config.socketPath = "/tmp/pmdb_bench." +
                            std::to_string(::getpid()) + ".w" +
                            std::to_string(workers) + ".sock";
        config.pool.shards = workers;
        config.pollers = 2;
        ServiceDaemon daemon(config);
        std::string error;
        if (!daemon.start(&error))
            fatal("service_bench: daemon start failed: " + error);
        runClients(config.socketPath, 1,
                   std::max<std::size_t>(64, stores_per_client / 4));
        for (const int clients : {1, 2, 4, 8}) {
            SweepPoint point;
            point.workers = workers;
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
    const unsigned cores = benchCores();

    // --- one-session stream -------------------------------------------
    // Every size stays under the array capacity (no tree inserts), so
    // events/s falls with the interval only through the flush scan.
    const std::size_t rounds = static_cast<std::size_t>(
        std::max(1.0, std::round(16.0 * benchScale())));
    struct StreamPoint
    {
        std::size_t lines = 0;
        std::size_t events = 0;
        StreamRun run;
    };
    std::vector<StreamPoint> stream;
    bool exact = true;
    for (const std::size_t lines :
         {std::size_t{1024}, std::size_t{2048}, std::size_t{4096}}) {
        const std::vector<Event> events = buildStream(rounds, lines);
        StreamPoint point{lines, events.size(), timedStream(events)};
        const std::uint64_t expected = rounds * lines;
        exact = exact && point.run.verdict.bugs.empty() &&
                point.run.verdict.stats.stores == expected &&
                point.run.verdict.stats.flushes == expected;
        stream.push_back(std::move(point));
    }

    TextTable stream_table;
    stream_table.setHeader({"lines/fence", "events", "seconds", "events/s",
                            "vs 1024", "tree inserts"});
    for (const StreamPoint &point : stream) {
        stream_table.addRow(
            {std::to_string(point.lines), fmtCount(point.events),
             fmtDouble(point.run.seconds, 3),
             fmtCount(static_cast<std::uint64_t>(point.run.eventsPerSec)),
             fmtFactor(stream.front().run.eventsPerSec /
                           point.run.eventsPerSec,
                       2),
             fmtCount(point.run.verdict.stats.tree.insertions)});
    }
    std::printf("--- one-session stream: %zu fence intervals, one line "
                "stored and flushed at a time, 1 worker ---\n%s\n",
                rounds, stream_table.render().c_str());
    std::printf("verdicts exact: %s\n", exact ? "yes" : "NO — BUG");

    // --- multi-client ingestion sweep ---------------------------------
    const std::size_t stores = scaled(200000);
    const std::vector<SweepPoint> sweep = runIngestSweep(stores);

    // Aggregate rate of the 1-client group at each worker count, the
    // scaling baseline for that worker count's rows.
    const auto baseRate = [&](std::size_t workers) {
        for (const SweepPoint &point : sweep) {
            if (point.workers == workers && point.clients == 1)
                return point.run.eventsPerSec;
        }
        return 0.0;
    };

    TextTable client_table;
    client_table.setHeader({"workers", "clients", "events", "seconds",
                            "aggregate events/s", "vs 1 client",
                            "client min", "client max"});
    for (const SweepPoint &point : sweep) {
        const double base = baseRate(point.workers);
        client_table.addRow(
            {std::to_string(point.workers),
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
    const auto ratioAt = [&](std::size_t workers, int clients) {
        const double base = baseRate(workers);
        for (const SweepPoint &point : sweep) {
            if (point.workers == workers && point.clients == clients)
                return base > 0.0 ? point.run.eventsPerSec / base
                                  : 0.0;
        }
        return 0.0;
    };
    std::printf("4-client aggregate vs 1-client: %.2fx at 1 worker, "
                "%.2fx at 4 workers (%u core%s visible)\n",
                ratioAt(1, 4), ratioAt(4, 4), cores,
                cores == 1 ? "" : "s");

    // The sweep's largest client group; aggregate scaling numbers from
    // hosts with fewer cores than clients measure time-slicing, not
    // ingestion capacity — flag them for downstream consumers.
    constexpr unsigned maxClients = 8;

    writeBenchRow("service", maxClients, [&](JsonWriter &row) {
        row.field("stream_fence_intervals", rounds).key("stream").beginArray();
        for (const StreamPoint &point : stream) {
            row.beginObject()
                .field("lines_per_fence", point.lines)
                .field("events", point.events)
                .field("seconds", point.run.seconds, 4)
                .field("events_per_sec", point.run.eventsPerSec, 0)
                .endObject();
        }
        row.endArray()
            .field("stream_slowdown_4096v1024",
                   stream.front().run.eventsPerSec /
                       stream.back().run.eventsPerSec,
                   3)
            .field("ingest_stores_per_client", stores)
            .key("ingest")
            .beginArray();
        for (const SweepPoint &point : sweep) {
            row.beginObject()
                .field("workers", point.workers)
                .field("clients", point.clients)
                .field("events", point.run.events)
                .field("seconds", point.run.seconds, 3)
                .field("events_per_sec", point.run.eventsPerSec, 0)
                .field("vs_1_client", ratioAt(point.workers, point.clients),
                       3)
                .field("client_min_events_per_sec",
                       point.run.minClientRate, 0)
                .field("client_max_events_per_sec",
                       point.run.maxClientRate, 0)
                .endObject();
        }
        row.endArray()
            .field("ingest_ratio_4v1_workers1", ratioAt(1, 4), 3)
            .field("ingest_ratio_4v1_workers4", ratioAt(4, 4), 3)
            .field("verdicts_exact", exact);
    });

    return exact ? 0 : 1;
}

} // namespace
} // namespace pmdb

int
main()
{
    return pmdb::benchMain();
}
