/**
 * @file
 * The benchmark's four workloads. Each runs in its own forked child
 * (pmdb_bench.cc), so the telemetry registry and peak RSS it sees are
 * its own.
 *
 * Rules every workload follows, so the numbers describe what users run:
 *  - PmDebugger is attached directly. The detector registry's
 *    PmDebuggerDetector is DBI-based and would charge PmRuntime's
 *    synthetic binary-translation spin, a stand-in for Valgrind that no
 *    change to this code base can make cheaper.
 *  - The dispatch mode is never changed (pmdb_run uses the runtime's
 *    default), except for the one informational batched probe of
 *    memcached_mt.
 *  - Programs run with the device's persistence tracking off (real PM
 *    does that in hardware), as the Figure 8 harness does; crashsim
 *    keeps it on because its capture reads the device.
 *
 * A run has a set-up phase (references, daemon start, one warm-up
 * repetition), after which a set-up child (RunConfig::setupOnly) stops,
 * then a measured phase. The end-to-end phase times detected
 * repetitions back to back;
 * a traced round runs the program twice under detection, untraced and
 * traced, and the first rounds also run it natively and under the
 * instrumentation floor (NulgrindSink).
 */

#include <array>
#include <cerrno>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include <malloc.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bench.hh"
#include "common/logging.hh"
#include "common/stopwatch.hh"
#include "core/debugger.hh"
#include "crashsim/capture.hh"
#include "modelcheck/engine.hh"
#include "service/daemon.hh"
#include "service/remote_sink.hh"
#include "telemetry/span.hh"
#include "timed_sink.hh"
#include "trace/recorder.hh"
#include "workloads/modelcheck_workloads.hh"
#include "workloads/workload.hh"

namespace pmdb
{
namespace bench
{
namespace
{

/** Fewest repetitions of an end-to-end run. */
constexpr std::size_t minReps = 3;
/**
 * Fewest rounds of a traced run. bench.trace_overhead is the median of
 * the rounds' traced ÷ untraced ratios, and on memcached_mt single
 * ratios scatter by ±8%, so it needs many.
 */
constexpr std::size_t minTracedRounds = 16;
/** Traced rounds that also run the native and floor passes. */
constexpr std::size_t baselineRounds = 5;
/**
 * A traced run stops adding rounds after this long, so it ends well
 * inside the 180 s a run may take even on a slow host.
 */
constexpr double tracedCapSeconds = 60.0;
/** Rounds of pmdbd_mix's traced run that add the in-process core pass. */
constexpr std::size_t corePasses = 5;

std::unique_ptr<Workload>
program(const char *name)
{
    std::unique_ptr<Workload> workload = makeWorkload(name);
    if (!workload)
        fatal(std::string("pmdb_bench: unknown program ") + name);
    return workload;
}

WorkloadOptions
programOptions(std::size_t ops, std::uint64_t seed)
{
    WorkloadOptions options;
    options.operations = ops;
    options.seed = seed;
    options.trackPersistence = false;
    return options;
}

DebuggerConfig
detectorConfig(const Workload &workload)
{
    DebuggerConfig config;
    config.model = workload.model();
    if (!workload.orderSpecText().empty())
        config.orderSpec = OrderSpec::fromText(workload.orderSpecText());
    return config;
}

/**
 * Return freed heap memory to the system. Called after a workload builds
 * its references: their memory stays in the allocator's per-thread
 * arenas otherwise, and the reported peak RSS would then add up
 * references and repetition depending on which arenas the repetition's
 * threads happen to draw from.
 */
void
releaseFreedMemory()
{
    ::malloc_trim(0);
}

/**
 * Multi-threaded memcached has two data races in the runtime that the
 * benchmark must keep from corrupting the heap:
 *  - NameTable: worker threads intern site names under the runtime's
 *    site mutex while registerPmem() looks names up without it, so a
 *    first-time site name can rehash the table under a reader
 *    (AddressSanitizer: heap-use-after-free in NameTable::intern).
 *  - ThreadId 0's site stack: PmemPool allocates on behalf of every
 *    worker as ThreadId 0, so the other workers read that stack
 *    (PmRuntime::siteOf) while worker 0 pushes and pops it; a push that
 *    reallocates frees memory under the reader, and a read of an empty
 *    stack reads before its buffer (heap-buffer-overflow in siteOf).
 * In a release build either one occasionally aborts the run. Before the
 * workers start, shieldSiteRaces() interns every name the program uses
 * (learned from a single-threaded run), so the multi-threaded run only
 * looks names up, and grows ThreadId 0's stack and keeps one site open
 * on it, so its racy reads stay in bounds. Neither changes a verdict:
 * detection consults names only on RegisterPmem events, by string.
 */
std::vector<std::string>
learnNames(Workload &workload, WorkloadOptions options)
{
    options.threads = 1;
    PmRuntime runtime;
    workload.run(runtime, options);
    std::vector<std::string> names;
    for (std::uint32_t id = 0; id < runtime.names().size(); ++id)
        names.push_back(runtime.names().name(id));
    return names;
}

void
shieldSiteRaces(PmRuntime &runtime, const std::vector<std::string> &names)
{
    for (const std::string &name : names) {
        runtime.siteEnter(name, 0);
        runtime.siteLeave(0);
    }
    constexpr int depth = 8;
    for (int i = 0; i < depth; ++i)
        runtime.siteEnter("pmdb_bench.thread0", 0);
    for (int i = 1; i < depth; ++i)
        runtime.siteLeave(0);
}

/**
 * One run of @p workload with @p sink attached (null: native). A
 * multi-threaded run is shielded with @p names (see shieldSiteRaces).
 */
double
runOnce(Workload &workload, const WorkloadOptions &options,
        TraceSink *sink, std::uint64_t track,
        const std::vector<std::string> &names = {})
{
    PmRuntime runtime;
    if (sink)
        runtime.attach(sink);
    if (options.threads > 1)
        shieldSiteRaces(runtime, names);
    Stopwatch watch;
    telemetry::SpanTimer span("workload.run", "bench", track);
    workload.run(runtime, options);
    return watch.elapsedSeconds();
}

/** Spans are recorded only while a traced pass runs. */
class TracedPass
{
  public:
    TracedPass() { telemetry::setSpansEnabled(true); }
    ~TracedPass() { telemetry::setSpansEnabled(false); }
    TracedPass(const TracedPass &) = delete;
    TracedPass &operator=(const TracedPass &) = delete;
};

/** One detected repetition: first op to verdict in hand. */
struct Rep
{
    double seconds = 0.0;
    /** Workload operations it completed. */
    double ops = 0.0;
};

/** What a workload hands the shared measurement loop. */
struct Passes
{
    /** The workload's program(s) without a sink. */
    std::function<double()> native;
    /** The same under NulgrindSink; sets the events of one pass. */
    std::function<double(std::uint64_t *events)> floor;
    /** One detected repetition; a traced one puts spans on @p track. */
    std::function<Rep(bool traced, std::uint64_t track)> detected;
    /** Operations of one native pass (for events per op). */
    double programOps = 0.0;
};

/**
 * The measured phase. End-to-end: ops_per_s, the median rate of the
 * detected repetitions. Traced: workloads.*, trace.floor_ns_per_event
 * and bench.trace_overhead; the workload adds its layer metrics
 * afterwards.
 */
void
measure(const RunConfig &config, const Passes &passes, RunResult &result)
{
    if (!config.traced) {
        std::vector<double> rates;
        result.reps = measureFor(config.seconds, minReps, [&](std::size_t) {
            const Rep rep = passes.detected(false, 0);
            rates.push_back(rep.ops / rep.seconds);
        });
        result.addMedian("ops_per_s", "ops/s", rates);
        return;
    }

    telemetry::Registry::global().resetForTest();
    std::vector<double> native;
    std::vector<double> floor;
    std::vector<double> slowdown;
    std::vector<double> overhead;
    std::uint64_t events = 0;
    result.reps = measureFor(
        config.seconds, minTracedRounds, [&](std::size_t round) {
            if (round < baselineRounds) {
                native.push_back(passes.native());
                floor.push_back(passes.floor(&events));
            }
            const auto untraced_pass = [&] {
                return passes.detected(false, 0).seconds;
            };
            const auto traced_pass = [&] {
                TracedPass pass;
                return passes.detected(true, round + 1).seconds;
            };
            // The two passes of a round run back to back, and which goes
            // first alternates, so host drift cancels in their ratio.
            double untraced = 0.0;
            double traced = 0.0;
            if (round % 2) {
                traced = traced_pass();
                untraced = untraced_pass();
            } else {
                untraced = untraced_pass();
                traced = traced_pass();
            }
            if (round < baselineRounds)
                slowdown.push_back(untraced / native.back());
            overhead.push_back(traced / untraced - 1.0);
        },
        tracedCapSeconds);
    const double native_s = median(native);
    result.addMedian("workloads.native_s", "s", native);
    result.add("workloads.events_per_op", "events/op",
               static_cast<double>(events) / passes.programOps);
    result.addMedian("workloads.slowdown", "x", slowdown);
    result.add("trace.floor_ns_per_event", "ns",
               (median(floor) - native_s) * 1e9 /
                   static_cast<double>(events));
    result.addMedian("bench.trace_overhead", "fraction", overhead);
}

void
writeSpanTrace(const RunConfig &config, const char *workload)
{
    const std::string path =
        config.outDir + "/trace_" + workload + ".json";
    if (!telemetry::SpanBuffer::global().writeChromeTrace(path))
        warn("pmdb_bench", "cannot write span trace " + path);
}

/** Core-layer readings from TimedSinks wrapped around PmDebuggers. */
struct CoreLayer
{
    std::vector<double> store;
    std::vector<double> flush;
    std::vector<double> fence;
    std::vector<double> epoch;
    /** Per pass: ProgramEnd handling (finalize) of all its programs. */
    std::vector<double> finalizeMs;
    /** Per pass: time in the detector per event, finalize excluded. */
    std::vector<double> nsPerEvent;
    /** Per pass: that time over the pass's wall time. */
    std::vector<double> busyFrac;
    std::vector<double> eventsPerCall;
    /** Bookkeeping counters of the latest pass. */
    DebuggerStats stats;

    double passNs = 0.0;
    double passFinalizeNs = 0.0;
    double passEvents = 0.0;
    double passCalls = 0.0;

    void
    beginPass()
    {
        stats = DebuggerStats{};
        passNs = passFinalizeNs = passEvents = passCalls = 0.0;
    }

    void
    add(const TimedSink &timed, const PmDebugger &debugger)
    {
        const auto append = [](std::vector<double> &to,
                               const std::vector<double> &from) {
            to.insert(to.end(), from.begin(), from.end());
        };
        append(store, timed.samples(EventKind::Store));
        append(flush, timed.samples(EventKind::Flush));
        append(fence, timed.samples(EventKind::Fence));
        append(epoch, timed.samples(EventKind::EpochBegin));
        append(epoch, timed.samples(EventKind::EpochEnd));
        double finalize_ns = 0.0;
        for (double ns : timed.samples(EventKind::ProgramEnd))
            finalize_ns += ns;
        passFinalizeNs += finalize_ns;
        passNs += timed.busyNs() - finalize_ns;
        passEvents += static_cast<double>(timed.events());
        passCalls += static_cast<double>(timed.calls());

        const DebuggerStats part = debugger.stats();
        stats.tree.insertions += part.tree.insertions;
        stats.tree.reorganizations += part.tree.reorganizations;
        stats.treeNodeSampleSum += part.treeNodeSampleSum;
        stats.treeNodeSamples += part.treeNodeSamples;
        stats.array.overflowStores += part.array.overflowStores;
        stats.array.recordsCollectivelyFreed +=
            part.array.recordsCollectivelyFreed;
        stats.array.recordsMovedToTree += part.array.recordsMovedToTree;
        stats.array.recordsDroppedIndividually +=
            part.array.recordsDroppedIndividually;
    }

    /** Close a pass that took @p seconds of wall time. */
    void
    endPass(double seconds)
    {
        finalizeMs.push_back(passFinalizeNs / 1e6);
        nsPerEvent.push_back(passNs / passEvents);
        busyFrac.push_back(passNs / 1e9 / seconds);
        eventsPerCall.push_back(passEvents / passCalls);
    }

    /**
     * core.* metrics, each TimedSink p50 cross-checked against the
     * detector's own sampled eval histogram.
     */
    void
    report(RunResult &result, std::size_t *mismatches) const
    {
        result.addMedian("core.ns_per_event", "ns", nsPerEvent);
        const std::pair<const char *, const std::vector<double> *>
            kinds[] = {{"store", &store}, {"flush", &flush},
                       {"fence", &fence}};
        for (const auto &[kind, samples] : kinds) {
            const std::string base = std::string("core.") + kind;
            const double p50 = quantile(*samples, 0.5);
            result.add(base + "_ns_p50", "ns", p50);
            result.add(base + "_ns_p99", "ns", quantile(*samples, 0.99));
            const double program_p50 = histogramQuantile(
                registryHistogram(std::string("detector.eval_ns{class=\"") +
                                  kind + "\"}"),
                0.5);
            result.add(std::string("core.tm_") + kind + "_ns_p50", "ns",
                       program_p50);
            crossCheck(std::string(kind) + " p50 ns (detector.eval_ns)",
                       p50, program_p50, mismatches);
        }
        result.add("core.epoch_ns_p50", "ns", quantile(epoch, 0.5));
        result.addMedian("core.finalize_ms", "ms", finalizeMs);
        result.add("core.tree_insertions", "count",
                   static_cast<double>(stats.tree.insertions));
        result.add("core.tree_reorganizations", "count",
                   static_cast<double>(stats.tree.reorganizations));
        result.add("core.avg_tree_nodes", "count",
                   stats.avgTreeNodesPerFenceInterval());
        result.add("core.array_overflow_stores", "count",
                   static_cast<double>(stats.array.overflowStores));
        const double retired = static_cast<double>(
            stats.array.recordsCollectivelyFreed +
            stats.array.recordsMovedToTree +
            stats.array.recordsDroppedIndividually);
        result.add("core.collective_free_frac", "fraction",
                   retired > 0.0
                       ? static_cast<double>(
                             stats.array.recordsCollectivelyFreed) /
                             retired
                       : 0.0);
    }
};

// --- tx_inproc and memcached_mt: in-process detection -----------------

/**
 * Informational: bug sites the detector reports on this input under
 * batched dispatch (per-event dispatch reports none). The batched path
 * also shares ThreadId 0's event batch between workers (see
 * shieldSiteRaces), a data race no shield covers, so the probe runs in
 * its own process; -1 means that process crashed.
 */
double
batchedReportSites(Workload &workload, const WorkloadOptions &options,
                   const DebuggerConfig &config,
                   const std::vector<std::string> &names)
{
    int fds[2];
    if (::pipe(fds) != 0)
        return -1.0;
    const pid_t pid = ::fork();
    if (pid < 0) {
        ::close(fds[0]);
        ::close(fds[1]);
        return -1.0;
    }
    if (pid == 0) {
        ::close(fds[0]);
        PmDebugger debugger(config);
        PmRuntime runtime;
        runtime.setBatched(true);
        runtime.attach(&debugger);
        shieldSiteRaces(runtime, names);
        workload.run(runtime, options);
        const std::uint64_t sites = debugger.bugs().total();
        const bool ok =
            ::write(fds[1], &sites, sizeof(sites)) == sizeof(sites);
        ::_exit(ok ? 0 : 1);
    }
    ::close(fds[1]);
    std::uint64_t sites = 0;
    const bool got = ::read(fds[0], &sites, sizeof(sites)) == sizeof(sites);
    ::close(fds[0]);
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (!got || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        warn("pmdb_bench", "batched-dispatch probe crashed");
        return -1.0;
    }
    return static_cast<double>(sites);
}

struct InProcessSpec
{
    const char *name;
    const char *program;
    std::size_t ops;
    int threads;
    double setRatio;
    /**
     * Single-threaded streams are deterministic, so the detector's
     * store/flush/fence counts must equal a counting sink's.
     */
    bool checkCounts;
    /** Report trace.batched_mt_report_sites (multi-threaded input). */
    bool batchedProbe;
};

RunResult
runInProcess(const RunConfig &config, const InProcessSpec &spec)
{
    RunResult result;
    Checks &checks = result.checks;
    const std::unique_ptr<Workload> workload = program(spec.program);
    WorkloadOptions options = programOptions(spec.ops, config.seed);
    options.threads = spec.threads;
    options.setRatio = spec.setRatio;
    const DebuggerConfig debugger_config = detectorConfig(*workload);
    NulgrindSink reference;
    std::vector<std::string> names;
    CoreLayer core;

    Passes passes;
    passes.programOps = static_cast<double>(spec.ops);
    passes.native = [&] {
        return runOnce(*workload, options, nullptr, 0, names);
    };
    passes.floor = [&](std::uint64_t *events) {
        NulgrindSink floor;
        const double seconds =
            runOnce(*workload, options, &floor, 0, names);
        *events = floor.total();
        return seconds;
    };
    passes.detected = [&](bool traced, std::uint64_t track) {
        PmDebugger debugger(debugger_config);
        std::optional<TimedSink> timed;
        TraceSink *sink = &debugger;
        if (traced)
            sink = &timed.emplace(debugger, track);
        Rep rep;
        rep.seconds = runOnce(*workload, options, sink, track, names);
        rep.ops = static_cast<double>(spec.ops);
        checks.expect(debugger.bugs().total() == 0,
                      std::string(spec.program) +
                          ": clean program reported bugs");
        if (spec.checkCounts) {
            const DebuggerStats stats = debugger.stats();
            checks.expect(
                stats.stores == reference.count(EventKind::Store) &&
                    stats.flushes == reference.count(EventKind::Flush) &&
                    stats.fences == reference.count(EventKind::Fence),
                std::string(spec.program) +
                    ": detector event counts differ from a counting "
                    "sink's");
        }
        if (traced) {
            core.beginPass();
            core.add(*timed, debugger);
            core.endPass(rep.seconds);
        }
        return rep;
    };

    // Set-up: references and one unmeasured warm-up repetition.
    if (spec.threads > 1)
        names = learnNames(*workload, options);
    if (spec.checkCounts)
        runOnce(*workload, options, &reference, 0);
    releaseFreedMemory();
    passes.detected(false, 0);
    if (config.setupOnly)
        return result;
    measure(config, passes, result);
    if (!config.traced)
        return result;

    std::size_t mismatches = 0;
    result.addMedian("trace.sink_busy_frac", "fraction", core.busyFrac);
    result.addMedian("trace.events_per_call", "events/call",
                     core.eventsPerCall);
    core.report(result, &mismatches);
    if (spec.batchedProbe) {
        result.add("trace.batched_mt_report_sites", "count",
                   batchedReportSites(*workload, options, debugger_config,
                                      names));
    }
    result.add("bench.crosscheck_mismatches", "count",
               static_cast<double>(mismatches));
    writeSpanTrace(config, spec.name);
    return result;
}

RunResult
runTxInproc(const RunConfig &config)
{
    return runInProcess(config, {"tx_inproc", "hashmap_tx", 100000, 1,
                                 0.05, true, false});
}

RunResult
runMemcachedMt(const RunConfig &config)
{
    return runInProcess(config, {"memcached_mt", "memcached", 300000, 3,
                                 0.5, false, true});
}

// --- pmdbd_mix: two RemoteSink clients into one daemon -----------------

/** One client program of pmdbd_mix and its in-process reference. */
struct Client
{
    std::unique_ptr<Workload> workload;
    WorkloadOptions options;
    DebuggerConfig debuggerConfig;
    bool clean = true;
    std::string ringPath;
    std::vector<BugFingerprint> reference;
};

/** What one client session produced (checked on the main thread). */
struct Session
{
    std::string error;
    std::vector<BugFingerprint> verdict;
    double seconds = 0.0;
    double verdictSeconds = 0.0;
    /** Events the client shipped and the daemon reported processing. */
    std::uint64_t sent = 0;
    std::uint64_t processed = 0;
    double busyNs = 0.0;
    double events = 0.0;
    double calls = 0.0;
};

Session
runSession(Client &client, const std::string &socket, bool traced)
{
    Session session;
    Stopwatch watch;
    RemoteSink sink;
    RemoteSink::Options options;
    options.socketPath = socket;
    options.ringPath = client.ringPath;
    options.model = client.workload->model();
    options.orderSpecText = client.workload->orderSpecText();
    if (!sink.connect(options, &session.error))
        return session;
    const std::uint64_t track = sink.sessionId();
    std::optional<TimedSink> timed;
    TraceSink *attached = &sink;
    if (traced)
        attached = &timed.emplace(sink, track);
    PmRuntime runtime;
    runtime.attach(attached);
    {
        telemetry::SpanTimer span("workload.run", "bench", track);
        client.workload->run(runtime, client.options);
    }
    ReportBody report;
    Stopwatch verdict_watch;
    {
        telemetry::SpanTimer span("sink.finish", "bench", track,
                                  "parent=session");
        if (!sink.finish(&report, &session.error))
            return session;
    }
    session.verdictSeconds = verdict_watch.elapsedSeconds();
    session.seconds = watch.elapsedSeconds();
    session.sent = sink.ringEvents();
    session.processed = report.eventsProcessed;
    for (const BugReport &bug : report.bugs)
        session.verdict.push_back(fingerprintOf(bug));
    if (timed) {
        session.busyNs = timed->busyNs();
        session.events = static_cast<double>(timed->events());
        session.calls = static_cast<double>(timed->calls());
    }
    return session;
}

/** Run @p fn(client index) for both clients concurrently. */
template <typename Fn>
void
forBothClients(Fn fn)
{
    std::thread other([&] { fn(1); });
    fn(0);
    other.join();
}

RunResult
runPmdbdMix(const RunConfig &config)
{
    constexpr std::size_t ops = 100000;
    RunResult result;
    Checks &checks = result.checks;
    std::array<Client, 2> clients;
    const std::pair<const char *, const char *> programs[2] = {
        {"b_tree", nullptr}, {"hashmap_atomic", "hmatomic_skip_entry_flush"}};
    for (std::size_t i = 0; i < clients.size(); ++i) {
        Client &client = clients[i];
        client.workload = program(programs[i].first);
        client.options = programOptions(ops, config.seed);
        if (programs[i].second) {
            client.options.faults.enable(programs[i].second);
            client.clean = false;
        }
        client.debuggerConfig = detectorConfig(*client.workload);
        client.ringPath = config.outDir + "/client" + std::to_string(i) +
                          "." + std::to_string(::getpid()) + ".ring";
    }

    // In-process detection of one client's program: the reference
    // verdict, and in the traced run the core-layer pass.
    const auto inProcess = [&](Client &client, CoreLayer *core) {
        PmDebugger debugger(client.debuggerConfig);
        std::optional<TimedSink> timed;
        TraceSink *sink = &debugger;
        if (core)
            sink = &timed.emplace(debugger, 0);
        runOnce(*client.workload, client.options, sink, 0);
        if (core)
            core->add(*timed, debugger);
        return debugger.bugs().fingerprints();
    };

    ServiceConfig service;
    service.socketPath =
        config.outDir + "/pmdbd." + std::to_string(::getpid()) + ".sock";
    service.pool.shards = 2;
    service.pollers = 1;
    if (config.traced)
        service.traceOutPath = config.outDir + "/trace_pmdbd_mix.json";
    std::unique_ptr<ServiceDaemon> daemon;

    // Readings of the measured phase, filled by the passes.
    std::vector<double> sessions;
    std::vector<double> verdicts[2];
    std::vector<double> client_ns;
    std::vector<double> client_busy;
    std::vector<double> client_events_per_call;
    CoreLayer core;
    std::size_t core_passes = 0;

    Passes passes;
    passes.programOps = 2.0 * ops;
    const auto concurrent = [&](NulgrindSink *sinks) {
        return timeIt([&] {
            forBothClients([&](std::size_t i) {
                runOnce(*clients[i].workload, clients[i].options,
                        sinks ? &sinks[i] : nullptr, 0);
            });
        });
    };
    passes.native = [&] { return concurrent(nullptr); };
    passes.floor = [&](std::uint64_t *events) {
        NulgrindSink floor[2];
        const double seconds = concurrent(floor);
        *events = floor[0].total() + floor[1].total();
        return seconds;
    };
    // One repetition: both sessions concurrently, every verdict checked
    // against the in-process reference. The first traced repetitions are
    // followed by an in-process pass over both programs for the core
    // layer.
    passes.detected = [&](bool traced, std::uint64_t) {
        std::array<Session, 2> out;
        Rep rep;
        rep.seconds = timeIt([&] {
            forBothClients([&](std::size_t i) {
                out[i] = runSession(clients[i], service.socketPath,
                                    traced);
            });
        });
        rep.ops = 2.0 * ops;
        for (std::size_t i = 0; i < clients.size(); ++i) {
            const Session &session = out[i];
            checks.expect(session.error.empty(),
                          "pmdbd session failed: " + session.error);
            checks.expect(session.verdict == clients[i].reference,
                          std::string(programs[i].first) +
                              ": pmdbd verdict differs from in-process");
            checks.expect(session.processed == session.sent,
                          std::string(programs[i].first) +
                              ": pmdbd processed a different event count "
                              "than the client sent");
            sessions.push_back(session.seconds);
            verdicts[i].push_back(session.verdictSeconds * 1e3);
            if (traced)
                client_ns.push_back(session.busyNs / session.events);
        }
        if (traced) {
            client_busy.push_back((out[0].busyNs + out[1].busyNs) / 1e9 /
                                  (out[0].seconds + out[1].seconds));
            client_events_per_call.push_back(
                (out[0].events + out[1].events) /
                (out[0].calls + out[1].calls));
        }
        if (traced && core_passes < corePasses) {
            ++core_passes;
            core.beginPass();
            const double seconds = timeIt([&] {
                for (Client &client : clients) {
                    checks.expect(inProcess(client, &core) ==
                                      client.reference,
                                  "in-process verdict changed between "
                                  "runs");
                }
            });
            core.endPass(seconds);
        }
        return rep;
    };

    // Set-up: references and one unmeasured warm-up repetition.
    for (Client &client : clients) {
        client.reference = inProcess(client, nullptr);
        checks.expect(
            client.clean == client.reference.empty(),
            std::string(client.workload->name()) +
                (client.clean ? ": clean program reported bugs"
                              : ": seeded bug not reported"));
    }
    releaseFreedMemory();
    daemon = std::make_unique<ServiceDaemon>(service);
    std::string error;
    if (!daemon->start(&error))
        fatal("pmdb_bench: pmdbd start failed: " + error);
    // start() turns spans on when tracing; only traced passes record
    // them.
    telemetry::setSpansEnabled(false);
    passes.detected(false, 0);
    if (config.setupOnly) {
        daemon->stop();
        return result;
    }
    sessions.clear();
    verdicts[0].clear();
    verdicts[1].clear();

    const IngestStats ingest_before = daemon->ingestStats();
    const telemetry::MetricsSnapshot before = daemon->metricsSnapshot();
    const std::size_t summaries_before = daemon->summaries().size();
    measure(config, passes, result);
    if (!config.traced) {
        daemon->stop();
        return result;
    }

    std::size_t mismatches = 0;
    // The sink on the application's path here is the RemoteSink.
    result.addMedian("trace.sink_busy_frac", "fraction", client_busy);
    result.addMedian("trace.events_per_call", "events/call",
                     client_events_per_call);
    core.report(result, &mismatches);

    // Service layer: client side from the traced sessions, daemon side
    // from its telemetry over the measured phase.
    const telemetry::MetricsSnapshot after = daemon->metricsSnapshot();
    const IngestStats ingest_after = daemon->ingestStats();
    const std::vector<SessionSummary> summaries = daemon->summaries();
    const auto hist = [&](const char *name) {
        const telemetry::MetricSample *sample = after.find(name);
        return sample ? sample->hist : telemetry::HistogramSnapshot{};
    };
    const auto counterDelta = [&](const char *name) {
        const telemetry::MetricSample *a = after.find(name);
        const telemetry::MetricSample *b = before.find(name);
        return static_cast<double>((a ? a->value : 0) -
                                   (b ? b->value : 0));
    };
    result.addMedian("service.client_ns_per_event", "ns", client_ns);
    double session_total = 0.0;
    for (double s : sessions)
        session_total += s;
    result.add("service.stall_frac", "fraction",
               static_cast<double>(
                   registryHistogram("client.sink.block_stall_ns").sum) /
                   1e9 / session_total);
    Metric p75{"service.session_s_p75", "s", quantile(sessions, 0.75),
               sessions.size()};
    p75.q1 = p75.q3 = p75.value;
    result.addMedian("service.session_s_p50", "s", sessions);
    result.metrics.push_back(p75);
    result.addMedian("service.verdict_ms_clean_p50", "ms", verdicts[0]);
    result.addMedian("service.verdict_ms_buggy_p50", "ms", verdicts[1]);
    result.add("service.report_bugs", "count",
               static_cast<double>(clients[1].reference.size()));
    const std::pair<const char *, const char *> stages[] = {
        {"ring_residency", "pmdbd.ring_residency_ns"},
        {"queue_wait", "pmdbd.shard.queue_wait_ns"},
        {"shard_eval", "pmdbd.shard.eval_ns"}};
    for (const auto &[stage, metric] : stages) {
        const telemetry::HistogramSnapshot h = hist(metric);
        const std::string base = std::string("service.") + stage;
        result.add(base + "_us_p50", "us", histogramQuantile(h, 0.5) / 1e3);
        result.add(base + "_us_p99", "us",
                   histogramQuantile(h, 0.99) / 1e3);
    }
    result.add("service.merge_ms_p50", "ms",
               histogramQuantile(hist("pmdbd.shard.verdict_ns"), 0.5) / 1e6);
    const double polls =
        static_cast<double>(ingest_after.polls - ingest_before.polls);
    result.add("service.idle_poll_frac", "fraction",
               polls > 0.0 ? static_cast<double>(ingest_after.idlePolls -
                                                 ingest_before.idlePolls) /
                                 polls
                           : 0.0);
    result.add("service.events_per_frame", "events/frame",
               static_cast<double>(registryValue("pmdbd.events_drained")) /
                   static_cast<double>(
                       std::max<std::int64_t>(
                           1, registryValue("pmdbd.frames_drained"))));
    result.add("service.steals", "count", counterDelta("pmdbd.steals"));
    double stalls = 0.0;
    std::vector<double> daemon_sessions;
    for (std::size_t i = summaries_before; i < summaries.size(); ++i) {
        stalls += static_cast<double>(summaries[i].queueFullStalls);
        daemon_sessions.push_back(summaries[i].seconds);
    }
    result.add("service.queue_full_stalls", "count", stalls);

    crossCheck("session s p50 (pmdbd.session)", median(sessions),
               median(daemon_sessions), &mismatches);
    result.add("bench.crosscheck_mismatches", "count",
               static_cast<double>(mismatches));
    // Stopping the daemon writes the one Perfetto trace holding both the
    // benchmark's spans and the daemon's.
    daemon->stop();
    return result;
}

// --- crash_atomic: the offline engines --------------------------------

/** Time @p fn @p times times and return the median (short passes). */
double
medianOf(int times, const std::function<double()> &fn)
{
    std::vector<double> runs;
    for (int i = 0; i < times; ++i)
        runs.push_back(fn());
    return median(std::move(runs));
}

RunResult
runCrashAtomic(const RunConfig &config)
{
    RunResult result;
    Checks &checks = result.checks;

    ModelCheckOptions search;
    search.run.operations = 64;
    search.run.seed = config.seed;
    search.maxDepth = 4;
    search.maxStates = std::size_t{1} << 20;
    search.workers = 2;

    const std::unique_ptr<Workload> crash_program =
        program("hashmap_atomic");
    WorkloadOptions capture_options = programOptions(4000, config.seed);
    capture_options.poolBytes = std::size_t{16} << 20;
    capture_options.trackPersistence = true;
    CrashsimOptions explore;
    explore.workers = 2;
    explore.seed = config.seed;

    ModelCheckOptions seeded = search;
    seeded.run.operations = 3;
    seeded.maxDepth = 3;

    const auto modelcheck = [](ModelWorkload &&model,
                               const ModelCheckOptions &options) {
        ModelChecker checker(model, options);
        return checker.run();
    };
    // Capture and explore as separate phases (runCrashsimWorkload does
    // both in one call), so each gets its own time and span.
    const auto crashsim = [&](const CrashsimOptions &options,
                              std::uint64_t track, double *capture_s,
                              double *explore_s) {
        CrashsimSession session(options);
        WorkloadOptions run_options = capture_options;
        run_options.crashsim = &session;
        *capture_s = timeIt([&] {
            PmRuntime runtime;
            telemetry::SpanTimer span("crashsim.capture", "bench", track);
            crash_program->run(runtime, run_options);
        });
        if (!session.hasVerifier())
            fatal("pmdb_bench: hashmap_atomic ships no crash verifier");
        CrashsimResult out;
        *explore_s = timeIt([&] {
            telemetry::SpanTimer span("crashsim.explore", "bench", track);
            out = session.explore();
        });
        return out;
    };

    ModelCheckResult search_reference;
    CrashsimResult crashsim_reference;
    // Readings of the traced repetitions.
    std::vector<double> search_s;
    std::vector<double> capture_s;
    std::vector<double> explore_s;
    std::vector<double> states_per_s;
    std::vector<double> images_per_s;
    ModelCheckStats search_stats;
    CrashsimStats crashsim_stats;

    // The native and floor passes run the program crashsim captures; it
    // is short, so each pass is the median of five runs.
    WorkloadOptions native_options = capture_options;
    native_options.trackPersistence = false;
    Passes passes;
    passes.programOps = static_cast<double>(native_options.operations);
    passes.native = [&] {
        return medianOf(5, [&] {
            return runOnce(*crash_program, native_options, nullptr, 0);
        });
    };
    passes.floor = [&](std::uint64_t *events) {
        return medianOf(5, [&] {
            NulgrindSink floor;
            const double seconds =
                runOnce(*crash_program, native_options, &floor, 0);
            *events = floor.total();
            return seconds;
        });
    };
    passes.detected = [&](bool traced, std::uint64_t track) {
        ModelCheckResult found;
        ModelCheckResult bug;
        CrashsimResult crashes;
        double capture = 0.0;
        double exploring = 0.0;
        const double searching = timeIt([&] {
            telemetry::SpanTimer span("modelcheck.run", "bench", track);
            found = modelcheck(HashmapAtomicModel(), search);
        });
        crashes = crashsim(explore, track, &capture, &exploring);
        const double seeding = timeIt([&] {
            telemetry::SpanTimer span("modelcheck.seeded", "bench", track);
            bug = modelcheck(McUndoFlushModel(true), seeded);
        });
        checks.expect(found.identicalTo(search_reference),
                      "modelcheck: 2-worker search differs from 1-worker");
        checks.expect(found.findings.empty(),
                      "modelcheck: clean hashmap_atomic has findings");
        checks.expect(crashes.identicalTo(crashsim_reference),
                      "crashsim: 2-worker result differs from 1-worker");
        checks.expect(crashes.findings.empty(),
                      "crashsim: clean hashmap_atomic has findings");
        checks.expect(!bug.findings.empty(),
                      "modelcheck: seeded mc_undo_flush not found");
        Rep rep;
        rep.seconds = searching + capture + exploring + seeding;
        rep.ops = static_cast<double>(found.stats.distinctStates +
                                      crashes.stats.imagesVerified +
                                      bug.stats.distinctStates);
        if (traced) {
            search_s.push_back(searching);
            capture_s.push_back(capture);
            explore_s.push_back(exploring);
            states_per_s.push_back(
                static_cast<double>(found.stats.distinctStates) /
                searching);
            images_per_s.push_back(
                static_cast<double>(crashes.stats.imagesVerified) /
                exploring);
            search_stats = found.stats;
            crashsim_stats = crashes.stats;
        }
        return rep;
    };

    // Set-up: references and one unmeasured warm-up repetition.
    ModelCheckOptions one = search;
    one.workers = 1;
    search_reference = modelcheck(HashmapAtomicModel(), one);
    CrashsimOptions single = explore;
    single.workers = 1;
    double unused_capture = 0.0;
    double unused_explore = 0.0;
    crashsim_reference =
        crashsim(single, 0, &unused_capture, &unused_explore);
    releaseFreedMemory();
    passes.detected(false, 0);
    if (config.setupOnly)
        return result;
    measure(config, passes, result);
    if (!config.traced)
        return result;

    const double candidates = static_cast<double>(search_stats.candidates);
    result.addMedian("modelcheck.search_s", "s", search_s);
    result.addMedian("modelcheck.states_per_s", "states/s", states_per_s);
    result.add("modelcheck.executions", "count",
               static_cast<double>(search_stats.executions));
    result.add("modelcheck.candidates", "count", candidates);
    result.add("modelcheck.pruned_frac", "fraction",
               static_cast<double>(search_stats.prunedCandidates) /
                   candidates);
    result.add("modelcheck.dedup_frac", "fraction",
               static_cast<double>(search_stats.dedupedStates) /
                   candidates);
    result.add("modelcheck.round_ms_p50", "ms",
               histogramQuantile(registryHistogram("modelcheck.round_ns"),
                                 0.5) /
                   1e6);
    result.addMedian("crashsim.capture_s", "s", capture_s);
    result.addMedian("crashsim.explore_s", "s", explore_s);
    result.addMedian("crashsim.images_per_s", "images/s", images_per_s);
    result.add("crashsim.points", "count",
               static_cast<double>(crashsim_stats.points));
    result.add("crashsim.images_enumerated", "count",
               static_cast<double>(crashsim_stats.imagesEnumerated));
    result.add("crashsim.dedup_frac", "fraction",
               static_cast<double>(crashsim_stats.imagesDeduped) /
                   static_cast<double>(crashsim_stats.imagesEnumerated));
    writeSpanTrace(config, "crash_atomic");
    return result;
}

} // namespace

const std::vector<WorkloadDef> &
workloadDefs()
{
    static const std::vector<WorkloadDef> defs = {
        {"tx_inproc", runTxInproc},
        {"memcached_mt", runMemcachedMt},
        {"pmdbd_mix", runPmdbdMix},
        {"crash_atomic", runCrashAtomic},
    };
    return defs;
}

} // namespace bench
} // namespace pmdb
