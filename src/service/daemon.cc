#include "service/daemon.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iterator>
#include <thread>
#include <unordered_set>

#include <malloc.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "common/json.hh"
#include "common/logging.hh"
#include "core/debugger.hh"
#include "service/spsc_ring.hh"
#include "service/transport.hh"
#include "telemetry/metrics.hh"
#include "telemetry/span.hh"
#include "trace/trace_file.hh"

namespace pmdb
{

namespace
{

/** Events drained from a ring per poll (>= one batch frame). */
constexpr std::size_t eventsPerDrain = 4096;

/**
 * Hand every block of 128 KiB or more back to the system when it is
 * freed. glibc otherwise raises this threshold to the size of each large
 * block freed, so after the first multi-megabyte verdict or Report
 * payload, later ones come from the freeing worker's arena and stay
 * resident there, where no other worker can reuse them: the resident
 * set then depends on which worker happened to close which session.
 * Setting the threshold stops the raising. The setting is process-wide,
 * so it also covers an embedding process's own large allocations.
 */
void
fixMmapThreshold()
{
#ifdef M_MMAP_THRESHOLD
    ::mallopt(M_MMAP_THRESHOLD, 128 * 1024);
#endif
}

/** Drain-path metrics, resolved once; touched per drain. */
struct DrainMetrics
{
    telemetry::Counter &framesDrained = telemetry::Registry::global()
        .counter("pmdbd.frames_drained");
    telemetry::Counter &eventsDrained = telemetry::Registry::global()
        .counter("pmdbd.events_drained");
    telemetry::Histogram &drainBatchEvents =
        telemetry::Registry::global().histogram(
            "pmdbd.drain_batch_events");
    /** Publish-to-drain latency via the ring's frame stamp. */
    telemetry::Histogram &ringResidencyNs =
        telemetry::Registry::global().histogram(
            "pmdbd.ring_residency_ns");
    /** Detector time per drain and per close. The names predate the
     *  worker pool and are read by the benchmark harness. */
    telemetry::Histogram &evalNs = telemetry::Registry::global()
        .histogram("pmdbd.shard.eval_ns");
    telemetry::Histogram &verdictNs = telemetry::Registry::global()
        .histogram("pmdbd.shard.verdict_ns");

    static DrainMetrics &
    get()
    {
        static DrainMetrics instance;
        return instance;
    }
};

/**
 * Adaptive idle backoff for a worker: yield while recently busy so a
 * burst resumes within a scheduler quantum, then escalate to sleeps
 * doubling up to 256 us so an idle daemon costs ~no CPU.
 */
void
idleBackoff(int idleRounds)
{
    constexpr int spinRounds = 64;
    if (idleRounds <= spinRounds) {
        std::this_thread::yield();
        return;
    }
    const int shift = std::min(idleRounds - spinRounds, 8);
    std::this_thread::sleep_for(std::chrono::microseconds(1 << shift));
}

/** invalidEventField of the first invalid one of @p count events. */
const char *
invalidEvent(const Event *events, std::size_t count, std::size_t names)
{
    for (std::size_t i = 0; i < count; ++i) {
        if (const char *field = invalidEventField(events[i], names))
            return field;
    }
    return nullptr;
}

/**
 * The verdict of a close: append the client-reported @p external bugs
 * to the detector's @p bugs, order by seq (a stable sort keeps
 * external bugs last at equal seq — in-process detection reports at
 * an event before a manual cross-failure check stamped with the same
 * seq) and keep the first detection of each fingerprint.
 */
std::vector<BugReport>
mergeVerdict(SessionId session, std::vector<BugReport> bugs,
             std::vector<BugReport> external)
{
    const bool telemetryOn = telemetry::enabled();
    const std::uint64_t start = telemetryOn ? telemetry::nowNs() : 0;
    telemetry::SpanTimer span("session.verdict", "pmdbd", session);
    bugs.insert(bugs.end(), std::make_move_iterator(external.begin()),
                std::make_move_iterator(external.end()));
    const auto bySeq = [](const BugReport &a, const BugReport &b) {
        return a.seq < b.seq;
    };
    // The detector reports in seq order; without external bugs the
    // list is usually sorted already, so skip the sort's scratch.
    if (!std::is_sorted(bugs.begin(), bugs.end(), bySeq))
        std::stable_sort(bugs.begin(), bugs.end(), bySeq);

    std::unordered_set<BugFingerprint, BugFingerprintHash> seen;
    seen.reserve(bugs.size());
    std::size_t kept = 0;
    for (std::size_t i = 0; i < bugs.size(); ++i) {
        if (!seen.insert(fingerprintOf(bugs[i])).second)
            continue;
        if (kept != i)
            bugs[kept] = std::move(bugs[i]);
        ++kept;
    }
    bugs.resize(kept);
    if (telemetryOn)
        DrainMetrics::get().verdictNs.record(telemetry::nowNs() - start);
    return bugs;
}

} // namespace

/**
 * One client connection. The worker holding `lease` owns every
 * non-atomic field; the accept thread only builds the session.
 */
struct ServiceDaemon::ActiveSession
{
    /** Held by the one worker serving this session, for one step. */
    std::mutex lease;
    int fd = -1;
    /** Set once the Hello is accepted: ring and control plane live. */
    bool streaming = false;
    SessionId id = 0;
    HelloBody hello;
    EventRing ring;
    bool sawBye = false;
    /** Names the client interned, in id order: drained events may
     *  reference only these. The session's detector reads it too. */
    NameTable names;
    /** Built at handshake, released at close. */
    std::unique_ptr<PmDebugger> debugger;
    std::vector<BugReport> external;
    /** Drain buffer; sized once at handshake. Events are validated and
     *  evaluated here, never in the ring the client can still write. */
    std::vector<Event> scratch;
    /** Counts ingest as the session streams; published at close. */
    SessionSummary summary;
    std::chrono::steady_clock::time_point started{};
    /** Set when the session is fully finished (workers prune it). */
    std::atomic<bool> done{false};
};

ServiceDaemon::ServiceDaemon(ServiceConfig config)
    : config_(std::move(config))
{
    if (config_.pool.shards == 0)
        config_.pool.shards = 1;
}

ServiceDaemon::~ServiceDaemon()
{
    stop();
}

bool
ServiceDaemon::start(std::string *error)
{
    if (running_)
        return true;
    fixMmapThreshold();
    listenFd_ = listenUnix(config_.socketPath, error);
    if (listenFd_ < 0)
        return false;
    stopping_.store(false);
    for (std::size_t i = 0; i < config_.pool.shards; ++i)
        workers_.emplace_back([this] { workerLoop(); });
    acceptThread_ = std::thread([this] { acceptLoop(); });
    if (!config_.traceOutPath.empty())
        telemetry::setSpansEnabled(true);
    running_ = true;
    return true;
}

void
ServiceDaemon::stop()
{
    if (!running_)
        return;
    stopping_.store(true);
    if (acceptThread_.joinable())
        acceptThread_.join();
    for (std::thread &worker : workers_)
        worker.join();
    workers_.clear();
    // No worker is left to hold a lease: abort whatever is still live.
    std::vector<std::shared_ptr<ActiveSession>> leftover;
    {
        std::lock_guard<std::mutex> lock(sessionsMutex_);
        leftover.swap(sessions_);
    }
    for (const auto &session : leftover) {
        if (session->done.load())
            continue;
        if (!session->streaming) {
            ::close(session->fd);
            session->fd = -1;
            session->done.store(true);
        } else {
            closeSession(*session, /*aborted=*/true);
        }
    }
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
        std::remove(config_.socketPath.c_str());
    }
    if (!config_.traceOutPath.empty()) {
        if (telemetry::SpanBuffer::global().writeChromeTrace(
                config_.traceOutPath)) {
            inform("pmdbd", "wrote span trace to " +
                   config_.traceOutPath);
        } else {
            warn("pmdbd", "cannot write span trace to " +
                 config_.traceOutPath);
        }
    }
    running_ = false;
}

bool
ServiceDaemon::waitForSessions(std::size_t count, int timeout_ms)
{
    std::unique_lock<std::mutex> lock(summariesMutex_);
    const auto ready = [&] { return summaries_.size() >= count; };
    if (timeout_ms < 0) {
        sessionDone_.wait(lock, ready);
        return true;
    }
    return sessionDone_.wait_for(
        lock, std::chrono::milliseconds(timeout_ms), ready);
}

std::size_t
ServiceDaemon::completedSessions() const
{
    std::lock_guard<std::mutex> lock(summariesMutex_);
    return summaries_.size();
}

std::vector<SessionSummary>
ServiceDaemon::summaries() const
{
    std::lock_guard<std::mutex> lock(summariesMutex_);
    return summaries_;
}

IngestStats
ServiceDaemon::ingestStats() const
{
    IngestStats stats;
    stats.polls = polls_.load();
    stats.idlePolls = idlePolls_.load();
    return stats;
}

telemetry::MetricsSnapshot
ServiceDaemon::metricsSnapshot() const
{
    telemetry::MetricsSnapshot snap =
        telemetry::Registry::global().snapshot();
    const IngestStats ingest = ingestStats();
    snap.addCounter("pmdbd.polls", ingest.polls);
    snap.addCounter("pmdbd.idle_polls", ingest.idlePolls);
    const std::vector<SessionSummary> sessions = summaries();
    for (const SessionSummary &session : sessions) {
        const std::string label =
            "{session=\"" + std::to_string(session.id) + "\"}";
        snap.addCounter("pmdbd.session.events" + label,
                        session.eventsProcessed);
        snap.addCounter("pmdbd.session.batches" + label,
                        session.batchesDrained);
        snap.addGauge("pmdbd.session.millis" + label,
                      static_cast<std::int64_t>(session.seconds * 1000.0));
    }
    snap.addGauge("pmdbd.sessions_completed",
                  static_cast<std::int64_t>(sessions.size()));
    snap.addGauge(
        "pmdbd.crossproc.groups_completed",
        static_cast<std::int64_t>(crossproc_.results().size()));
    snap.sortByName();
    return snap;
}

std::string
ServiceDaemon::aggregatedJson() const
{
    const std::vector<SessionSummary> sessions = summaries();
    JsonWriter json;
    json.beginObject()
        .field("schema", 6)
        .field("workers", config_.pool.shards)
        .key("sessions")
        .beginArray();
    for (const SessionSummary &session : sessions) {
        const double rate =
            session.seconds > 0.0
                ? static_cast<double>(session.eventsProcessed) /
                      session.seconds
                : 0.0;
        json.beginObject()
            .field("id", session.id)
            .field("events", session.eventsProcessed)
            .field("batches_drained", session.batchesDrained)
            .field("seconds", session.seconds)
            .field("events_per_sec", rate)
            .field("aborted", session.aborted)
            .field("bugs", session.bugs)
            .endObject();
    }
    // The metrics snapshot, embedded whole: every counter is rendered
    // there and nowhere else.
    json.endArray()
        .key("crossproc")
        .raw(crossproc_.resultsJson())
        .key("metrics")
        .raw(metricsSnapshot().toJson());
    return json.endObject().str();
}

void
ServiceDaemon::acceptLoop()
{
    while (!stopping_.load()) {
        if (!readable(listenFd_, 200))
            continue;
        const int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0)
            continue;
        // Backstop against a client wedged mid-message: blocking
        // recvs on this socket give up after a while instead of
        // pinning a worker (and stop()'s join) forever.
        timeval recvTimeout{};
        recvTimeout.tv_sec = 5;
        ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &recvTimeout,
                     sizeof(recvTimeout));
        auto session = std::make_shared<ActiveSession>();
        session->fd = fd;
        std::lock_guard<std::mutex> lock(sessionsMutex_);
        sessions_.push_back(std::move(session));
    }
}

void
ServiceDaemon::workerLoop()
{
    std::vector<std::shared_ptr<ActiveSession>> snapshot;
    int idleRounds = 0;
    while (!stopping_.load()) {
        snapshot.clear();
        {
            std::lock_guard<std::mutex> lock(sessionsMutex_);
            snapshot = sessions_;
        }
        bool progressed = false;
        for (const auto &session : snapshot) {
            // Another worker serving this session skips it here; the
            // lease keeps its steps, and so its events, in order.
            std::unique_lock<std::mutex> lease(session->lease,
                                               std::try_to_lock);
            if (!lease.owns_lock() || session->done.load())
                continue;
            if (pollSession(*session))
                progressed = true;
        }
        {
            std::lock_guard<std::mutex> lock(sessionsMutex_);
            sessions_.erase(
                std::remove_if(sessions_.begin(), sessions_.end(),
                               [](const auto &session) {
                                   return session->done.load();
                               }),
                sessions_.end());
        }
        polls_.fetch_add(1, std::memory_order_relaxed);
        if (progressed) {
            idleRounds = 0;
            continue;
        }
        idlePolls_.fetch_add(1, std::memory_order_relaxed);
        idleBackoff(++idleRounds);
    }
}

bool
ServiceDaemon::finishHandshake(ActiveSession &session)
{
    // A client may connect and never speak; poll instead of blocking
    // so one silent socket cannot stall its worker.
    if (!readable(session.fd, 0))
        return false;
    MsgType type;
    std::vector<std::uint8_t> payload;
    if (!recvMessage(session.fd, &type, &payload) ||
        type != MsgType::Hello ||
        !HelloBody::deserialize(payload, &session.hello)) {
        ::close(session.fd);
        session.fd = -1;
        session.done.store(true);
        return true;
    }
    std::string error;
    if (!session.ring.open(session.hello.ringPath, &error)) {
        WireWriter out;
        out.putString(error);
        sendMessage(session.fd, MsgType::Error, out.bytes());
        ::close(session.fd);
        session.fd = -1;
        session.done.store(true);
        return true;
    }
    session.id = nextSession_.fetch_add(1);
    session.summary.id = session.id;

    DebuggerConfig config;
    config.model = session.hello.model;
    if (!session.hello.orderSpecText.empty())
        config.orderSpec =
            OrderSpec::fromText(session.hello.orderSpecText);
    session.debugger = std::make_unique<PmDebugger>(config);
    session.debugger->attached(session.names);

    // Shared-pool sessions additionally join their pool's
    // cross-session detection group; their events still flow through
    // per-session detection unchanged.
    if (!session.hello.sharedPoolPath.empty()) {
        crossproc_.joinGroup(session.id, session.hello.sharedPoolPath,
                             session.hello.sharedWriterId);
    }

    WireWriter out;
    out.put(static_cast<std::uint32_t>(session.id));
    sendMessage(session.fd, MsgType::Welcome, out.bytes());

    session.scratch.resize(eventsPerDrain);
    session.started = std::chrono::steady_clock::now();
    session.streaming = true;
    return true;
}

void
ServiceDaemon::evaluate(ActiveSession &session, const Event *events,
                        std::size_t count)
{
    telemetry::SpanTimer span("session.rule_eval", "pmdbd", session.id,
                              "events=" + std::to_string(count));
    const bool telemetryOn = telemetry::enabled();
    const std::uint64_t start = telemetryOn ? telemetry::nowNs() : 0;
    session.debugger->handleBatch(events, count);
    if (telemetryOn)
        DrainMetrics::get().evalNs.record(telemetry::nowNs() - start);
}

bool
ServiceDaemon::pollSession(ActiveSession &session)
{
    if (!session.streaming)
        return finishHandshake(session);

    bool progressed = false;
    // Only this session ends; the daemon and its other sessions go on.
    const auto abortSession = [&](const std::string &why) {
        warn("pmdbd", why + "; aborting session " +
                          std::to_string(session.id));
        closeSession(session, /*aborted=*/true);
        return true;
    };

    // 1. Control plane: names, client-side bug reports, Bye.
    while (!session.sawBye && readable(session.fd, 0)) {
        MsgType type;
        std::vector<std::uint8_t> payload;
        if (!recvMessage(session.fd, &type, &payload)) {
            closeSession(session, /*aborted=*/true);
            return true;
        }
        progressed = true;
        switch (type) {
          case MsgType::InternName: {
            WireReader in(payload);
            const auto id = in.get<std::uint32_t>();
            const std::string name = in.getString();
            // intern() returns an older id for a repeated name.
            if (!in.ok() || id != session.names.size() ||
                session.names.intern(name) != id)
                return abortSession("name " + std::to_string(id) +
                                    " out of order");
            WireWriter ack;
            ack.put(id);
            sendMessage(session.fd, MsgType::NameAck, ack.bytes());
            break;
          }
          case MsgType::ReportBug: {
            WireReader in(payload);
            BugReport bug = getBugReport(in);
            if (in.ok())
                session.external.push_back(std::move(bug));
            else
                warn("pmdbd", "malformed ReportBug dropped in session " +
                                  std::to_string(session.id));
            break;
          }
          case MsgType::Bye:
            // Bye carries nothing: a payload means the peer speaks
            // some other protocol.
            if (!payload.empty())
                return abortSession("malformed Bye");
            session.sawBye = true;
            break;
          default:
            break;
        }
    }

    // 2. Ring drain, in whole published frames, straight into the
    // detector.
    const std::size_t popped = session.ring.popBatch(
        session.scratch.data(), session.scratch.size());
    if (session.ring.corrupt())
        return abortSession("corrupt ring cursors");
    if (const char *field = invalidEvent(
            session.scratch.data(), popped, session.names.size()))
        return abortSession(std::string("ring event with an invalid ") +
                            field);
    if (popped) {
        progressed = true;
        ++session.summary.batchesDrained;
        session.summary.eventsProcessed += popped;
        if (telemetry::enabled()) {
            DrainMetrics &metrics = DrainMetrics::get();
            const std::uint64_t now = telemetry::nowNs();
            metrics.framesDrained.add(1);
            metrics.eventsDrained.add(popped);
            metrics.drainBatchEvents.record(popped);
            // Publish stamp of the newest frame in the drained
            // span: a lower bound on how long these events sat in
            // the ring (same-host CLOCK_MONOTONIC on both sides).
            const std::uint64_t published =
                session.ring.lastPublishNs();
            if (published && published <= now) {
                const std::uint64_t residency = now - published;
                metrics.ringResidencyNs.record(residency);
                if (telemetry::spansEnabled()) {
                    telemetry::Span span;
                    span.name = "ring.residency";
                    span.category = "pmdbd";
                    span.startNs = published;
                    span.durNs = residency;
                    span.track = session.id;
                    span.arg =
                        "events=" + std::to_string(popped);
                    telemetry::SpanBuffer::global().record(
                        std::move(span));
                }
            }
        }
        if (!session.hello.sharedPoolPath.empty()) {
            crossproc_.feed(session.id, session.scratch.data(),
                            popped);
        }
        evaluate(session, session.scratch.data(), popped);
    }

    // 3. End of stream: Bye seen and the ring drained.
    if (session.sawBye && session.ring.size() == 0) {
        closeSession(session, /*aborted=*/false);
        return true;
    }
    return progressed;
}

void
ServiceDaemon::closeSession(ActiveSession &session, bool aborted)
{
    session.summary.aborted = aborted;
    // Every event of this session has been fed by now (feeds and this
    // close run under its lease); when this is the group's last
    // member, the cross-session verdict is computed here.
    if (!session.hello.sharedPoolPath.empty())
        crossproc_.sessionComplete(session.id);

    session.debugger->finalize();
    const DebuggerStats stats = session.debugger->stats();
    const std::vector<BugReport> bugs =
        mergeVerdict(session.id, session.debugger->bugs().takeBugs(),
                     std::move(session.external));
    session.debugger.reset();
    session.summary.bugs = bugs.size();
    session.summary.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      session.started)
            .count();

    if (!aborted) {
        // A child of session.verdict on the same track: the trace
        // shows merge and shipping apart.
        telemetry::SpanTimer span("session.report", "pmdbd", session.id,
                                  "parent=session.verdict");
        const std::vector<std::uint8_t> payload = ReportBody::encode(
            bugs, session.summary.eventsProcessed, stats);
        if (!sendMessage(session.fd, MsgType::Report, payload)) {
            warn("pmdbd", "report of " + std::to_string(payload.size()) +
                              " bytes not delivered to session " +
                              std::to_string(session.id) +
                              (payload.size() > maxMessageBytes
                                   ? " (over the frame cap)"
                                   : ""));
        }
    }
    ::close(session.fd);
    session.fd = -1;
    {
        std::lock_guard<std::mutex> lock(summariesMutex_);
        summaries_.push_back(std::move(session.summary));
    }
    sessionDone_.notify_all();
    session.done.store(true);
}

} // namespace pmdb
