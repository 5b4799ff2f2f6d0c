#include "service/daemon.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "common/json.hh"
#include "common/logging.hh"
#include "service/cpu_pin.hh"
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

/** Poller drain-path metrics, resolved once; touched per frame. */
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

    static DrainMetrics &
    get()
    {
        static DrainMetrics instance;
        return instance;
    }
};

/**
 * Normalize the daemon config and derive the pool's pinning layout:
 * pollers occupy cores [0, pollers), shard workers follow.
 */
ShardPoolConfig
poolConfigFor(ServiceConfig &config)
{
    if (config.pollers == 0)
        config.pollers = 1;
    ShardPoolConfig pool = config.pool;
    pool.pinCores = config.pinCores;
    pool.pinBase = config.pollers;
    return pool;
}

/**
 * Adaptive idle backoff for a poller: yield while recently busy so a
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

} // namespace

/** One client connection, owned by its poller. */
struct ServiceDaemon::ActiveSession
{
    enum class Phase
    {
        Handshake, ///< Accepted; waiting for the Hello.
        Streaming, ///< Ring + control plane live.
        Closing    ///< Async close issued; callback pending.
    };

    int fd = -1;
    /** Written by the owning poller; the metrics scrape reads it,
     *  then id and started, which are set before Streaming. */
    std::atomic<Phase> phase{Phase::Handshake};
    SessionId id = 0;
    HelloBody hello;
    EventRing ring;
    ByeBody bye;
    bool sawBye = false;
    /** Names the client interned, in id order: drained events may
     *  reference only these. The session's detectors read it too. */
    NameTable names;
    std::vector<BugReport> external;
    /** Routed events awaiting queue space (backpressure). */
    PendingRoute pending;
    /** Drain buffer; sized once at handshake. */
    std::vector<Event> scratch;
    /** Live ingest counters the metrics scrape reads; folded into
     *  summary at close. */
    std::atomic<std::uint64_t> eventsProcessed{0};
    std::atomic<std::uint64_t> batchesDrained{0};
    SessionSummary summary;
    std::chrono::steady_clock::time_point started{};
    /** Set when the session is fully finished (poller may prune). */
    std::atomic<bool> done{false};
};

/** A poller thread plus the sessions assigned to it. */
struct ServiceDaemon::Poller
{
    std::size_t index = 0;
    std::thread thread;
    /** Guards sessions (accept thread appends, poller prunes). */
    std::mutex mutex;
    std::vector<std::shared_ptr<ActiveSession>> sessions;
    std::atomic<std::uint64_t> polls{0};
    std::atomic<std::uint64_t> idlePolls{0};
};

ServiceDaemon::ServiceDaemon(ServiceConfig config)
    : config_(std::move(config)), pool_(poolConfigFor(config_)),
      crossproc_(config_.pool.shards, config_.pool.stripeBytes)
{
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
    listenFd_ = listenUnix(config_.socketPath, error);
    if (listenFd_ < 0)
        return false;
    stopping_.store(false);
    pool_.start();
    pollers_.clear();
    for (std::size_t i = 0; i < config_.pollers; ++i) {
        auto poller = std::make_unique<Poller>();
        poller->index = i;
        poller->thread =
            std::thread([this, p = poller.get()] { pollerLoop(*p); });
        if (config_.pinCores)
            pinThreadToCore(poller->thread, i);
        pollers_.push_back(std::move(poller));
    }
    acceptThread_ = std::thread([this] { acceptLoop(); });
    if (!config_.metricsSocketPath.empty()) {
        metricsFd_ = listenUnix(config_.metricsSocketPath, error);
        if (metricsFd_ < 0) {
            stop();
            return false;
        }
        metricsThread_ = std::thread([this] { metricsLoop(); });
    }
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
    for (auto &poller : pollers_) {
        if (poller->thread.joinable())
            poller->thread.join();
    }
    // Pollers issued an async close for every surviving session on
    // the way out; let the shard workers finish those before the pool
    // goes down. (Poller structs stay alive so counters remain
    // readable after stop.)
    {
        std::unique_lock<std::mutex> lock(closesMutex_);
        closesDone_.wait(
            lock, [this] { return outstandingCloses_.load() == 0; });
    }
    pool_.stop();
    if (metricsThread_.joinable())
        metricsThread_.join();
    if (metricsFd_ >= 0) {
        ::close(metricsFd_);
        metricsFd_ = -1;
        std::remove(config_.metricsSocketPath.c_str());
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
    for (const auto &poller : pollers_) {
        stats.polls += poller->polls.load();
        stats.idlePolls += poller->idlePolls.load();
    }
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
    pool_.addMetrics(snap);
    // Per-session ingest: completed sessions from their summaries,
    // live ones from the atomics their poller keeps current.
    const auto addSession = [&](SessionId id, std::uint64_t events,
                                std::uint64_t batches, double seconds,
                                bool live) {
        const std::string label =
            "{session=\"" + std::to_string(id) + "\"}";
        snap.addCounter("pmdbd.session.events" + label, events);
        snap.addCounter("pmdbd.session.batches" + label, batches);
        snap.addGauge("pmdbd.session.millis" + label,
                      static_cast<std::int64_t>(seconds * 1000.0));
        snap.addGauge("pmdbd.session.live" + label, live ? 1 : 0);
    };
    std::size_t completed = 0;
    {
        std::lock_guard<std::mutex> lock(summariesMutex_);
        for (const SessionSummary &session : summaries_) {
            addSession(session.id, session.eventsProcessed,
                       session.batchesDrained, session.seconds, false);
        }
        completed = summaries_.size();
    }
    const auto now = std::chrono::steady_clock::now();
    for (const auto &poller : pollers_) {
        std::lock_guard<std::mutex> lock(poller->mutex);
        for (const auto &session : poller->sessions) {
            if (session->phase != ActiveSession::Phase::Streaming)
                continue;
            addSession(session->id, session->eventsProcessed,
                       session->batchesDrained,
                       std::chrono::duration<double>(
                           now - session->started)
                           .count(),
                       true);
        }
    }
    snap.addGauge("pmdbd.sessions_completed",
                  static_cast<std::int64_t>(completed));
    snap.addGauge(
        "pmdbd.crossproc.groups_completed",
        static_cast<std::int64_t>(crossproc_.results().size()));
    snap.sortByName();
    return snap;
}

void
ServiceDaemon::metricsLoop()
{
    while (!stopping_.load()) {
        if (!readable(metricsFd_, 200))
            continue;
        const int fd = ::accept(metricsFd_, nullptr, nullptr);
        if (fd < 0)
            continue;
        // One request line per connection: "prom" for Prometheus
        // text, anything else (including EOF) serves JSON.
        char buf[16] = {};
        ssize_t got = 0;
        if (readable(fd, 1000))
            got = ::read(fd, buf, sizeof(buf) - 1);
        const bool prom =
            got >= 4 && std::string(buf, 4) == "prom";
        const telemetry::MetricsSnapshot snap = metricsSnapshot();
        const std::string reply =
            prom ? snap.toPrometheus() : snap.toJson() + "\n";
        std::size_t sent = 0;
        while (sent < reply.size()) {
            const ssize_t n = ::write(fd, reply.data() + sent,
                                      reply.size() - sent);
            if (n <= 0)
                break;
            sent += static_cast<std::size_t>(n);
        }
        ::close(fd);
    }
}

std::string
ServiceDaemon::aggregatedJson() const
{
    const std::vector<SessionSummary> sessions = summaries();
    JsonWriter json;
    json.beginObject()
        .field("schema", 3)
        .field("shards", pool_.shardCount())
        .field("stripe_bytes", pool_.stripeBytes())
        .field("pollers", config_.pollers)
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
            .field("dropped", session.eventsDropped)
            .field("spill_replayed", session.spillReplayed)
            .field("batches_drained", session.batchesDrained)
            .field("queue_full_stalls", session.queueFullStalls)
            .field("seconds", session.seconds)
            .field("events_per_sec", rate)
            .field("aborted", session.aborted)
            .field("bugs", session.bugs)
            .endObject();
    }
    // The same snapshot the metrics endpoint serves, embedded whole:
    // every counter is rendered there and nowhere else.
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
        // pinning a poller (and stop()'s join) forever.
        timeval recvTimeout{};
        recvTimeout.tv_sec = 5;
        ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &recvTimeout,
                     sizeof(recvTimeout));
        auto session = std::make_shared<ActiveSession>();
        session->fd = fd;
        Poller &poller =
            *pollers_[nextPoller_.fetch_add(1) % pollers_.size()];
        std::lock_guard<std::mutex> lock(poller.mutex);
        poller.sessions.push_back(std::move(session));
    }
}

void
ServiceDaemon::pollerLoop(Poller &poller)
{
    std::vector<std::shared_ptr<ActiveSession>> snapshot;
    int idleRounds = 0;
    while (!stopping_.load()) {
        snapshot.clear();
        {
            std::lock_guard<std::mutex> lock(poller.mutex);
            snapshot = poller.sessions;
        }
        bool progressed = false;
        for (const auto &session : snapshot) {
            if (session->done.load() ||
                session->phase == ActiveSession::Phase::Closing)
                continue;
            if (pollSession(session))
                progressed = true;
        }
        {
            std::lock_guard<std::mutex> lock(poller.mutex);
            auto &sessions = poller.sessions;
            sessions.erase(
                std::remove_if(sessions.begin(), sessions.end(),
                               [](const auto &session) {
                                   return session->done.load();
                               }),
                sessions.end());
        }
        poller.polls.fetch_add(1, std::memory_order_relaxed);
        if (progressed) {
            idleRounds = 0;
            continue;
        }
        poller.idlePolls.fetch_add(1, std::memory_order_relaxed);
        idleBackoff(++idleRounds);
    }
    // Stopping: abort whatever is still live. Sessions already in
    // Closing settle through their pending callback.
    std::vector<std::shared_ptr<ActiveSession>> leftover;
    {
        std::lock_guard<std::mutex> lock(poller.mutex);
        leftover.swap(poller.sessions);
    }
    for (const auto &session : leftover) {
        if (session->done.load())
            continue;
        switch (session->phase) {
          case ActiveSession::Phase::Handshake:
            ::close(session->fd);
            session->fd = -1;
            session->done.store(true);
            break;
          case ActiveSession::Phase::Streaming:
            beginClose(session, /*aborted=*/true);
            break;
          case ActiveSession::Phase::Closing:
            break;
        }
    }
}

bool
ServiceDaemon::finishHandshake(ActiveSession &session)
{
    // A client may connect and never speak; poll instead of blocking
    // so one silent socket cannot stall the whole poller.
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
    config.arrayCapacity = config_.pool.arrayCapacity;
    config.mergeThreshold = config_.pool.mergeThreshold;
    if (!session.hello.orderSpecText.empty())
        config.orderSpec =
            OrderSpec::fromText(session.hello.orderSpecText);
    // Global-order rules cannot be checked against a partitioned
    // stream; pin such sessions to one shard (a degenerate barrier).
    const bool pinned =
        session.hello.model == PersistencyModel::Strand ||
        !session.hello.orderSpecText.empty();
    pool_.openSession(session.id, config, pinned, &session.names);

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
    session.phase = ActiveSession::Phase::Streaming;
    return true;
}

bool
ServiceDaemon::pollSession(const std::shared_ptr<ActiveSession> &sp)
{
    ActiveSession &session = *sp;
    if (session.phase == ActiveSession::Phase::Handshake)
        return finishHandshake(session);

    bool progressed = false;
    // Only this session ends; the daemon and its other sessions go on.
    const auto abortSession = [&](const std::string &why) {
        warn("pmdbd/poller", why + "; aborting session " +
                                 std::to_string(session.id));
        beginClose(sp, /*aborted=*/true);
        return true;
    };

    // 1. Control plane: names, client-side bug reports, Bye.
    while (!session.sawBye && readable(session.fd, 0)) {
        MsgType type;
        std::vector<std::uint8_t> payload;
        if (!recvMessage(session.fd, &type, &payload)) {
            beginClose(sp, /*aborted=*/true);
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
                warn("pmdbd/poller", "malformed ReportBug dropped in "
                                     "session " +
                                         std::to_string(session.id));
            break;
          }
          case MsgType::Bye:
            if (!ByeBody::deserialize(payload, &session.bye)) {
                // A truncated Bye would silently zero the spill
                // accounting and drop the spilled tail from the
                // report; treat the session as aborted instead.
                return abortSession("malformed Bye");
            }
            session.sawBye = true;
            break;
          default:
            break;
        }
    }

    // 2. Backlog first: events refused by a full queue must reach the
    // pool before anything newer, or per-shard order breaks.
    if (!session.pending.empty()) {
        if (pool_.tryFlushPending(session.id, &session.pending))
            progressed = true;
        else
            ++session.summary.queueFullStalls;
    }

    // 3. Ring drain, in whole published frames.
    if (session.pending.empty()) {
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
            ++session.batchesDrained;
            session.eventsProcessed += popped;
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
            if (!pool_.tryRouteEvents(session.id,
                                      session.scratch.data(), popped,
                                      &session.pending))
                ++session.summary.queueFullStalls;
        }
    }

    // 4. End of stream: Bye seen and everything routed.
    if (session.sawBye && session.pending.empty() &&
        session.ring.size() == 0) {
        // Under the Spill policy the tail of the stream sits in the
        // spill trace file, in order; replay it after the ring.
        if (session.bye.spillEvents &&
            !session.hello.spillPath.empty()) {
            LoadedTrace spill;
            bool truncated = false;
            std::string error;
            if (readTraceFile(session.hello.spillPath, &spill,
                              &truncated, &error)) {
                // The file checks its events against its own names;
                // the shards know only the ones the client interned.
                if (const char *field = invalidEvent(
                        spill.events.data(), spill.events.size(),
                        session.names.size()))
                    return abortSession(
                        std::string("spill event with an invalid ") + field);
                if (truncated) {
                    warn("pmdbd/poller", "spill trace " +
                         session.hello.spillPath +
                         " has a truncated tail");
                }
                if (!session.hello.sharedPoolPath.empty()) {
                    crossproc_.feed(session.id, spill.events.data(),
                                    spill.events.size());
                }
                pool_.routeEvents(session.id, spill.events.data(),
                                  spill.events.size());
                session.summary.spillReplayed = spill.events.size();
                session.eventsProcessed += spill.events.size();
            } else {
                warn("pmdbd/poller", "cannot replay spill trace: " + error);
            }
        }
        beginClose(sp, /*aborted=*/false);
        return true;
    }
    return progressed;
}

void
ServiceDaemon::sendReport(const ActiveSession &session,
                          const SessionVerdict &verdict)
{
    // A child of session.verdict on the same track: the trace shows
    // merge and shipping apart.
    telemetry::SpanTimer span("session.report", "pmdbd", session.id,
                              "parent=session.verdict");
    const std::vector<std::uint8_t> payload = ReportBody::encode(
        verdict.bugs, session.summary.eventsProcessed,
        session.summary.eventsDropped, verdict.stats);
    if (sendMessage(session.fd, MsgType::Report, payload))
        return;
    warn("pmdbd", "report of " + std::to_string(payload.size()) +
                      " bytes not delivered to session " +
                      std::to_string(session.id) +
                      (payload.size() > maxMessageBytes
                           ? " (over the frame cap)"
                           : ""));
}

void
ServiceDaemon::beginClose(const std::shared_ptr<ActiveSession> &sp,
                          bool aborted)
{
    ActiveSession &session = *sp;
    session.phase = ActiveSession::Phase::Closing;
    session.summary.eventsProcessed = session.eventsProcessed;
    session.summary.batchesDrained = session.batchesDrained;
    session.summary.eventsDropped = session.ring.droppedCount();
    session.summary.aborted = aborted;
    // Every event of this session has been fed by now (feeds and this
    // close run on the same poller); when this is the group's last
    // member, the cross-session verdict is computed here.
    if (!session.hello.sharedPoolPath.empty())
        crossproc_.sessionComplete(session.id);
    outstandingCloses_.fetch_add(1);
    // The callback runs on the shard worker that finalizes the last
    // (session, shard) queue — off the poller, so a slow report send
    // never stalls ingestion for other sessions.
    pool_.closeSessionAsync(
        session.id, std::move(session.external),
        [this, sp](SessionVerdict &&verdict) {
            ActiveSession &session = *sp;
            session.summary.bugs = verdict.bugs.size();
            session.summary.seconds =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - session.started)
                    .count();
            if (!session.summary.aborted)
                sendReport(session, verdict);
            ::close(session.fd);
            session.fd = -1;
            {
                std::lock_guard<std::mutex> lock(summariesMutex_);
                summaries_.push_back(std::move(session.summary));
            }
            sessionDone_.notify_all();
            session.done.store(true);
            {
                std::lock_guard<std::mutex> lock(closesMutex_);
                outstandingCloses_.fetch_sub(1);
            }
            closesDone_.notify_all();
        });
}

} // namespace pmdb
