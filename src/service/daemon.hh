/**
 * @file
 * The detection-service daemon (pmdbd): accepts trace streams from
 * multiple concurrent clients over per-client shared-memory event
 * rings plus a Unix-domain-socket control plane, runs each session's
 * stream through its own detector on a pool of worker threads, and
 * replies to each client with its bug report.
 *
 * Worker pool: a fixed set of workers sweeps one shared session list,
 * with adaptive spin→sleep backoff when a sweep makes no progress. A
 * worker serves a session only while holding its **lease** (a
 * try-lock held for one poll step), so one thread at a time drives a
 * session's detector. A poll step reads the control plane, drains
 * whole ring frames into the session's scratch buffer, validates that
 * copy and evaluates it on the detector in place; on Bye, once the
 * ring is empty, the lease holder finalizes and sends the Report. As
 * the paper's PMDebugger keeps one bookkeeping space per debugged
 * program, one session's events are never split, so verdicts are
 * identical at any worker count; parallelism is between sessions. The
 * client's ring, with its credits, is the only queue and the only
 * backpressure. Thread count is fixed by configuration, not by client
 * count.
 *
 * Embeddable: tests and the bench run a ServiceDaemon on a thread
 * inside the same process; the pmdbd tool wraps one in a main().
 */

#ifndef PMDB_SERVICE_DAEMON_HH
#define PMDB_SERVICE_DAEMON_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "crossproc/engine.hh"
#include "service/protocol.hh"
#include "telemetry/metrics.hh"

namespace pmdb
{

/** Worker-pool shape. Each session's detector takes DebuggerConfig's
 *  defaults, as every in-process caller's does. */
struct WorkerPoolConfig
{
    /** Worker threads serving the sessions. (Named `shards` until the
     *  benchmark harness that sets it is renamed.) */
    std::size_t shards = 1;
};

/** Daemon configuration. */
struct ServiceConfig
{
    /** Control-plane socket path. */
    std::string socketPath;
    /** Worker pool; `pool.shards` is the worker count. */
    WorkerPoolConfig pool;
    /** Inert: only the benchmark harness reads it (ROADMAP item 1
     *  deletes it). */
    std::size_t pollers = 1;
    /** Enable span tracing and write Chrome trace JSON here at stop. */
    std::string traceOutPath;
};

/** Per-session attribution; the verdict lives only in the Report. */
struct SessionSummary
{
    SessionId id = 0;
    /** Unique bug sites in the verdict. */
    std::uint64_t bugs = 0;
    std::uint64_t eventsProcessed = 0;
    /** Ring drains that returned events. */
    std::uint64_t batchesDrained = 0;
    /** Inert, always 0: only the benchmark harness reads it (ROADMAP
     *  item 1 deletes it). */
    std::uint64_t queueFullStalls = 0;
    /** Welcome-to-report wall time. */
    double seconds = 0.0;
    /** Client vanished before Bye; no report was sent. */
    bool aborted = false;
};

/** Daemon-level ingest counters (observability). */
struct IngestStats
{
    /** Worker sweeps over the session list. */
    std::uint64_t polls = 0;
    /** Sweeps that made no progress (idle). */
    std::uint64_t idlePolls = 0;
};

/** The out-of-process detection daemon. */
class ServiceDaemon
{
  public:
    explicit ServiceDaemon(ServiceConfig config);
    ~ServiceDaemon();

    ServiceDaemon(const ServiceDaemon &) = delete;
    ServiceDaemon &operator=(const ServiceDaemon &) = delete;

    /** Bind the socket and start the worker pool and the accept
     *  thread. */
    bool start(std::string *error = nullptr);

    /** Stop accepting, join the workers, abort live sessions. */
    void stop();

    /**
     * Block until @p count sessions have completed (served or
     * aborted). Returns false if @p timeout_ms (>= 0) elapses first.
     */
    bool waitForSessions(std::size_t count, int timeout_ms = -1);

    /** Completed sessions so far. */
    std::size_t completedSessions() const;

    /** Snapshot of per-session summaries (completed sessions only). */
    std::vector<SessionSummary> summaries() const;

    /** Daemon-level sweep counters. */
    IngestStats ingestStats() const;

    /**
     * Aggregated JSON across all completed sessions: the pool shape,
     * per-session attribution and ingest counters with the bug-site
     * count, the cross-session group verdicts, and metricsSnapshot().
     */
    std::string aggregatedJson() const;

    /**
     * The one render of every daemon counter: the global telemetry
     * registry plus this instance's sweep counters ("pmdbd.polls") and
     * the ingest of each completed session
     * ("pmdbd.session.events{session=\"1\"}"). Instance-owned, since
     * daemons may share a process whose registry is reset under them.
     * aggregatedJson() embeds it whole.
     */
    telemetry::MetricsSnapshot metricsSnapshot() const;

    /**
     * Verdicts of completed shared-pool groups (sessions that
     * announced the same sharedPoolPath in their Hello). Empty until
     * every member of a group has finished.
     */
    std::vector<CrossGroupResult> crossprocResults() const
    {
        return crossproc_.results();
    }

    const std::string &socketPath() const { return config_.socketPath; }

  private:
    struct ActiveSession;

    void acceptLoop();
    void workerLoop();
    /** One poll step for one leased session; true on progress. */
    bool pollSession(ActiveSession &session);
    bool finishHandshake(ActiveSession &session);
    /** Run @p count events through the session's detector. */
    void evaluate(ActiveSession &session, const Event *events,
                  std::size_t count);
    /** Finalize the detector, build the verdict, send the Report
     *  unless @p aborted, and retire the session. */
    void closeSession(ActiveSession &session, bool aborted);

    ServiceConfig config_;
    /** Cross-session rule engine for shared-pool session groups. */
    CrossprocEngine crossproc_;
    int listenFd_ = -1;
    std::thread acceptThread_;
    std::vector<std::thread> workers_;

    /** Guards sessions_ (the accept thread appends, workers prune). */
    mutable std::mutex sessionsMutex_;
    std::vector<std::shared_ptr<ActiveSession>> sessions_;
    std::atomic<std::uint64_t> polls_{0};
    std::atomic<std::uint64_t> idlePolls_{0};

    std::atomic<bool> stopping_{false};
    std::atomic<SessionId> nextSession_{1};

    mutable std::mutex summariesMutex_;
    std::condition_variable sessionDone_;
    std::vector<SessionSummary> summaries_;
    bool running_ = false;
};

} // namespace pmdb

#endif // PMDB_SERVICE_DAEMON_HH
