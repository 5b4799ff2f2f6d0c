/**
 * @file
 * The detection-service daemon (pmdbd): accepts trace streams from
 * multiple concurrent clients over per-client shared-memory event
 * rings plus a Unix-domain-socket control plane, feeds them through
 * a work-stealing pool of detector workers, and replies to each
 * client with its merged bug report.
 *
 * Ingest path (the PR-6 rework): instead of one reader thread per
 * session, a fixed pool of **poller** threads multiplexes every
 * client ring. Each poller sweeps the sessions assigned to it —
 * pending control messages, then a whole-frame ring drain, then
 * routing into the shard pool's bounded per-(session,shard) queues —
 * with adaptive spin→sleep backoff when a full sweep makes no
 * progress. Thread count is therefore fixed by configuration
 * (pollers + shard workers), not by client count, so concurrent
 * sessions compound instead of contending.
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
#include "service/shard.hh"
#include "telemetry/metrics.hh"

namespace pmdb
{

/** Daemon configuration. */
struct ServiceConfig
{
    /** Control-plane socket path. */
    std::string socketPath;
    /** Detector shard-pool shape. */
    ShardPoolConfig pool;
    /** Poller threads multiplexing the client rings. */
    std::size_t pollers = 1;
    /**
     * Pin pollers and shard workers round-robin to distinct cores
     * (pollers first, then workers). Opt-in: `pmdbd --pin-cores`.
     */
    bool pinCores = false;
    /**
     * When non-empty, serve live metric snapshots on this Unix socket
     * (`pmdbd --metrics-sock`): a connection sends one request line —
     * "json" or "prom" — and receives the snapshot in that format.
     * pmdb_stat is the bundled client.
     */
    std::string metricsSocketPath;
    /** Enable span tracing and write Chrome trace JSON here at stop. */
    std::string traceOutPath;
};

/** Per-session attribution; the verdict lives only in the Report. */
struct SessionSummary
{
    SessionId id = 0;
    /** Unique bug sites in the merged verdict. */
    std::uint64_t bugs = 0;
    std::uint64_t eventsProcessed = 0;
    std::uint64_t eventsDropped = 0;
    std::uint64_t spillReplayed = 0;
    /** Ring frames drained by the poller. */
    std::uint64_t batchesDrained = 0;
    /** Polls that found a full (session,shard) queue (backpressure). */
    std::uint64_t queueFullStalls = 0;
    /** Welcome-to-report wall time. */
    double seconds = 0.0;
    /** Client vanished before Bye; no report was sent. */
    bool aborted = false;
};

/** Daemon-level ingest counters (observability). */
struct IngestStats
{
    /** Poller sweeps over the session set. */
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

    /** Bind the socket, start the shard pool and the poller pool. */
    bool start(std::string *error = nullptr);

    /** Stop accepting, drain sessions, join pollers and workers. */
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

    /** Daemon-level poll counters. */
    IngestStats ingestStats() const;

    /**
     * Aggregated JSON across all completed sessions: the pool shape,
     * per-session attribution and ingest counters with the bug-site
     * count, the cross-session group verdicts, and metricsSnapshot().
     */
    std::string aggregatedJson() const;

    /**
     * The one render of every daemon counter: the global telemetry
     * registry plus this instance's poll counters ("pmdbd.polls"),
     * ShardPool::addMetrics and per-session ingest
     * ("pmdbd.session.events{session=\"1\"}", completed and live).
     * Instance-owned, since daemons may share a process whose registry
     * is reset under them. The endpoint and aggregatedJson() render it.
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
    struct Poller;

    void acceptLoop();
    void metricsLoop();
    void pollerLoop(Poller &poller);
    /** One sweep step for one session; true when progress was made. */
    bool pollSession(const std::shared_ptr<ActiveSession> &session);
    bool finishHandshake(ActiveSession &session);
    void beginClose(const std::shared_ptr<ActiveSession> &session,
                    bool aborted);
    /** Encode @p verdict and send it to the client as the Report. */
    void sendReport(const ActiveSession &session,
                    const SessionVerdict &verdict);

    ServiceConfig config_;
    ShardPool pool_;
    /** Cross-session rule engine for shared-pool session groups. */
    CrossprocEngine crossproc_;
    int listenFd_ = -1;
    int metricsFd_ = -1;
    std::thread acceptThread_;
    std::thread metricsThread_;
    std::vector<std::unique_ptr<Poller>> pollers_;
    std::atomic<std::size_t> nextPoller_{0};

    std::atomic<bool> stopping_{false};
    std::atomic<SessionId> nextSession_{1};

    /** Sessions whose async close has not completed yet. */
    std::atomic<std::size_t> outstandingCloses_{0};
    std::mutex closesMutex_;
    std::condition_variable closesDone_;

    mutable std::mutex summariesMutex_;
    std::condition_variable sessionDone_;
    std::vector<SessionSummary> summaries_;
    bool running_ = false;
};

} // namespace pmdb

#endif // PMDB_SERVICE_DAEMON_HH
