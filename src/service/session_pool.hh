/**
 * @file
 * One detector per session, served by a pool of worker threads.
 *
 * Each open session owns a **task queue** — a FIFO of Open/Events/
 * Close tasks — and the one PmDebugger those tasks drive, as the
 * paper's PMDebugger keeps one bookkeeping space per debugged program.
 * A fixed pool of workers serves every session: a queue that holds
 * tasks and no lease joins one FIFO of ready queues, and the next free
 * worker leases it and drains its whole backlog. Parallelism is between
 * sessions; one session's events are never split.
 *
 * Invariants:
 *  - **per-session event order**: tasks enter a queue in stream order
 *    (one poller routes a session), queues are FIFO, and the lease
 *    makes processing mutually exclusive — so the debugger observes
 *    exactly the stream an in-process detector would, whichever
 *    worker runs it. Verdicts are therefore identical for any worker
 *    count;
 *  - **bounded queues**: Events tasks respect a per-queue cap;
 *    tryRouteEvents refuses what does not fit and the caller retries
 *    later (backpressure propagates to the client ring). Control tasks
 *    (Open/Close) bypass the cap — rejecting them could deadlock a
 *    session;
 *  - **report order**: the close appends the client-reported external
 *    bugs to the debugger's, orders them by seq (external bugs last at
 *    equal seq) and keeps the first detection of each fingerprint.
 */

#ifndef PMDB_SERVICE_SESSION_POOL_HH
#define PMDB_SERVICE_SESSION_POOL_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/bug.hh"
#include "core/config.hh"
#include "core/debugger.hh"
#include "core/stats.hh"
#include "service/protocol.hh"
#include "trace/event.hh"

namespace pmdb
{

/** Session-pool shape. */
struct SessionPoolConfig
{
    /** Worker threads serving the session queues. (Named `shards`
     *  until the benchmark harness that sets it is renamed.) */
    std::size_t shards = 1;
    /** Per-session debugger array capacity (Section 4.1). */
    std::size_t arrayCapacity = 100000;
    /** Per-session AVL lazy-merge threshold. */
    std::size_t mergeThreshold = 500;
    /** Max queued Events tasks per session queue. */
    std::size_t queueCapacity = 64;
};

/** Per-session result returned by closeSession. */
struct SessionVerdict
{
    /** Deduplicated bugs in chronological (seq) order. */
    std::vector<BugReport> bugs;
    /** The session debugger's bookkeeping statistics. */
    DebuggerStats stats;
};

/** Worker pool over per-session detector queues. */
class SessionPool
{
  public:
    explicit SessionPool(SessionPoolConfig config = {});
    ~SessionPool();

    SessionPool(const SessionPool &) = delete;
    SessionPool &operator=(const SessionPool &) = delete;

    /** Spawn the worker threads. */
    void start();

    /** Drain queues and join the workers. */
    void stop();

    std::size_t workerCount() const { return config_.shards; }

    /**
     * Open a session. Its detector looks event name ids up in
     * @p names (none when null): the caller's table of the session's
     * interned names, which must outlive the session's close and hold
     * every id a routed event references.
     */
    void openSession(SessionId session, const DebuggerConfig &config,
                     const NameTable *names = nullptr);

    /**
     * Enqueue @p events as one Events task of @p session, moving them
     * out of the vector. When the session's queue already holds
     * queueCapacity Events tasks, nothing is enqueued, @p events is
     * left as it was and false is returned: the caller must retry
     * before routing newer events of this session.
     */
    bool tryRouteEvents(SessionId session, std::vector<Event> &events);

    /** Blocking tryRouteEvents: retries until the events are queued. */
    void routeEvents(SessionId session, std::vector<Event> events);

    /**
     * Enqueue the session's Close and return immediately. When the
     * detector has finalized, the verdict (its bugs plus @p external,
     * ordered and deduplicated as above, and its stats) is passed to
     * @p done on the worker's thread; the session is released
     * afterwards.
     */
    void closeSessionAsync(SessionId session,
                           std::vector<BugReport> external,
                           std::function<void(SessionVerdict &&)> done);

    /** Blocking closeSession: closeSessionAsync + wait. */
    SessionVerdict closeSession(SessionId session,
                                std::vector<BugReport> external = {});

  private:
    struct Task;
    struct SessionQueue;

    /** Enqueue under mutex_; marks the queue ready and wakes a worker.
     *  Control tasks ignore the Events cap. */
    void enqueueLocked(SessionQueue &queue, Task task);
    void markReadyLocked(SessionQueue &queue);
    void workerLoop();
    void runTask(SessionQueue &queue, Task &task);

    SessionPoolConfig config_;
    std::vector<std::thread> workers_;

    /** Guards queues_, ready_, and every SessionQueue's queue/lease. */
    std::mutex mutex_;
    std::condition_variable wake_;
    std::unordered_map<SessionId, std::unique_ptr<SessionQueue>> queues_;
    /** Queues with tasks and no lease, in the order they became so. */
    std::deque<SessionQueue *> ready_;
    bool stopping_ = false;
    bool running_ = false;
};

} // namespace pmdb

#endif // PMDB_SERVICE_SESSION_POOL_HH
