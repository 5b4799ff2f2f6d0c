#include "service/session_pool.hh"

#include <algorithm>
#include <chrono>
#include <future>
#include <iterator>
#include <unordered_set>

#include "telemetry/metrics.hh"
#include "telemetry/span.hh"

namespace pmdb
{

namespace
{

/** Pool-path metrics, resolved once; touched per task, not per event.
 *  The names predate the pool's rename and are read by the benchmark
 *  harness. */
struct PoolMetrics
{
    telemetry::Histogram &queueWaitNs = telemetry::Registry::global()
        .histogram("pmdbd.shard.queue_wait_ns");
    telemetry::Histogram &evalNs = telemetry::Registry::global()
        .histogram("pmdbd.shard.eval_ns");
    telemetry::Histogram &verdictNs = telemetry::Registry::global()
        .histogram("pmdbd.shard.verdict_ns");

    static PoolMetrics &
    get()
    {
        static PoolMetrics instance;
        return instance;
    }
};

/**
 * Complete a close: append the client-reported @p external bugs to the
 * detector's, order by seq (a stable sort keeps external bugs last at
 * equal seq — in-process detection reports at an event before a manual
 * cross-failure check stamped with the same seq), keep the first
 * detection of each fingerprint, and hand the verdict to @p done.
 */
void
finishClose(SessionId session, std::vector<BugReport> bugs,
            std::vector<BugReport> external, const DebuggerStats &stats,
            const std::function<void(SessionVerdict &&)> &done)
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

    SessionVerdict verdict;
    verdict.bugs = std::move(bugs);
    verdict.stats = stats;
    if (telemetryOn)
        PoolMetrics::get().verdictNs.record(telemetry::nowNs() - start);
    if (done)
        done(std::move(verdict));
}

} // namespace

struct SessionPool::Task
{
    enum class Kind
    {
        Events,
        Close,
    };

    Kind kind = Kind::Events;
    /** Enqueue stamp for the queue-wait telemetry stage (0 = off). */
    std::uint64_t enqueuedNs = 0;
    /** Events */
    std::vector<Event> events;
    /** Close */
    std::vector<BugReport> external;
    std::function<void(SessionVerdict &&)> done;
};

/**
 * One session: its FIFO task queue plus the detector any leasing
 * worker drives. The queue/lease fields are guarded by the pool's
 * mutex_; the detector is touched only by the worker holding the
 * lease, which builds it from config and names on its first task.
 */
struct SessionPool::SessionQueue
{
    SessionId session = 0;
    DebuggerConfig config;
    const NameTable *names = nullptr;

    /** @name guarded by mutex_ */
    /** @{ */
    std::deque<Task> queue;
    /** Queued Events tasks (the bounded part of the queue). */
    std::size_t eventsTasks = 0;
    bool leased = false;
    bool ready = false;
    /** A Close is queued: later routes are dropped. */
    bool closing = false;
    /** @} */

    /** Leased-worker state. */
    std::unique_ptr<PmDebugger> debugger;
};

SessionPool::SessionPool(SessionPoolConfig config)
    : config_(config)
{
    if (!config_.shards)
        config_.shards = 1;
    if (!config_.queueCapacity)
        config_.queueCapacity = 1;
}

SessionPool::~SessionPool()
{
    stop();
}

void
SessionPool::start()
{
    if (running_)
        return;
    running_ = true;
    stopping_ = false;
    for (std::size_t i = 0; i < config_.shards; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

void
SessionPool::stop()
{
    if (!running_)
        return;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    wake_.notify_all();
    for (std::thread &worker : workers_) {
        if (worker.joinable())
            worker.join();
    }
    workers_.clear();
    running_ = false;
}

void
SessionPool::markReadyLocked(SessionQueue &queue)
{
    if (!queue.ready && !queue.leased && !queue.queue.empty()) {
        queue.ready = true;
        ready_.push_back(&queue);
        wake_.notify_one();
    }
}

void
SessionPool::enqueueLocked(SessionQueue &queue, Task task)
{
    if (task.kind == Task::Kind::Events)
        ++queue.eventsTasks;
    if (telemetry::enabled())
        task.enqueuedNs = telemetry::nowNs();
    queue.queue.push_back(std::move(task));
    markReadyLocked(queue);
}

void
SessionPool::openSession(SessionId session, const DebuggerConfig &config,
                         const NameTable *names)
{
    auto entry = std::make_unique<SessionQueue>();
    entry->session = session;
    entry->config = config;
    entry->names = names;
    std::lock_guard<std::mutex> lock(mutex_);
    queues_[session] = std::move(entry);
}

bool
SessionPool::tryRouteEvents(SessionId session, std::vector<Event> &events)
{
    if (events.empty())
        return true;
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = queues_.find(session);
    if (it == queues_.end() || it->second->closing) {
        events.clear(); // no detector will ever read them
        return true;
    }
    SessionQueue &queue = *it->second;
    if (queue.eventsTasks >= config_.queueCapacity)
        return false;
    Task task;
    task.events = std::move(events);
    events.clear();
    enqueueLocked(queue, std::move(task));
    return true;
}

void
SessionPool::routeEvents(SessionId session, std::vector<Event> events)
{
    // Backpressure: the workers are behind. Yield first so they get
    // the core on a 1-CPU host, then back off gently.
    for (int spins = 0; !tryRouteEvents(session, events); ++spins) {
        if (spins < 16)
            std::this_thread::yield();
        else
            std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
}

void
SessionPool::closeSessionAsync(SessionId session,
                               std::vector<BugReport> external,
                               std::function<void(SessionVerdict &&)> done)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = queues_.find(session);
        if (it != queues_.end() && !it->second->closing) {
            it->second->closing = true;
            Task task;
            task.kind = Task::Kind::Close;
            task.external = std::move(external);
            task.done = std::move(done);
            enqueueLocked(*it->second, std::move(task));
            return;
        }
    }
    // Unknown session: no detector, so the verdict is the external
    // bugs alone, completed on the caller's thread.
    finishClose(session, {}, std::move(external), DebuggerStats{}, done);
}

SessionVerdict
SessionPool::closeSession(SessionId session,
                          std::vector<BugReport> external)
{
    std::promise<SessionVerdict> promise;
    std::future<SessionVerdict> future = promise.get_future();
    closeSessionAsync(session, std::move(external),
                      [&promise](SessionVerdict &&verdict) {
                          promise.set_value(std::move(verdict));
                      });
    return future.get();
}

void
SessionPool::runTask(SessionQueue &queue, Task &task)
{
    const bool telemetryOn = telemetry::enabled();
    if (telemetryOn && task.enqueuedNs) {
        const std::uint64_t wait = telemetry::nowNs() - task.enqueuedNs;
        PoolMetrics::get().queueWaitNs.record(wait);
        if (telemetry::spansEnabled() && task.kind == Task::Kind::Events) {
            telemetry::Span span;
            span.name = "shard.queue_wait";
            span.category = "pmdbd";
            span.startNs = task.enqueuedNs;
            span.durNs = wait;
            span.track = queue.session;
            telemetry::SpanBuffer::global().record(std::move(span));
        }
    }
    if (!queue.debugger) {
        queue.debugger = std::make_unique<PmDebugger>(queue.config);
        if (queue.names)
            queue.debugger->attached(*queue.names);
    }
    switch (task.kind) {
      case Task::Kind::Events: {
        telemetry::SpanTimer span(
            "shard.rule_eval", "pmdbd", queue.session,
            "events=" + std::to_string(task.events.size()));
        const std::uint64_t start = telemetryOn ? telemetry::nowNs() : 0;
        queue.debugger->handleBatch(task.events.data(),
                                    task.events.size());
        if (telemetryOn)
            PoolMetrics::get().evalNs.record(telemetry::nowNs() - start);
        break;
      }
      case Task::Kind::Close: {
        queue.debugger->finalize();
        std::vector<BugReport> bugs = queue.debugger->bugs().takeBugs();
        const DebuggerStats stats = queue.debugger->stats();
        queue.debugger.reset();
        finishClose(queue.session, std::move(bugs),
                    std::move(task.external), stats, task.done);
        break;
      }
    }
}

void
SessionPool::workerLoop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        if (ready_.empty()) {
            if (stopping_)
                return;
            wake_.wait(lock);
            continue;
        }
        SessionQueue *queue = ready_.front();
        ready_.pop_front();

        // Lease the queue and take its whole backlog: exclusivity
        // keeps the session's order, coarse granularity keeps the lock
        // off the per-event path.
        queue->ready = false;
        queue->leased = true;
        std::deque<Task> taken;
        taken.swap(queue->queue);
        queue->eventsTasks = 0;
        lock.unlock();

        bool sawClose = false;
        for (Task &task : taken) {
            runTask(*queue, task);
            sawClose |= task.kind == Task::Kind::Close;
        }
        taken.clear();

        lock.lock();
        queue->leased = false;
        // Nothing is enqueued behind a Close, so the queue is done.
        if (sawClose)
            queues_.erase(queue->session);
        else
            markReadyLocked(*queue);
    }
}

} // namespace pmdb
