#include "service/shard.hh"

#include <algorithm>
#include <chrono>
#include <future>
#include <iterator>
#include <thread>
#include <unordered_set>

#include "core/order_spec.hh"
#include "service/cpu_pin.hh"
#include "telemetry/metrics.hh"
#include "telemetry/span.hh"

namespace pmdb
{

namespace
{

/** Shard-path metrics, resolved once; touched per task, not per
 *  event. Histograms merge across shards deterministically. */
struct ShardMetrics
{
    telemetry::Histogram &queueWaitNs = telemetry::Registry::global()
        .histogram("pmdbd.shard.queue_wait_ns");
    telemetry::Histogram &evalNs = telemetry::Registry::global()
        .histogram("pmdbd.shard.eval_ns");
    telemetry::Histogram &verdictNs = telemetry::Registry::global()
        .histogram("pmdbd.shard.verdict_ns");

    static ShardMetrics &
    get()
    {
        static ShardMetrics instance;
        return instance;
    }
};

/** Events routed by address; everything else is broadcast. */
bool
isAddressed(EventKind kind)
{
    return kind == EventKind::Store || kind == EventKind::Load ||
           kind == EventKind::Flush || kind == EventKind::TxLog;
}

void
mergeStats(DebuggerStats *total, const DebuggerStats &part)
{
    // Addressed work is partitioned across shards: sum it. Boundary
    // events are broadcast, so every shard counts each fence/epoch —
    // take the max, which equals the true count.
    total->stores += part.stores;
    total->flushes += part.flushes;
    total->fences = std::max(total->fences, part.fences);
    total->epochs = std::max(total->epochs, part.epochs);
    total->treeNodeSampleSum += part.treeNodeSampleSum;
    total->treeNodeSamples += part.treeNodeSamples;
    total->tree.insertions += part.tree.insertions;
    total->tree.removals += part.tree.removals;
    total->tree.reorganizations += part.tree.reorganizations;
    total->tree.merges += part.tree.merges;
    total->array.collectiveInvalidations +=
        part.array.collectiveInvalidations;
    total->array.recordsCollectivelyFreed +=
        part.array.recordsCollectivelyFreed;
    total->array.recordsMovedToTree += part.array.recordsMovedToTree;
    total->array.recordsDroppedIndividually +=
        part.array.recordsDroppedIndividually;
    total->array.overflowStores += part.array.overflowStores;
    total->array.maxUsage =
        std::max(total->array.maxUsage, part.array.maxUsage);
}

} // namespace

/** Rendezvous for closeSession: shards deposit results into their own
 *  slot; the last one to finish merges and runs the completion. */
struct ShardPool::CloseState
{
    std::atomic<std::size_t> remaining{0};
    std::vector<std::vector<BugReport>> bugs;
    std::vector<DebuggerStats> stats;
    std::vector<BugReport> external;
    SessionId session = 0;
    std::size_t home = 0;
    std::function<void(SessionVerdict &&)> done;
};

struct ShardPool::Task
{
    enum class Kind
    {
        Open,
        Events,
        Close,
    };

    Kind kind = Kind::Events;
    /** Enqueue stamp for the queue-wait telemetry stage (0 = off). */
    std::uint64_t enqueuedNs = 0;
    /** Open */
    DebuggerConfig config;
    const NameTable *names = nullptr;
    /** Events */
    std::vector<Event> events;
    /** Close */
    std::shared_ptr<CloseState> close;
};

/**
 * One (session, shard) pair: its FIFO task queue plus the detector
 * state any leasing worker drives. The queue/lease fields are guarded
 * by the pool's queuesMutex_; the detector state is touched only by
 * the worker holding the lease.
 */
struct ShardPool::SessionShard
{
    SessionId session = 0;
    std::size_t shard = 0;

    /** @name guarded by queuesMutex_ */
    /** @{ */
    std::deque<Task> queue;
    /** Queued Events tasks (the bounded part of the queue). */
    std::size_t eventsTasks = 0;
    bool leased = false;
    bool ready = false;
    bool closed = false;
    /** @} */

    /** Leased-worker state. */
    std::unique_ptr<PmDebugger> debugger;
};

ShardPool::ShardPool(ShardPoolConfig config)
    : config_(config)
{
    if (!config_.shards)
        config_.shards = 1;
    if (!config_.stripeBytes)
        config_.stripeBytes = 64ull << 20;
    if (!config_.queueCapacity)
        config_.queueCapacity = 1;
    ready_.resize(config_.shards);
    for (std::size_t i = 0; i < config_.shards; ++i)
        counters_.push_back(std::make_unique<Counters>());
}

ShardPool::~ShardPool()
{
    stop();
}

void
ShardPool::start()
{
    if (running_)
        return;
    running_ = true;
    stopping_ = false;
    for (std::size_t i = 0; i < config_.shards; ++i) {
        workers_.emplace_back([this, i] { workerLoop(i); });
        if (config_.pinCores) {
            pinThreadToCore(workers_.back(),
                            config_.pinBase + i);
        }
    }
}

void
ShardPool::stop()
{
    if (!running_)
        return;
    {
        std::lock_guard<std::mutex> lock(queuesMutex_);
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

std::size_t
ShardPool::homeShard(SessionId session) const
{
    return session % config_.shards;
}

std::size_t
ShardPool::shardOf(SessionId session, Addr addr) const
{
    const Addr stripe = addr / config_.stripeBytes;
    return static_cast<std::size_t>((stripe + session) %
                                    config_.shards);
}

ShardPool::SessionShard *
ShardPool::queueOf(SessionId session, std::size_t shard)
{
    const std::uint64_t key =
        static_cast<std::uint64_t>(session) * config_.shards + shard;
    const auto it = queues_.find(key);
    return it == queues_.end() ? nullptr : it->second.get();
}

void
ShardPool::markReadyLocked(SessionShard &queue)
{
    if (!queue.ready && !queue.leased && !queue.queue.empty()) {
        queue.ready = true;
        ready_[queue.shard].push_back(&queue);
        wake_.notify_one();
    }
}

void
ShardPool::enqueueLocked(SessionShard &queue, Task task)
{
    if (task.kind == Task::Kind::Events)
        ++queue.eventsTasks;
    if (telemetry::enabled()) {
        task.enqueuedNs = telemetry::nowNs();
        counters_[queue.shard]->queueDepth.fetch_add(
            1, std::memory_order_relaxed);
    }
    queue.queue.push_back(std::move(task));
    markReadyLocked(queue);
}

void
ShardPool::openSession(SessionId session, const DebuggerConfig &config,
                       bool pinned, const NameTable *names)
{
    {
        std::lock_guard<std::mutex> lock(pinnedMutex_);
        pinned_[session] = pinned;
    }
    const std::size_t home = homeShard(session);
    std::lock_guard<std::mutex> lock(queuesMutex_);
    for (std::size_t shard = 0; shard < config_.shards; ++shard) {
        const std::uint64_t key =
            static_cast<std::uint64_t>(session) * config_.shards +
            shard;
        auto entry = std::make_unique<SessionShard>();
        entry->session = session;
        entry->shard = shard;
        Task task;
        task.kind = Task::Kind::Open;
        task.config = config;
        task.names = names;
        // Context-only rules fire on broadcast boundaries alone, so
        // every shard would report the same bug; keep them on the home
        // shard only to preserve single-detector report identity.
        if (shard != home)
            task.config.detectRedundantEpochFence = false;
        enqueueLocked(*entry, std::move(task));
        queues_[key] = std::move(entry);
    }
}

bool
ShardPool::tryRouteEvents(SessionId session, const Event *events,
                          std::size_t count, PendingRoute *overflow)
{
    bool pinned = false;
    {
        std::lock_guard<std::mutex> lock(pinnedMutex_);
        const auto it = pinned_.find(session);
        pinned = it != pinned_.end() && it->second;
    }

    // Partition into per-shard subsequences. Relative order within a
    // shard matches stream order because events are appended in order.
    std::vector<std::vector<Event>> parts(config_.shards);
    for (std::size_t i = 0; i < count; ++i) {
        const Event &event = events[i];
        if (pinned) {
            parts[homeShard(session)].push_back(event);
        } else if (isAddressed(event.kind)) {
            const std::size_t shard = shardOf(session, event.addr);
            if (event.size &&
                shardOf(session, event.addr + event.size - 1) != shard) {
                straddles_.fetch_add(1, std::memory_order_relaxed);
            }
            parts[shard].push_back(event);
        } else {
            for (auto &part : parts)
                part.push_back(event);
        }
    }

    std::lock_guard<std::mutex> lock(queuesMutex_);
    for (std::size_t shard = 0; shard < parts.size(); ++shard) {
        if (parts[shard].empty())
            continue;
        SessionShard *queue = queueOf(session, shard);
        if (!queue || queue->closed)
            continue;
        if (queue->eventsTasks >= config_.queueCapacity) {
            if (overflow) {
                overflow->parts.emplace_back(
                    shard, std::move(parts[shard]));
            }
            continue;
        }
        Task task;
        task.kind = Task::Kind::Events;
        task.events = std::move(parts[shard]);
        enqueueLocked(*queue, std::move(task));
    }
    return !overflow || overflow->empty();
}

bool
ShardPool::tryFlushPending(SessionId session, PendingRoute *overflow)
{
    if (!overflow || overflow->empty())
        return true;
    std::lock_guard<std::mutex> lock(queuesMutex_);
    auto &parts = overflow->parts;
    std::size_t kept = 0;
    for (std::size_t i = 0; i < parts.size(); ++i) {
        SessionShard *queue = queueOf(session, parts[i].first);
        if (queue && !queue->closed &&
            queue->eventsTasks >= config_.queueCapacity) {
            // Still blocked: compact in place. Guard the self-move —
            // moving a vector onto itself leaves it empty.
            if (kept != i)
                parts[kept] = std::move(parts[i]);
            ++kept;
            continue;
        }
        if (queue && !queue->closed) {
            Task task;
            task.kind = Task::Kind::Events;
            task.events = std::move(parts[i].second);
            enqueueLocked(*queue, std::move(task));
        }
    }
    parts.resize(kept);
    return parts.empty();
}

void
ShardPool::routeEvents(SessionId session, const Event *events,
                       std::size_t count)
{
    PendingRoute overflow;
    if (tryRouteEvents(session, events, count, &overflow))
        return;
    // Backpressure: the workers are behind. Yield first so they get
    // the core on a 1-CPU host, then back off gently.
    int spins = 0;
    while (!tryFlushPending(session, &overflow)) {
        if (++spins < 16) {
            std::this_thread::yield();
        } else {
            std::this_thread::sleep_for(
                std::chrono::microseconds(50));
        }
    }
}

void
ShardPool::closeSessionAsync(
    SessionId session, std::vector<BugReport> external,
    std::function<void(SessionVerdict &&)> done)
{
    {
        std::lock_guard<std::mutex> lock(pinnedMutex_);
        pinned_.erase(session);
    }
    auto close = std::make_shared<CloseState>();
    close->remaining.store(config_.shards, std::memory_order_relaxed);
    close->bugs.resize(config_.shards);
    close->stats.resize(config_.shards);
    close->external = std::move(external);
    close->session = session;
    close->home = homeShard(session);
    close->done = std::move(done);

    std::size_t missing = 0;
    {
        std::lock_guard<std::mutex> lock(queuesMutex_);
        for (std::size_t shard = 0; shard < config_.shards; ++shard) {
            SessionShard *queue = queueOf(session, shard);
            if (!queue) {
                ++missing; // unknown shard: counts as already done
                continue;
            }
            Task task;
            task.kind = Task::Kind::Close;
            task.close = close;
            enqueueLocked(*queue, std::move(task));
        }
    }
    // Settle missing shards outside the pool lock — if every shard was
    // missing, the completion runs right here on the caller's thread.
    if (missing &&
        close->remaining.fetch_sub(missing,
                                   std::memory_order_acq_rel) ==
            missing) {
        mergeAndFinish(*close);
    }
}

SessionVerdict
ShardPool::closeSession(SessionId session,
                        const std::vector<BugReport> &external)
{
    std::promise<SessionVerdict> promise;
    std::future<SessionVerdict> future = promise.get_future();
    closeSessionAsync(session, external,
                      [&promise](SessionVerdict &&verdict) {
                          promise.set_value(std::move(verdict));
                      });
    return future.get();
}

void
ShardPool::mergeAndFinish(CloseState &close)
{
    const bool telemetryOn = telemetry::enabled();
    const std::uint64_t start = telemetryOn ? telemetry::nowNs() : 0;
    telemetry::SpanTimer span("session.verdict", "pmdbd",
                              close.session);
    // Merge: home shard first so that, at equal seq, its chronological
    // ordering wins; client-reported external bugs come last at equal
    // seq (in-process detection reports at an event before a manual
    // cross-failure check stamped with the same sequence number). The
    // parts die here, so they are moved, not copied.
    std::size_t total = close.external.size();
    for (const std::vector<BugReport> &part : close.bugs)
        total += part.size();
    std::vector<BugReport> merged = std::move(close.bugs[close.home]);
    merged.reserve(total);
    const auto append = [&merged](std::vector<BugReport> &part) {
        merged.insert(merged.end(), std::make_move_iterator(part.begin()),
                      std::make_move_iterator(part.end()));
    };
    for (std::size_t shard = 0; shard < close.bugs.size(); ++shard) {
        if (shard != close.home)
            append(close.bugs[shard]);
    }
    append(close.external);
    const auto bySeq = [](const BugReport &a, const BugReport &b) {
        return a.seq < b.seq;
    };
    // One busy shard usually holds every bug, already in seq order;
    // skip the sort and its scratch buffer then.
    if (!std::is_sorted(merged.begin(), merged.end(), bySeq))
        std::stable_sort(merged.begin(), merged.end(), bySeq);

    // First detection of each fingerprint wins, as in a BugCollector;
    // the survivors are compacted in place.
    std::unordered_set<BugFingerprint, BugFingerprintHash> seen;
    seen.reserve(merged.size());
    std::size_t kept = 0;
    for (std::size_t i = 0; i < merged.size(); ++i) {
        if (!seen.insert(fingerprintOf(merged[i])).second)
            continue;
        if (kept != i)
            merged[kept] = std::move(merged[i]);
        ++kept;
    }
    merged.resize(kept);

    SessionVerdict verdict;
    verdict.bugs = std::move(merged);
    for (const DebuggerStats &part : close.stats)
        mergeStats(&verdict.stats, part);
    if (telemetryOn) {
        ShardMetrics::get().verdictNs.record(telemetry::nowNs() -
                                             start);
    }
    if (close.done)
        close.done(std::move(verdict));
}

void
ShardPool::addMetrics(telemetry::MetricsSnapshot &snap) const
{
    const auto load = [](const std::atomic<std::uint64_t> &counter) {
        return counter.load(std::memory_order_relaxed);
    };
    std::uint64_t steals = 0;
    for (std::size_t i = 0; i < counters_.size(); ++i) {
        const Counters &shard = *counters_[i];
        const std::string label = "{shard=\"" + std::to_string(i) + "\"}";
        snap.addCounter("pmdbd.shard.batches" + label, load(shard.batches));
        snap.addCounter("pmdbd.shard.events" + label, load(shard.events));
        const std::uint64_t stolen = load(shard.steals);
        snap.addCounter("pmdbd.shard.steals" + label, stolen);
        snap.addGauge("pmdbd.shard.queue_depth" + label,
                      static_cast<std::int64_t>(load(shard.queueDepth)));
        steals += stolen;
    }
    snap.addCounter("pmdbd.steals", steals);
    snap.addCounter("pmdbd.straddles", load(straddles_));
}

void
ShardPool::runTask(SessionShard &queue, Task &task)
{
    Counters &counters = *counters_[queue.shard];
    const bool telemetryOn = telemetry::enabled();
    if (telemetryOn && task.enqueuedNs) {
        const std::uint64_t wait = telemetry::nowNs() - task.enqueuedNs;
        ShardMetrics::get().queueWaitNs.record(wait);
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
    switch (task.kind) {
      case Task::Kind::Open:
        queue.debugger = std::make_unique<PmDebugger>(task.config);
        if (task.names)
            queue.debugger->attached(*task.names);
        break;
      case Task::Kind::Events: {
        if (queue.shard == config_.slowShard &&
            config_.slowShardDelayUs) {
            std::this_thread::sleep_for(std::chrono::microseconds(
                config_.slowShardDelayUs));
        }
        if (queue.debugger) {
            telemetry::SpanTimer span(
                "shard.rule_eval", "pmdbd", queue.session,
                "events=" + std::to_string(task.events.size()));
            const std::uint64_t start =
                telemetryOn ? telemetry::nowNs() : 0;
            queue.debugger->handleBatch(task.events.data(),
                                        task.events.size());
            if (telemetryOn) {
                ShardMetrics::get().evalNs.record(telemetry::nowNs() -
                                                  start);
            }
        }
        counters.batches.fetch_add(1, std::memory_order_relaxed);
        counters.events.fetch_add(task.events.size(),
                                  std::memory_order_relaxed);
        break;
      }
      case Task::Kind::Close: {
        std::vector<BugReport> bugs;
        DebuggerStats stats;
        if (queue.debugger) {
            queue.debugger->finalize();
            bugs = queue.debugger->bugs().takeBugs();
            stats = queue.debugger->stats();
            queue.debugger.reset();
        }
        CloseState &close = *task.close;
        close.bugs[queue.shard] = std::move(bugs);
        close.stats[queue.shard] = stats;
        if (close.remaining.fetch_sub(1, std::memory_order_acq_rel) ==
            1) {
            mergeAndFinish(close);
        }
        break;
      }
    }
}

void
ShardPool::workerLoop(std::size_t index)
{
    std::unique_lock<std::mutex> lock(queuesMutex_);
    const auto anyReady = [&]() -> SessionShard * {
        if (!ready_[index].empty()) {
            SessionShard *queue = ready_[index].front();
            ready_[index].pop_front();
            return queue;
        }
        // Idle: steal a ready queue of another shard. Any worker can
        // serve any queue — each carries its own detector state.
        for (std::size_t step = 1; step < config_.shards; ++step) {
            const std::size_t other =
                (index + step) % config_.shards;
            if (!ready_[other].empty()) {
                SessionShard *queue = ready_[other].front();
                ready_[other].pop_front();
                counters_[queue->shard]->steals.fetch_add(
                    1, std::memory_order_relaxed);
                return queue;
            }
        }
        return nullptr;
    };

    for (;;) {
        SessionShard *queue = anyReady();
        if (!queue) {
            if (stopping_)
                return;
            wake_.wait(lock);
            continue;
        }

        // Lease the queue and take its whole backlog: exclusivity
        // keeps per-(session,shard) order, coarse granularity keeps
        // the lock off the per-event path.
        queue->ready = false;
        queue->leased = true;
        std::deque<Task> taken;
        taken.swap(queue->queue);
        queue->eventsTasks = 0;
        // Only stamped tasks bumped the depth (the counter and the
        // stamp are set together), so the decrement can never
        // underflow if telemetry was toggled mid-run.
        std::uint64_t stamped = 0;
        for (const Task &task : taken)
            stamped += task.enqueuedNs != 0;
        if (stamped) {
            counters_[queue->shard]->queueDepth.fetch_sub(
                stamped, std::memory_order_relaxed);
        }
        lock.unlock();

        bool sawClose = false;
        for (Task &task : taken) {
            runTask(*queue, task);
            sawClose |= task.kind == Task::Kind::Close;
        }
        taken.clear();

        lock.lock();
        queue->leased = false;
        if (sawClose)
            queue->closed = true;
        if (queue->closed && queue->queue.empty()) {
            const std::uint64_t key =
                static_cast<std::uint64_t>(queue->session) *
                    config_.shards +
                queue->shard;
            queues_.erase(key);
        } else {
            markReadyLocked(*queue);
        }
    }
}

} // namespace pmdb
