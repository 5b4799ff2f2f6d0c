#include "trace/runtime.hh"

#include <algorithm>
#include <condition_variable>
#include <thread>

#include "common/logging.hh"
#include "telemetry/metrics.hh"

namespace pmdb
{

namespace
{

/**
 * Dispatch-path metrics, resolved once. Only per-batch work touches
 * the histogram (never per event), and it carries the whole story:
 * client.batch_fill's sum is the events dispatched and its count the
 * batches flushed. The events counter backs the per-event dispatch
 * mode only, where each event already pays a full clean-call charge.
 */
struct DispatchMetrics
{
    telemetry::Counter &events =
        telemetry::Registry::global().counter("client.events_dispatched");
    telemetry::Histogram &batchFill =
        telemetry::Registry::global().histogram("client.batch_fill");

    static DispatchMetrics &
    get()
    {
        static DispatchMetrics instance;
        return instance;
    }
};

/**
 * Thread-local batch-fill accumulator. Synchronous sinks flush at
 * every ordering boundary, so batches are small (~a fence interval)
 * and deliver() runs hot; even one atomic histogram record per batch
 * shows up against the 2% budget. Plain local adds here, spilled into
 * the shared histogram every 64 batches and at thread exit, keep the
 * per-batch cost to a TLS access plus three stores.
 */
struct BatchFillLocal
{
    telemetry::HistogramSnapshot delta;

    void
    note(std::uint64_t fill)
    {
        ++delta.buckets[telemetry::histogramBucketOf(fill)];
        ++delta.count;
        delta.sum += fill;
        if ((delta.count & 63) == 0)
            spill();
    }

    void
    spill()
    {
        if (delta.count == 0)
            return;
        DispatchMetrics::get().batchFill.recordBulk(delta);
        delta = telemetry::HistogramSnapshot{};
    }

    ~BatchFillLocal() { spill(); }
};

BatchFillLocal &
batchFillLocal()
{
    thread_local BatchFillLocal local;
    return local;
}

} // namespace

const char *
toString(EventKind kind)
{
    switch (kind) {
      case EventKind::Store:        return "store";
      case EventKind::Load:         return "load";
      case EventKind::Flush:        return "flush";
      case EventKind::Fence:        return "fence";
      case EventKind::EpochBegin:   return "epoch-begin";
      case EventKind::EpochEnd:     return "epoch-end";
      case EventKind::StrandBegin:  return "strand-begin";
      case EventKind::StrandEnd:    return "strand-end";
      case EventKind::JoinStrand:   return "join-strand";
      case EventKind::TxLog:        return "tx-log";
      case EventKind::RegisterPmem: return "register-pmem";
      case EventKind::ProgramEnd:   return "program-end";
    }
    return "unknown";
}

const char *
toString(FlushKind kind)
{
    switch (kind) {
      case FlushKind::Clwb:       return "clwb";
      case FlushKind::Clflush:    return "clflush";
      case FlushKind::Clflushopt: return "clflushopt";
    }
    return "unknown";
}

const char *
toString(DispatchMode mode)
{
    switch (mode) {
      case DispatchMode::PerEvent: return "per-event";
      case DispatchMode::Batched:  return "batched";
      case DispatchMode::Async:    return "async";
    }
    return "unknown";
}

std::uint32_t
NameTable::intern(const std::string &name)
{
    const auto it = index_.find(name);
    if (it != index_.end())
        return it->second;
    const auto id = static_cast<std::uint32_t>(names_.size());
    names_.push_back(name);
    index_.emplace(name, id);
    return id;
}

const std::string &
NameTable::name(std::uint32_t id) const
{
    if (id >= names_.size())
        panic("NameTable::name: id out of range");
    return names_[id];
}

/**
 * Bounded single-producer/single-consumer pipe of event batches plus
 * the consumer thread that drains them into the sinks. The producer is
 * the dispatching thread (already serialized by the runtime mutex in
 * thread-safe mode); publish() blocks while all slots are in flight,
 * which bounds the detection lag behind the application.
 */
struct PmRuntime::AsyncPipe
{
    explicit AsyncPipe(PmRuntime &runtime)
        : owner(runtime), consumer([this] { run(); })
    {
    }

    ~AsyncPipe()
    {
        {
            std::lock_guard<std::mutex> lock(m);
            stop = true;
        }
        cvWork.notify_all();
        consumer.join();
    }

    /** Producer side: copy the batch into a free slot (may block). */
    void
    publish(const EventBatch &batch)
    {
        std::unique_lock<std::mutex> lock(m);
        cvSpace.wait(lock, [&] { return count < slots; });
        pending[head].assign(batch.data(), batch.data() + batch.size());
        head = (head + 1) % slots;
        ++count;
        cvWork.notify_one();
    }

    /** Block until every published batch has been delivered. */
    void
    awaitEmpty()
    {
        std::unique_lock<std::mutex> lock(m);
        cvSpace.wait(lock, [&] { return count == 0 && !busy; });
    }

    void
    run()
    {
        std::vector<Event> work;
        for (;;) {
            {
                std::unique_lock<std::mutex> lock(m);
                cvWork.wait(lock, [&] { return count > 0 || stop; });
                if (count == 0) {
                    if (stop)
                        return;
                    continue;
                }
                work.swap(pending[tail]);
                tail = (tail + 1) % slots;
                --count;
                busy = true;
            }
            cvSpace.notify_all();
            owner.deliver(work.data(), work.size());
            work.clear();
            {
                std::lock_guard<std::mutex> lock(m);
                busy = false;
            }
            cvSpace.notify_all();
        }
    }

    static constexpr std::size_t slots = 8;

    PmRuntime &owner;
    std::array<std::vector<Event>, slots> pending;
    std::size_t head = 0;
    std::size_t tail = 0;
    std::size_t count = 0;
    /** True while the consumer is delivering a popped batch. */
    bool busy = false;
    bool stop = false;
    std::mutex m;
    std::condition_variable cvWork;
    std::condition_variable cvSpace;
    /** Last member: starts consuming as soon as the pipe exists. */
    std::thread consumer;
};

PmRuntime::PmRuntime()
{
    for (auto &strand : strandByThread_)
        strand.store(noStrand, std::memory_order_relaxed);
}

PmRuntime::~PmRuntime()
{
    // Deliver anything still buffered so no mode loses events; the
    // pipe destructor joins the consumer thread.
    drain();
    pipe_.reset();
}

void
PmRuntime::setDispatchMode(DispatchMode mode)
{
    if (mode == mode_)
        return;
    drain();
    pipe_.reset();
    mode_ = mode;
    if (mode_ == DispatchMode::Async)
        pipe_ = std::make_unique<AsyncPipe>(*this);
}

void
PmRuntime::setBatchCapacity(std::size_t capacity)
{
    drain();
    batchCapacity_ = capacity ? capacity : 1;
    batch_.setCapacity(batchCapacity_);
    for (auto &slot : threadBatches_) {
        if (slot)
            slot->setCapacity(batchCapacity_);
    }
}

void
PmRuntime::drain()
{
    if (mode_ == DispatchMode::PerEvent)
        return;
    // Producers must be quiescent (threads joined) at drain points;
    // flush order across threads is arbitrary, like any cross-thread
    // interleaving.
    for (auto &slot : threadBatches_) {
        if (slot)
            flushThreadBatch(*slot);
    }
    if (threadSafe_) {
        std::lock_guard<std::mutex> lock(mutex_);
        flushLocked();
    } else {
        flushLocked();
    }
    if (pipe_)
        pipe_->awaitEmpty();
    // Publish this thread's accumulated batch-fill samples so registry
    // totals are exact at every drain barrier (other threads spill at
    // thread exit).
    batchFillLocal().spill();
}

void
PmRuntime::attach(TraceSink *sink)
{
    if (!sink)
        panic("PmRuntime::attach: null sink");
    drain();
    sinks_.push_back(sink);
    if (sink->isDbiBased())
        ++dbiSinks_;
    rebuildPartition();
    sink->attached(names_);
}

void
PmRuntime::detach(TraceSink *sink)
{
    drain();
    const auto it = std::find(sinks_.begin(), sinks_.end(), sink);
    if (it == sinks_.end())
        return;
    if (sink->isDbiBased())
        --dbiSinks_;
    sinks_.erase(it);
    rebuildPartition();
}

void
PmRuntime::rebuildPartition()
{
    batchSinks_.clear();
    syncSinks_.clear();
    dbiBatchSinks_ = 0;
    dbiSyncSinks_ = 0;
    for (TraceSink *sink : sinks_) {
        if (sink->requiresSynchronousDelivery()) {
            syncSinks_.push_back(sink);
            if (sink->isDbiBased())
                ++dbiSyncSinks_;
        } else {
            batchSinks_.push_back(sink);
            if (sink->isDbiBased())
                ++dbiBatchSinks_;
        }
    }
}

void
PmRuntime::dbiSpin(std::uint32_t units)
{
    // Deterministic busy work standing in for binary-translated guest
    // instructions; the volatile accumulator keeps the optimizer from
    // deleting it.
    static thread_local volatile std::uint64_t accumulator = 0x9e37;
    std::uint64_t x = accumulator;
    for (std::uint32_t i = 0; i < units; ++i)
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    accumulator = x;
}

void
PmRuntime::appOp(std::uint32_t weight)
{
    if (dbiSinks_ > 0)
        dbiSpin(weight * dbiOpCost_);
}

bool
PmRuntime::isBoundary(EventKind kind)
{
    switch (kind) {
      case EventKind::Store:
      case EventKind::Load:
      case EventKind::Flush:
      case EventKind::TxLog:
        return false;
      default:
        return true;
    }
}

void
PmRuntime::deliver(const Event *events, std::size_t count)
{
    if (count == 0)
        return;
    // Buffered-instrumentation cost model: batched dispatch pays one
    // clean-call charge per drained buffer (the per-event append tax
    // was already charged at enqueue). In Async mode this runs on the
    // consumer thread, off the application's critical path.
    if (dbiBatchSinks_ > 0)
        dbiSpin(dbiEventCost_);
    if (telemetry::enabled())
        batchFillLocal().note(count);
    for (TraceSink *sink : batchSinks_)
        sink->handleBatch(events, count);
}

void
PmRuntime::flushLocked()
{
    if (batch_.empty())
        return;
    if (pipe_) {
        pipe_->publish(batch_);
        batch_.clear();
        return;
    }
    deliver(batch_.data(), batch_.size());
    batch_.clear();
}

void
PmRuntime::enqueueLocked(Event &event)
{
    if (threadSafe_) {
        // Threads on the per-thread batch path bump seq_ atomically, so
        // every writer must (mixing plain and atomic access races).
        std::atomic_ref<SeqNum> seq(seq_);
        event.seq = seq.fetch_add(1, std::memory_order_relaxed) + 1;
    } else {
        event.seq = ++seq_;
    }
    if (mode_ == DispatchMode::PerEvent) {
        // Unbuffered instrumentation: every event is a full clean call
        // out of translated code.
        if (dbiSinks_ > 0)
            dbiSpin(dbiEventCost_);
        if (telemetry::enabled())
            DispatchMetrics::get().events.add(1);
        for (TraceSink *sink : sinks_)
            sink->handle(event);
        return;
    }
    // Sinks coupled synchronously to the application (the device
    // model, annotation checkers, cross-failure verifiers) always see
    // events inline, in dispatch order — deferring them would let
    // program-side state run ahead of their view of the stream.
    if (!syncSinks_.empty()) {
        if (dbiSyncSinks_ > 0)
            dbiSpin(dbiEventCost_);
        for (TraceSink *sink : syncSinks_)
            sink->handle(event);
    }
    // Buffered instrumentation: the translated code only pays a short
    // inline buffer-append stub per event.
    if (dbiBatchSinks_ > 0)
        dbiSpin(dbiAppendCost_);
    batch_.push(event);
    // Ordering boundaries flush so sink state is coherent with the
    // application at every synchronization point; a full batch flushes
    // to cap buffering between boundaries. Async mode skips boundary
    // flushes: its sinks are only coherent at drain() barriers anyway,
    // and full batches keep the pipe's per-publish cost amortized.
    if (batch_.full() || (!pipe_ && isBoundary(event.kind)))
        flushLocked();
}

void
PmRuntime::dispatchBatchedThreadSafe(Event &event)
{
    EventBatch *batch = threadBatchFor(event.thread);
    if (!batch) {
        // Overflow ThreadIds (beyond the lock-free array) share batch_
        // under the mutex — correct, just not the fast path.
        std::lock_guard<std::mutex> lock(mutex_);
        enqueueLocked(event);
        return;
    }
    std::atomic_ref<SeqNum> seq(seq_);
    event.seq = seq.fetch_add(1, std::memory_order_relaxed) + 1;
    // Synchronously-coupled sinks still get per-event delivery under
    // the mutex; only the batching-tolerant sinks ride the lock-free
    // per-thread batch. None of the perf-path configurations attach a
    // sync sink, so the fast path stays lock-free where it matters.
    if (!syncSinks_.empty()) {
        std::lock_guard<std::mutex> lock(mutex_);
        if (dbiSyncSinks_ > 0)
            dbiSpin(dbiEventCost_);
        for (TraceSink *sink : syncSinks_)
            sink->handle(event);
    }
    if (dbiBatchSinks_ > 0)
        dbiSpin(dbiAppendCost_);
    batch->push(event);
    if (batch->full() || (!pipe_ && isBoundary(event.kind)))
        flushThreadBatch(*batch);
}

void
PmRuntime::dispatch(Event event)
{
    // Consume the pending shared-pool ticket (if any) whether or not
    // sinks are attached, so a stamp armed for this operation can never
    // leak onto a later unrelated event.
    if (nextGlobal_ != 0) {
        event.global = nextGlobal_;
        nextGlobal_ = 0;
    }
    // Native (no-sink) runs must not serialize the application: bump
    // the sequence atomically and return. Only instrumented runs pay
    // the serialization, exactly like guest threads under Valgrind.
    if (sinks_.empty()) {
        std::atomic_ref<SeqNum> seq(seq_);
        seq.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    if (!threadSafe_) {
        enqueueLocked(event);
        return;
    }
    if (mode_ == DispatchMode::PerEvent) {
        std::lock_guard<std::mutex> lock(mutex_);
        enqueueLocked(event);
        return;
    }
    // Thread-safe batched/async: append to the calling thread's own
    // batch without a lock; the sink mutex is taken once per flushed
    // batch instead of once per event.
    dispatchBatchedThreadSafe(event);
}

EventBatch *
PmRuntime::threadBatchFor(ThreadId thread)
{
    if (thread < 0 || thread >= maxTrackedThreads)
        return nullptr;
    auto &slot = threadBatches_[static_cast<std::size_t>(thread)];
    if (!slot)
        slot = std::make_unique<EventBatch>(batchCapacity_);
    return slot.get();
}

void
PmRuntime::flushThreadBatch(EventBatch &batch)
{
    if (batch.empty())
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    if (pipe_) {
        pipe_->publish(batch);
        batch.clear();
        return;
    }
    deliver(batch.data(), batch.size());
    batch.clear();
}

StrandId
PmRuntime::strandOf(ThreadId thread) const
{
    if (thread >= 0 && thread < maxTrackedThreads)
        return strandByThread_[static_cast<std::size_t>(thread)].load(
            std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(strandMutex_);
    const auto it = strandOverflow_.find(thread);
    return it == strandOverflow_.end() ? noStrand : it->second;
}

void
PmRuntime::setStrand(ThreadId thread, StrandId strand)
{
    if (thread >= 0 && thread < maxTrackedThreads) {
        strandByThread_[static_cast<std::size_t>(thread)].store(
            strand, std::memory_order_relaxed);
        return;
    }
    std::lock_guard<std::mutex> lock(strandMutex_);
    strandOverflow_[thread] = strand;
}

void
PmRuntime::siteEnter(const std::string &name, ThreadId thread)
{
    std::uint32_t id;
    {
        // Worker threads open sites concurrently; interning mutates the
        // shared NameTable and must be serialized.
        std::lock_guard<std::mutex> lock(siteMutex_);
        id = names_.intern(name);
    }
    if (thread >= 0 && thread < maxTrackedThreads) {
        auto &slot = siteStacks_[static_cast<std::size_t>(thread)];
        if (!slot)
            slot = std::make_unique<std::vector<std::uint32_t>>();
        slot->push_back(id);
        return;
    }
    std::lock_guard<std::mutex> lock(siteMutex_);
    siteOverflow_[thread].push_back(id);
}

void
PmRuntime::siteLeave(ThreadId thread)
{
    if (thread >= 0 && thread < maxTrackedThreads) {
        auto &slot = siteStacks_[static_cast<std::size_t>(thread)];
        if (slot && !slot->empty())
            slot->pop_back();
        return;
    }
    std::lock_guard<std::mutex> lock(siteMutex_);
    auto it = siteOverflow_.find(thread);
    if (it != siteOverflow_.end() && !it->second.empty())
        it->second.pop_back();
}

std::uint32_t
PmRuntime::siteOf(ThreadId thread) const
{
    if (thread >= 0 && thread < maxTrackedThreads) {
        const auto &slot = siteStacks_[static_cast<std::size_t>(thread)];
        return (slot && !slot->empty()) ? slot->back() : noName;
    }
    std::lock_guard<std::mutex> lock(siteMutex_);
    const auto it = siteOverflow_.find(thread);
    return (it != siteOverflow_.end() && !it->second.empty())
               ? it->second.back()
               : noName;
}

void
PmRuntime::store(Addr addr, std::uint32_t size, ThreadId thread)
{
    Event e;
    e.kind = EventKind::Store;
    e.thread = thread;
    e.strand = strandOf(thread);
    e.nameId = siteOf(thread);
    e.addr = addr;
    e.size = size;
    dispatch(e);
}

void
PmRuntime::load(Addr addr, std::uint32_t size, ThreadId thread)
{
    noteRead(addr, size);
    Event e;
    e.kind = EventKind::Load;
    e.thread = thread;
    e.strand = strandOf(thread);
    e.nameId = siteOf(thread);
    e.addr = addr;
    e.size = size;
    dispatch(e);
}

void
PmRuntime::flush(Addr addr, std::uint32_t size, FlushKind kind,
                 ThreadId thread)
{
    Event e;
    e.kind = EventKind::Flush;
    e.flushKind = kind;
    e.thread = thread;
    e.strand = strandOf(thread);
    e.nameId = siteOf(thread);
    e.addr = addr;
    e.size = size;
    dispatch(e);
}

void
PmRuntime::fence(ThreadId thread)
{
    Event e;
    e.kind = EventKind::Fence;
    e.thread = thread;
    e.strand = strandOf(thread);
    e.nameId = siteOf(thread);
    dispatch(e);
}

void
PmRuntime::epochBegin(ThreadId thread)
{
    Event e;
    e.kind = EventKind::EpochBegin;
    e.thread = thread;
    e.strand = strandOf(thread);
    e.nameId = siteOf(thread);
    dispatch(e);
}

void
PmRuntime::epochEnd(ThreadId thread)
{
    Event e;
    e.kind = EventKind::EpochEnd;
    e.thread = thread;
    e.strand = strandOf(thread);
    e.nameId = siteOf(thread);
    dispatch(e);
}

void
PmRuntime::strandBegin(StrandId strand, ThreadId thread)
{
    setStrand(thread, strand);
    Event e;
    e.kind = EventKind::StrandBegin;
    e.thread = thread;
    e.strand = strand;
    e.nameId = siteOf(thread);
    dispatch(e);
}

void
PmRuntime::strandEnd(StrandId strand, ThreadId thread)
{
    Event e;
    e.kind = EventKind::StrandEnd;
    e.thread = thread;
    e.strand = strand;
    e.nameId = siteOf(thread);
    dispatch(e);
    setStrand(thread, noStrand);
}

void
PmRuntime::joinStrand(ThreadId thread)
{
    Event e;
    e.kind = EventKind::JoinStrand;
    e.thread = thread;
    e.strand = strandOf(thread);
    e.nameId = siteOf(thread);
    dispatch(e);
}

void
PmRuntime::txLog(Addr addr, std::uint32_t size, ThreadId thread)
{
    Event e;
    e.kind = EventKind::TxLog;
    e.thread = thread;
    e.strand = strandOf(thread);
    e.nameId = siteOf(thread);
    e.addr = addr;
    e.size = size;
    dispatch(e);
}

void
PmRuntime::registerPmem(const std::string &name, Addr addr,
                        std::uint32_t size)
{
    Event e;
    e.kind = EventKind::RegisterPmem;
    {
        // Same lock as siteEnter(): worker threads may be interning
        // site names concurrently.
        std::lock_guard<std::mutex> lock(siteMutex_);
        e.nameId = names_.intern(name);
    }
    e.addr = addr;
    e.size = size;
    dispatch(e);
}

void
PmRuntime::programEnd()
{
    Event e;
    e.kind = EventKind::ProgramEnd;
    dispatch(e);
    // The blocking barrier of the async pipeline: finalize rules read
    // detector state, so everything must be delivered before callers
    // inspect the sinks.
    drain();
}

} // namespace pmdb
