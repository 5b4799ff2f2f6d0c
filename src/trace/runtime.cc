#include "trace/runtime.hh"

#include <algorithm>

#include "common/logging.hh"
#include "telemetry/metrics.hh"

namespace pmdb
{

namespace
{

/**
 * Dispatch-path metric, resolved once. Only per-batch work touches
 * the histogram (never per event), and it carries the whole story:
 * client.batch_fill's sum is the events delivered to batch sinks and
 * its count the batches flushed.
 */
telemetry::Histogram &
batchFillHistogram()
{
    static telemetry::Histogram &histogram =
        telemetry::Registry::global().histogram("client.batch_fill");
    return histogram;
}

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
        batchFillHistogram().recordBulk(delta);
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

NameTable::NameTable(const NameTable &other)
{
    std::lock_guard<std::mutex> lock(other.mutex_);
    names_ = other.names_;
    index_ = other.index_;
}

NameTable &
NameTable::operator=(const NameTable &other)
{
    if (this != &other) {
        std::scoped_lock lock(mutex_, other.mutex_);
        names_ = other.names_;
        index_ = other.index_;
    }
    return *this;
}

std::uint32_t
NameTable::intern(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
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
    std::lock_guard<std::mutex> lock(mutex_);
    if (id >= names_.size())
        panic("NameTable::name: id out of range");
    // Deque elements never move, so the reference outlives the lock.
    return names_[id];
}

std::size_t
NameTable::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return names_.size();
}

PmRuntime::PmRuntime()
{
    for (auto &strand : strandByThread_)
        strand.store(noStrand, std::memory_order_relaxed);
}

void
PmRuntime::setThreadSafe(bool on)
{
    if (on == threadSafe_)
        return;
    drain();
    threadSafe_ = on;
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
    // Producers must be quiescent (threads joined) at drain points;
    // flush order across threads is arbitrary, like any cross-thread
    // interleaving.
    for (auto &slot : threadBatches_) {
        if (slot)
            flushBatch(*slot);
    }
    flushBatch(batch_);
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
    // was already charged at enqueue).
    if (dbiBatchSinks_ > 0)
        dbiSpin(dbiEventCost_);
    if (telemetry::enabled())
        batchFillLocal().note(count);
    for (TraceSink *sink : batchSinks_)
        sink->handleBatch(events, count);
}

void
PmRuntime::deliverAndClear(EventBatch &batch)
{
    deliver(batch.data(), batch.size());
    batch.clear();
}

void
PmRuntime::flushBatch(EventBatch &batch)
{
    if (batch.empty())
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    deliverAndClear(batch);
}

SeqNum
PmRuntime::nextSeq()
{
    if (!threadSafe_)
        return ++seq_;
    // Threads on the per-thread batch path bump seq_ atomically, so
    // every writer must (mixing plain and atomic access races).
    std::atomic_ref<SeqNum> seq(seq_);
    return seq.fetch_add(1, std::memory_order_relaxed) + 1;
}

void
PmRuntime::deliverSync(const Event &event)
{
    // Sinks coupled synchronously to the application (the device
    // model, annotation checkers, cross-failure verifiers) see events
    // inline, in dispatch order, each a full clean call out of
    // translated code — deferring them would let program-side state
    // run ahead of their view of the stream.
    if (dbiSyncSinks_ > 0)
        dbiSpin(dbiEventCost_);
    for (TraceSink *sink : syncSinks_)
        sink->handle(event);
}

bool
PmRuntime::buffer(EventBatch &batch, const Event &event)
{
    // Buffered instrumentation: the translated code only pays a short
    // inline buffer-append stub per event.
    if (dbiBatchSinks_ > 0)
        dbiSpin(dbiAppendCost_);
    batch.push(event);
    // Ordering boundaries flush so sink state is coherent with the
    // application at every synchronization point; a full batch flushes
    // to cap buffering between boundaries.
    return batch.full() || isBoundary(event.kind);
}

void
PmRuntime::enqueueLocked(Event &event)
{
    event.seq = nextSeq();
    if (!syncSinks_.empty())
        deliverSync(event);
    if (!batchSinks_.empty() && buffer(batch_, event))
        deliverAndClear(batch_);
}

void
PmRuntime::dispatchThreadSafe(Event &event)
{
    if (event.thread < 0 || event.thread >= maxTrackedThreads) {
        // Overflow ThreadIds (beyond the lock-free array) share batch_
        // under the mutex — correct, just not the fast path.
        std::lock_guard<std::mutex> lock(mutex_);
        enqueueLocked(event);
        return;
    }
    event.seq = nextSeq();
    // Synchronous sinks take the mutex per event; only the
    // batching-tolerant sinks ride the lock-free per-thread batch.
    // None of the perf-path configurations attach a sync sink, so the
    // fast path stays lock-free where it matters.
    if (!syncSinks_.empty()) {
        std::lock_guard<std::mutex> lock(mutex_);
        deliverSync(event);
    }
    if (batchSinks_.empty())
        return;
    auto &batch = threadBatches_[static_cast<std::size_t>(event.thread)];
    if (!batch)
        batch = std::make_unique<EventBatch>(batchCapacity_);
    if (buffer(*batch, event))
        flushBatch(*batch);
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
    // Thread-safe: append to the calling thread's own batch without a
    // lock; the sink mutex is taken once per flushed batch instead of
    // once per event.
    if (threadSafe_)
        dispatchThreadSafe(event);
    else
        enqueueLocked(event);
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
    const std::uint32_t id = names_.intern(name);
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
                        std::uint32_t size, ThreadId thread)
{
    Event e;
    e.kind = EventKind::RegisterPmem;
    e.thread = thread;
    e.nameId = names_.intern(name);
    e.addr = addr;
    e.size = size;
    dispatch(e);
}

void
PmRuntime::programEnd()
{
    // ProgramEnd runs the detector's finalize rules: other threads'
    // partial batches must reach the sinks first, and ProgramEnd itself
    // must be delivered before callers inspect them.
    drain();
    Event e;
    e.kind = EventKind::ProgramEnd;
    dispatch(e);
    drain();
}

} // namespace pmdb
