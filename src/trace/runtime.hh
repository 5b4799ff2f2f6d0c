/**
 * @file
 * PmRuntime: the instrumentation runtime every PM program in this
 * repository runs on.
 *
 * This substitutes for the paper's Valgrind-based binary
 * instrumentation: workloads call store()/flush()/fence()/... and the
 * runtime assigns sequence numbers and dispatches the events to all
 * attached sinks. Running with zero sinks measures native execution;
 * attaching only NulgrindSink measures pure instrumentation overhead
 * (the paper's "Nulgrind" baseline); attaching a detector measures that
 * detector's debugging overhead.
 *
 * Delivery is batched: events accumulate in a fixed-capacity
 * EventBatch, flushed when it fills, at every ordering boundary
 * (fence / epoch / strand / join / register / program-end) and at
 * attach()/detach()/drain(). One virtual handleBatch() per sink per
 * batch replaces one handle() per sink per event, and the DBI cost
 * model charges its clean call once per batch (buffered
 * instrumentation: events pay only a short buffer-append stub).
 * setBatchCapacity(1) is per-event delivery. Sinks that
 * requiresSynchronousDelivery() bypass the batch and get every event
 * inline through handle(); with no other sink attached, no event is
 * copied into a batch. In thread-safe mode each thread fills its own
 * lock-free batch and the sink mutex is taken once per flush (each
 * ThreadId must be driven by at most one OS thread, as every workload
 * here does).
 *
 * Delivery is always synchronous, on the thread that issued the event
 * (or called drain()); overlapping detection with the application is
 * pmdbd's job. Batches flush in stream order, so detector results for
 * a single-threaded stream are bit-identical at every capacity
 * (tests/test_dispatch.cc). Multi-threaded streams keep exact
 * per-thread order; cross-thread interleaving is at batch granularity,
 * which is no less deterministic than the scheduler-chosen order of a
 * per-event mutex.
 */

#ifndef PMDB_TRACE_RUNTIME_HH
#define PMDB_TRACE_RUNTIME_HH

#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "trace/batch.hh"
#include "trace/event.hh"
#include "trace/read_set.hh"
#include "trace/sink.hh"

namespace pmdb
{

/**
 * Dispatches instrumented PM operations to attached sinks.
 *
 * Sinks are non-owning observers; the caller keeps them alive while
 * attached. Events still buffered when the runtime is destroyed are
 * discarded (sinks declared after it are gone by then): read a sink's
 * results after drain() or programEnd(). By default the runtime is
 * single-threaded; setThreadSafe(true) is for the Fig 10 scalability
 * experiment.
 */
class PmRuntime
{
  public:
    PmRuntime();

    PmRuntime(const PmRuntime &) = delete;
    PmRuntime &operator=(const PmRuntime &) = delete;

    /** Attach an event consumer (drains pending events first). */
    void attach(TraceSink *sink);

    /** Detach a previously attached consumer (drains first). */
    void detach(TraceSink *sink);

    /** Allow dispatch from several threads; switching drains first. */
    void setThreadSafe(bool on);

    /** @name Dispatch pipeline configuration. */
    /** @{ */

    /** Batch capacity (drains, then resizes); 1 is per-event. */
    void setBatchCapacity(std::size_t capacity);

    /**
     * Alias kept only for the repository benchmark's batched-dispatch
     * probe; delete it together with that probe.
     */
    void setBatched(bool on)
    {
        setBatchCapacity(on ? defaultBatchCapacity : 1);
    }

    /**
     * Flush every pending batch. After drain() returns, every sink has
     * observed every event issued before the call.
     */
    void drain();

    /** @} */

    /**
     * Mark one application-level operation (a request, an insert).
     * When a DBI-based sink is attached, this charges the operation's
     * share of binary-translation overhead — modelling that Valgrind
     * slows down *all* guest instructions, not just PM accesses.
     * Without a DBI sink this is (nearly) free.
     */
    void appOp(std::uint32_t weight = 1);

    /**
     * Calibrate the DBI cost model (spin units; see appOp).
     *
     * @p per_event is the clean-call charge: the register save/restore
     * and callout that unbuffered instrumentation pays on *every*
     * event (and synchronous sinks still do), and that buffered
     * dispatch pays once per drained buffer. @p per_append is the short inline buffer-append
     * stub that buffered instrumentation pays per event instead — the
     * few translated instructions that spill an event record into the
     * trace buffer (cf. trace-buffer designs such as drcachesim's).
     */
    void
    setDbiCosts(std::uint32_t per_event, std::uint32_t per_app_op,
                std::uint32_t per_append = 4)
    {
        dbiEventCost_ = per_event;
        dbiOpCost_ = per_app_op;
        dbiAppendCost_ = per_append;
    }

    /** @name Instrumented operations (Section 2.1 / Table 2). */
    /** @{ */

    /** A store of @p size bytes at @p addr in persistent memory. */
    void store(Addr addr, std::uint32_t size, ThreadId thread = 0);

    /**
     * An instrumented load of [addr, addr+size). Only multi-writer
     * shared-pool programs emit Load events (per-session detection is
     * load-free, matching the paper); the cross-session engine needs
     * them to see when one writer observes another's data. Also feeds
     * the read-set tracker when one is installed.
     */
    void load(Addr addr, std::uint32_t size, ThreadId thread = 0);

    /** A cache-line writeback covering [addr, addr+size). */
    void flush(Addr addr, std::uint32_t size,
               FlushKind kind = FlushKind::Clwb, ThreadId thread = 0);

    /** An SFENCE: completes pending writebacks, orders persists. */
    void fence(ThreadId thread = 0);

    /** Epoch section begin (TX_BEGIN). */
    void epochBegin(ThreadId thread = 0);

    /** Epoch section end (TX_END); emits the section's closing barrier. */
    void epochEnd(ThreadId thread = 0);

    /** Strand section begin; subsequent events of @p thread carry @p strand. */
    void strandBegin(StrandId strand, ThreadId thread = 0);

    /** Strand section end. */
    void strandEnd(StrandId strand, ThreadId thread = 0);

    /** Explicit ordering join across strands. */
    void joinStrand(ThreadId thread = 0);

    /** Undo-log append for the object at [addr, addr+size). */
    void txLog(Addr addr, std::uint32_t size, ThreadId thread = 0);

    /**
     * Register a persistent region / named variable for debugging
     * (Register_pmem of Table 2). Named variables let the order-spec
     * configuration refer to program symbols.
     */
    void registerPmem(const std::string &name, Addr addr,
                      std::uint32_t size, ThreadId thread = 0);

    /** Signal end of program; drains, and sinks run finalize rules. */
    void programEnd();

    /** @} */

    /** @name Program-site annotation (fix advisories). */
    /** @{ */

    /**
     * Enter a named program site for @p thread. While a site is open,
     * every event the thread issues carries the site's interned name in
     * Event::nameId (RegisterPmem keeps the variable name; ProgramEnd
     * stays anonymous). Sites are the advisory engine's join key: a
     * stable "file.cc:function.step" label that survives seed, thread
     * count, and mix variation, so verified per-trace patches can be
     * clustered back to the program location that needs the fix.
     * Nesting is allowed; the innermost open site wins. Detectors
     * ignore nameId on non-RegisterPmem events and fingerprints never
     * include it, so annotating a workload changes no report.
     */
    void siteEnter(const std::string &name, ThreadId thread = 0);

    /** Leave the innermost open site of @p thread. */
    void siteLeave(ThreadId thread = 0);

    /** Interned name of the innermost open site; noName if none. */
    std::uint32_t siteOf(ThreadId thread) const;

    /** @} */

    /** @name Read-set annotation (crash-state model checking). */
    /** @{ */

    /**
     * Install (or remove, with nullptr) a read-set tracker. While one
     * is installed, instrumented reads (PmemPool::readBytes) record
     * the cache lines they touch — the model checker uses the recovery
     * execution's read set to prune crash candidates that cannot
     * change recovery's behavior. Reads are not events: they carry no
     * sequence number and are never dispatched to sinks (matching the
     * paper's load-free instrumentation).
     */
    void setReadTracker(ReadSet *tracker) { readTracker_ = tracker; }

    /** Record a read of [addr, addr+size); no-op without a tracker. */
    void
    noteRead(Addr addr, std::size_t size)
    {
        if (readTracker_)
            readTracker_->note(addr, size);
    }

    /** @} */

    /** @name Shared-pool global clock (cross-session detection). */
    /** @{ */

    /**
     * Arm a one-shot global-clock ticket: the *next* dispatched event
     * carries @p ticket in Event::global, after which the stamp resets
     * to zero. SharedPmemPool draws the ticket from the pool's global
     * fence clock *before* mutating shared memory and arms it here, so
     * the cross-writer order of tickets can never invert the order of
     * the memory operations they describe. Shared-pool programs drive
     * the runtime from one thread, so the stamp needs no
     * synchronization (it pairs with the operation issued on the same
     * call stack).
     */
    void setNextGlobal(SeqNum ticket) { nextGlobal_ = ticket; }

    /** @} */

    /** Total events dispatched so far. */
    SeqNum eventCount() const { return seq_; }

    const NameTable &names() const { return names_; }

    /** Open strand of @p thread; noStrand outside strand sections. */
    StrandId strandOf(ThreadId thread) const;

  private:
    /** Threads whose strand state lives in the lock-free array. */
    static constexpr ThreadId maxTrackedThreads = 256;

    void dispatch(Event event);
    /** Dispatch through batch_; caller holds mutex_ if thread-safe. */
    void enqueueLocked(Event &event);
    /** Dispatch through the calling thread's lock-free batch. */
    void dispatchThreadSafe(Event &event);
    SeqNum nextSeq();
    /** handle() @p event on every synchronous sink. */
    void deliverSync(const Event &event);
    /** Append @p event to @p batch; true when the batch must flush. */
    bool buffer(EventBatch &batch, const Event &event);
    /** Deliver and empty @p batch; caller holds mutex_ if thread-safe. */
    void deliverAndClear(EventBatch &batch);
    /** Deliver a pending batch, taking the sink mutex once for it. */
    void flushBatch(EventBatch &batch);
    void deliver(const Event *events, std::size_t count);
    /** Recompute batchSinks_/syncSinks_ after attach/detach. */
    void rebuildPartition();
    void setStrand(ThreadId thread, StrandId strand);
    static bool isBoundary(EventKind kind);
    static void dbiSpin(std::uint32_t units);

    std::vector<TraceSink *> sinks_;
    /**
     * sinks_ partitioned by delivery policy: batchSinks_ receive
     * handleBatch(); syncSinks_
     * (requiresSynchronousDelivery) always receive handle() inline at
     * dispatch, interleaved with the application.
     */
    std::vector<TraceSink *> batchSinks_;
    std::vector<TraceSink *> syncSinks_;
    /** Number of attached DBI-based sinks (total / per partition). */
    int dbiSinks_ = 0;
    int dbiBatchSinks_ = 0;
    int dbiSyncSinks_ = 0;
    std::uint32_t dbiEventCost_ = 25;
    std::uint32_t dbiOpCost_ = 400;
    /** Inline buffer-append charge per buffered event. */
    std::uint32_t dbiAppendCost_ = 4;
    NameTable names_;
    SeqNum seq_ = 0;

    /** Batch of single-threaded mode and of overflow ThreadIds. */
    EventBatch batch_;
    std::size_t batchCapacity_ = defaultBatchCapacity;
    /**
     * Per-thread accumulation batches for thread-safe dispatch,
     * created lazily by the owning thread. Only the thread
     * driving that ThreadId touches its slot while events flow; drain()
     * walks all slots and assumes producers are quiescent (workloads
     * join their threads before programEnd()).
     */
    std::array<std::unique_ptr<EventBatch>, maxTrackedThreads>
        threadBatches_;

    /**
     * Strand id of the currently open strand per thread; noStrand if
     * none. Small ThreadIds use a lock-free atomic array so the hot
     * event-building path never takes a lock; larger ids fall back to a
     * mutex-guarded map.
     */
    std::array<std::atomic<StrandId>, maxTrackedThreads> strandByThread_;
    std::unordered_map<ThreadId, StrandId> strandOverflow_;
    mutable std::mutex strandMutex_;

    /**
     * Per-thread open-site stacks (innermost last), created lazily by
     * the owning thread. Like threadBatches_, only the OS thread
     * driving a ThreadId touches its slot, so reads on the event path
     * are lock-free; overflow ThreadIds share a map guarded by
     * siteMutex_. (NameTable interning synchronizes itself.)
     */
    std::array<std::unique_ptr<std::vector<std::uint32_t>>,
               maxTrackedThreads>
        siteStacks_;
    std::unordered_map<ThreadId, std::vector<std::uint32_t>>
        siteOverflow_;
    mutable std::mutex siteMutex_;

    bool threadSafe_ = false;
    std::mutex mutex_;

    /** Non-owning read-set tracker; null outside model-check runs. */
    ReadSet *readTracker_ = nullptr;

    /** One-shot shared-pool ticket consumed by the next dispatch. */
    SeqNum nextGlobal_ = 0;
};

/**
 * RAII guard for a program site: opens @p name on construction, closes
 * it on destruction. The conventional label format is
 * "file.cc:function.step" (e.g. "hashmap_atomic.cc:insert.fill_entry").
 */
class SiteScope
{
  public:
    SiteScope(PmRuntime &runtime, const std::string &name,
              ThreadId thread = 0)
        : runtime_(runtime), thread_(thread)
    {
        runtime_.siteEnter(name, thread_);
    }

    ~SiteScope() { runtime_.siteLeave(thread_); }

    SiteScope(const SiteScope &) = delete;
    SiteScope &operator=(const SiteScope &) = delete;

  private:
    PmRuntime &runtime_;
    ThreadId thread_;
};

} // namespace pmdb

#endif // PMDB_TRACE_RUNTIME_HH
