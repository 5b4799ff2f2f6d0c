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
 * Dispatch runs in one of three modes (setDispatchMode):
 *
 *  - PerEvent (default): every event is delivered to every sink
 *    immediately — the seed behavior, required by sinks whose state is
 *    queried synchronously between events (PMTest annotations,
 *    XFDetector cross-failure verifiers reading the device image).
 *  - Batched: events accumulate in a fixed-capacity EventBatch and are
 *    flushed to sinks when the batch fills, at every ordering boundary
 *    (fence / epoch / strand / join / register / program-end), and at
 *    attach()/detach()/drain(). One virtual handleBatch() per sink per
 *    batch replaces one virtual handle() per sink per event, and the
 *    DBI cost model charges its per-event clean call once per batch
 *    (buffered instrumentation: events pay only a short inline
 *    buffer-append stub). In thread-safe mode each
 *    thread accumulates into its own lock-free batch and the sink mutex
 *    is taken once per batch flush instead of once per event (each
 *    ThreadId must be driven by at most one OS thread, which is how
 *    every workload in this repository uses the API).
 *  - Async: batches are published to a fixed-size ring and drained by a
 *    consumer thread, overlapping detection with workload execution.
 *    Async batches flush only at capacity and at drain() — sink state
 *    is coherent only at drain points anyway, so per-boundary publishes
 *    would buy nothing but condition-variable traffic. drain() (called
 *    by programEnd()) is the blocking barrier.
 *
 * Because batches are flushed in stream order and each sink receives
 * events in exactly per-event order, detector results for any
 * single-threaded event stream are bit-identical across the three
 * modes (tests/test_dispatch.cc asserts this). Multi-threaded streams
 * keep per-thread event order but deliver cross-thread interleavings
 * at batch rather than event granularity.
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

/** How PmRuntime delivers events to its sinks. */
enum class DispatchMode
{
    /** Deliver each event immediately (seed semantics). */
    PerEvent,
    /** Accumulate into an EventBatch; flush at capacity/boundaries. */
    Batched,
    /** Batched, with delivery on a consumer thread (SPSC ring). */
    Async,
};

const char *toString(DispatchMode mode);

/**
 * Dispatches instrumented PM operations to attached sinks.
 *
 * Sinks are non-owning observers; the caller keeps them alive for the
 * lifetime of the runtime. By default the runtime is single-threaded;
 * setThreadSafe(true) serializes dispatch with a mutex, mirroring how
 * Valgrind serializes guest threads (used by the Fig 10 scalability
 * experiment).
 */
class PmRuntime
{
  public:
    PmRuntime();
    ~PmRuntime();

    PmRuntime(const PmRuntime &) = delete;
    PmRuntime &operator=(const PmRuntime &) = delete;

    /** Attach an event consumer (drains pending events first). */
    void attach(TraceSink *sink);

    /** Detach a previously attached consumer (drains first). */
    void detach(TraceSink *sink);

    /** Serialize event dispatch across threads. */
    void setThreadSafe(bool on) { threadSafe_ = on; }

    /** @name Dispatch pipeline configuration. */
    /** @{ */

    /** Select the dispatch mode; switching drains pending events. */
    void setDispatchMode(DispatchMode mode);

    /** Convenience: toggle Batched mode (off returns to PerEvent). */
    void setBatched(bool on)
    {
        setDispatchMode(on ? DispatchMode::Batched
                           : DispatchMode::PerEvent);
    }

    /**
     * Toggle the async pipeline: batches drain on a consumer thread so
     * detection overlaps workload execution. Turning async off falls
     * back to synchronous Batched mode.
     */
    void setAsync(bool on)
    {
        setDispatchMode(on ? DispatchMode::Async : DispatchMode::Batched);
    }

    /** Batch capacity for Batched/Async modes (drains, then resizes). */
    void setBatchCapacity(std::size_t capacity);

    DispatchMode dispatchMode() const { return mode_; }

    /**
     * Flush the pending batch and, in Async mode, block until the
     * consumer thread has delivered everything published so far. After
     * drain() returns, every sink has observed every event issued
     * before the call. No-op in PerEvent mode.
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
     * event, and that buffered (Batched/Async) dispatch pays once per
     * drained buffer. @p per_append is the short inline buffer-append
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
                      std::uint32_t size);

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
    /** Bounded SPSC pipe + consumer thread for Async mode. */
    struct AsyncPipe;

    /** Threads whose strand state lives in the lock-free array. */
    static constexpr ThreadId maxTrackedThreads = 256;

    void dispatch(Event event);
    void enqueueLocked(Event &event);
    void dispatchBatchedThreadSafe(Event &event);
    void flushLocked();
    /** Deliver a per-thread batch: sink mutex once for the whole batch. */
    void flushThreadBatch(EventBatch &batch);
    /** Lock-free per-thread batch; null for overflow ThreadIds. */
    EventBatch *threadBatchFor(ThreadId thread);
    void deliver(const Event *events, std::size_t count);
    /** Recompute batchSinks_/syncSinks_ after attach/detach. */
    void rebuildPartition();
    void setStrand(ThreadId thread, StrandId strand);
    static bool isBoundary(EventKind kind);
    static void dbiSpin(std::uint32_t units);

    std::vector<TraceSink *> sinks_;
    /**
     * sinks_ partitioned by delivery policy: batchSinks_ receive
     * handleBatch() in Batched/Async mode; syncSinks_
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
    /** Inline buffer-append charge per event in Batched/Async modes. */
    std::uint32_t dbiAppendCost_ = 4;
    NameTable names_;
    SeqNum seq_ = 0;

    DispatchMode mode_ = DispatchMode::PerEvent;
    EventBatch batch_;
    std::size_t batchCapacity_ = defaultBatchCapacity;
    /**
     * Per-thread accumulation batches for thread-safe Batched/Async
     * dispatch, created lazily by the owning thread. Only the thread
     * driving that ThreadId touches its slot while events flow; drain()
     * walks all slots and assumes producers are quiescent (workloads
     * join their threads before programEnd()).
     */
    std::array<std::unique_ptr<EventBatch>, maxTrackedThreads>
        threadBatches_;
    std::unique_ptr<AsyncPipe> pipe_;

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
     * are lock-free; overflow ThreadIds share a mutex-guarded map.
     * NameTable interning (siteEnter and registerPmem) is serialized
     * by siteMutex_ because worker threads open sites concurrently.
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
