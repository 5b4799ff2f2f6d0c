/**
 * @file
 * Tests for the batched event-dispatch pipeline: batch-capacity
 * equivalence (capacity 1, i.e. per-event delivery, and the default
 * capacity must produce bit-identical detector results), batch flush
 * points, the drain barrier under multiple producer threads,
 * per-thread strand tracking and the O(1), thread-safe NameTable.
 */

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "detectors/pmdebugger_detector.hh"
#include "pmem/device.hh"
#include "telemetry/metrics.hh"
#include "trace/recorder.hh"
#include "trace/runtime.hh"
#include "workloads/bug_suite.hh"
#include "workloads/workload.hh"

namespace pmdb
{
namespace
{

/** Everything a PMDebugger run reports, in comparable form. */
struct RunSignature
{
    std::vector<std::tuple<BugType, Addr, Addr, SeqNum>> bugs;
    std::uint64_t stores = 0;
    std::uint64_t flushes = 0;
    std::uint64_t fences = 0;
    std::uint64_t epochs = 0;
    ArrayStats array;
    TreeStats tree;

    bool
    operator==(const RunSignature &other) const
    {
        return bugs == other.bugs && stores == other.stores &&
               flushes == other.flushes && fences == other.fences &&
               epochs == other.epochs &&
               array.collectiveInvalidations ==
                   other.array.collectiveInvalidations &&
               array.recordsCollectivelyFreed ==
                   other.array.recordsCollectivelyFreed &&
               array.recordsMovedToTree ==
                   other.array.recordsMovedToTree &&
               array.recordsDroppedIndividually ==
                   other.array.recordsDroppedIndividually &&
               array.overflowStores == other.array.overflowStores &&
               array.maxUsage == other.array.maxUsage &&
               tree.insertions == other.tree.insertions &&
               tree.removals == other.tree.removals &&
               tree.reorganizations == other.tree.reorganizations &&
               tree.merges == other.tree.merges;
    }
};

RunSignature
signatureOf(const Detector &detector)
{
    RunSignature sig;
    for (const BugReport &bug : detector.bugs().bugs()) {
        sig.bugs.emplace_back(bug.type, bug.range.start, bug.range.end,
                              bug.seq);
    }
    std::sort(sig.bugs.begin(), sig.bugs.end());
    const DebuggerStats stats = detector.stats();
    sig.stores = stats.stores;
    sig.flushes = stats.flushes;
    sig.fences = stats.fences;
    sig.epochs = stats.epochs;
    sig.array = stats.array;
    sig.tree = stats.tree;
    return sig;
}

/** Run one bug-suite case under PMDebugger at the given capacity. */
RunSignature
runCaseAtCapacity(const BugCase &bug_case, std::size_t capacity,
                  bool buggy)
{
    PmRuntime runtime;
    CaseEnv env{runtime};
    env.buggy = buggy;

    DebuggerConfig config;
    config.model = bug_case.model;
    if (!bug_case.orderSpec.empty())
        config.orderSpec = OrderSpec::fromText(bug_case.orderSpec);
    PmDebuggerDetector tool(std::move(config));
    env.pmdebugger = &tool.debugger();

    runtime.attach(&tool);
    runtime.setBatchCapacity(capacity);
    bug_case.scenario(env);
    runtime.programEnd();
    tool.finalize();
    runtime.detach(&tool);
    return signatureOf(tool);
}

/**
 * Every case of the 78-case suite (buggy and correct variant) must
 * report exactly the same bugs and bookkeeping counters at batch
 * capacity 1 and at the default capacity.
 */
TEST(DispatchEquivalence, BugSuiteIdenticalAcrossModes)
{
    for (const BugCase &bug_case : bugSuite()) {
        for (const bool buggy : {true, false}) {
            const RunSignature per = runCaseAtCapacity(bug_case, 1, buggy);
            const RunSignature bat =
                runCaseAtCapacity(bug_case, defaultBatchCapacity, buggy);
            EXPECT_TRUE(per == bat)
                << "case " << bug_case.id << " (" << bug_case.name
                << "), buggy=" << buggy
                << ": default capacity != capacity 1";
        }
    }
}

/** The small fixed-seed input of the single-threaded comparisons. */
WorkloadOptions
fixedInput()
{
    WorkloadOptions options;
    options.operations = 3000;
    options.seed = 42;
    return options;
}

RunSignature
runWorkloadAtCapacity(const std::string &name, std::size_t capacity,
                      const WorkloadOptions &options = fixedInput())
{
    auto workload = makeWorkload(name);
    PmRuntime runtime;
    PmDebuggerDetector tool{[&] {
        DebuggerConfig config;
        config.model = workload->model();
        if (!workload->orderSpecText().empty())
            config.orderSpec = OrderSpec::fromText(workload->orderSpecText());
        return config;
    }()};
    runtime.attach(&tool);
    runtime.setBatchCapacity(capacity);

    workload->run(runtime, options);
    runtime.drain();
    tool.finalize();
    runtime.detach(&tool);
    return signatureOf(tool);
}

/**
 * A real data-structure workload (fence intervals, CLF patterns,
 * array/tree migration) reports identical stats at both capacities —
 * including every ArrayStats counter, which proves the batched store
 * fast path performs exactly the per-event bookkeeping.
 */
TEST(DispatchEquivalence, BTreeWorkloadIdenticalAcrossModes)
{
    const RunSignature per = runWorkloadAtCapacity("b_tree", 1);
    const RunSignature bat =
        runWorkloadAtCapacity("b_tree", defaultBatchCapacity);

    EXPECT_GT(per.stores, 0u);
    EXPECT_EQ(per.array.recordsCollectivelyFreed,
              bat.array.recordsCollectivelyFreed);
    EXPECT_EQ(per.array.maxUsage, bat.array.maxUsage);
    EXPECT_EQ(per.tree.insertions, bat.tree.insertions);
    EXPECT_TRUE(per == bat);
}

/**
 * Multi-threaded memcached under thread-safe dispatch, at the default
 * capacity and at capacity 1: every
 * worker's allocator and RegisterPmem events must carry the worker's
 * own ThreadId. Were they all emitted as ThreadId 0, workers would
 * push concurrently into ThreadId 0's lock-free batch, and the
 * corrupted stream would show up as spurious bug reports.
 */
TEST(DispatchEquivalence, MultiThreadedMemcachedBatchedIsClean)
{
    WorkloadOptions options;
    options.operations = 100000;
    options.threads = 3;
    options.setRatio = 0.5;
    options.trackPersistence = false;
    for (const std::size_t capacity : {defaultBatchCapacity,
                                       std::size_t{1}}) {
        for (const std::uint64_t seed : {1, 2, 3}) {
            options.seed = seed;
            const RunSignature sig =
                runWorkloadAtCapacity("memcached", capacity, options);
            EXPECT_GT(sig.stores, 0u);
            EXPECT_TRUE(sig.bugs.empty())
                << "capacity " << capacity << ", seed " << seed << ": "
                << sig.bugs.size() << " bugs";
        }
    }
}

TEST(DispatchPipeline, BatchedFlushesAtBoundary)
{
    PmRuntime runtime;
    TraceRecorder recorder;
    runtime.attach(&recorder);

    runtime.store(0x100, 8);
    runtime.store(0x108, 8);
    runtime.flush(0x100, 64);
    EXPECT_EQ(recorder.events().size(), 0u)
        << "stores and flushes buffer until a boundary";

    runtime.fence();
    ASSERT_EQ(recorder.events().size(), 4u)
        << "a fence is an ordering boundary and flushes the batch";
    EXPECT_EQ(recorder.events()[0].kind, EventKind::Store);
    EXPECT_EQ(recorder.events()[3].kind, EventKind::Fence);
    // Events keep their per-event sequence numbers.
    EXPECT_EQ(recorder.events()[0].seq, 1u);
    EXPECT_EQ(recorder.events()[3].seq, 4u);

    runtime.setBatchCapacity(1);
    runtime.store(0x110, 8);
    EXPECT_EQ(recorder.events().size(), 5u)
        << "capacity 1 delivers at once";
}

TEST(DispatchPipeline, BatchedFlushesAtCapacity)
{
    PmRuntime runtime;
    TraceRecorder recorder;
    runtime.attach(&recorder);
    runtime.setBatchCapacity(4);

    for (int i = 0; i < 3; ++i)
        runtime.store(0x100 + 8 * i, 8);
    EXPECT_EQ(recorder.events().size(), 0u);
    runtime.store(0x200, 8);
    EXPECT_EQ(recorder.events().size(), 4u)
        << "a full batch flushes without waiting for a boundary";
}

TEST(DispatchPipeline, DetachAndDrainFlushPendingEvents)
{
    PmRuntime runtime;
    TraceRecorder recorder;
    runtime.attach(&recorder);

    runtime.store(0x100, 8);
    EXPECT_EQ(recorder.events().size(), 0u);
    runtime.drain();
    EXPECT_EQ(recorder.events().size(), 1u);

    runtime.store(0x108, 8);
    runtime.detach(&recorder);
    EXPECT_EQ(recorder.events().size(), 2u)
        << "detach drains so no event is lost";
}

/**
 * programEnd() is a delivery barrier: once it returns, every event
 * issued before it has reached the sinks, including a partial batch
 * another (joined) producer thread left behind.
 */
TEST(DispatchPipeline, BatchedProgramEndIsADeliveryBarrier)
{
    PmRuntime runtime;
    TraceRecorder recorder;
    runtime.attach(&recorder);
    runtime.setThreadSafe(true);

    constexpr int workerStores = 100; // below capacity: one partial batch
    std::thread worker([&runtime] {
        for (int i = 0; i < workerStores; ++i)
            runtime.store(0x8000 + 8 * i, 8, /*thread=*/1);
    });
    worker.join();
    EXPECT_TRUE(recorder.events().empty())
        << "the worker's stores wait in its batch";
    for (int i = 0; i < 1000; ++i) {
        runtime.store(0x100 + 8 * (i % 64), 8);
        if (i % 64 == 63)
            runtime.fence();
    }
    runtime.programEnd();

    const auto &events = recorder.events();
    ASSERT_EQ(events.size(), workerStores + 1000u + 15u + 1u);
    std::vector<SeqNum> seqs;
    for (const Event &event : events)
        seqs.push_back(event.seq);
    std::sort(seqs.begin(), seqs.end());
    for (std::size_t i = 0; i < seqs.size(); ++i)
        ASSERT_EQ(seqs[i], i + 1) << "duplicate or missing seq";
    const auto end = std::find_if(events.begin(), events.end(),
                                  [](const Event &event) {
                                      return event.kind ==
                                             EventKind::ProgramEnd;
                                  });
    ASSERT_NE(end, events.end());
    EXPECT_EQ(end->seq, events.size()) << "ProgramEnd is issued last";
}

/**
 * programEnd() runs the detector's finalize rules, so it must first
 * deliver the partial batch a joined worker left behind: a worker's
 * never-flushed store is a bug at any batch capacity.
 */
TEST(DispatchPipeline, ProgramEndFinalizesAfterOtherThreadsBatches)
{
    const auto bugsAt = [](std::size_t capacity) {
        PmRuntime runtime;
        PmDebuggerDetector tool{DebuggerConfig{}};
        runtime.attach(&tool);
        runtime.setThreadSafe(true);
        runtime.setBatchCapacity(capacity);
        std::thread worker([&runtime] {
            runtime.store(0x8000, 8, /*thread=*/1);
        });
        worker.join();
        runtime.store(0x100, 8);
        runtime.flush(0x100, 8);
        runtime.fence();
        runtime.programEnd();
        return tool.bugs().total();
    };
    const std::size_t per = bugsAt(1);
    EXPECT_EQ(per, 1u);
    EXPECT_EQ(bugsAt(defaultBatchCapacity), per);
}

TEST(DispatchPipeline, ThreadSafeBatchedKeepsPerThreadOrder)
{
    PmRuntime runtime;
    TraceRecorder recorder;
    runtime.attach(&recorder);
    runtime.setThreadSafe(true);

    constexpr int threads = 4;
    constexpr int storesPerThread = 500;
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
        workers.emplace_back([&runtime, t] {
            for (int i = 0; i < storesPerThread; ++i) {
                runtime.store(0x1000 * (t + 1) + 8 * (i % 32), 8,
                              static_cast<ThreadId>(t));
                if (i % 32 == 31)
                    runtime.fence(static_cast<ThreadId>(t));
            }
        });
    }
    for (auto &worker : workers)
        worker.join();
    runtime.drain();

    const auto &events = recorder.events();
    EXPECT_EQ(events.size(),
              static_cast<std::size_t>(threads) *
                  (storesPerThread + storesPerThread / 32));

    // Per-thread subsequences stay in program order even though
    // cross-thread interleaving is batch-granular.
    std::vector<SeqNum> lastSeq(threads, 0);
    for (const Event &event : events) {
        ASSERT_GE(event.thread, 0);
        ASSERT_LT(event.thread, threads);
        EXPECT_GT(event.seq, lastSeq[static_cast<std::size_t>(
                                 event.thread)]);
        lastSeq[static_cast<std::size_t>(event.thread)] = event.seq;
    }
}

TEST(DispatchPipeline, OverflowThreadIdsUseTheSharedPath)
{
    PmRuntime runtime;
    TraceRecorder recorder;
    runtime.attach(&recorder);
    runtime.setThreadSafe(true);

    // ThreadIds beyond the lock-free per-thread array still dispatch
    // correctly (shared batch under the mutex).
    runtime.store(0x100, 8, 1000);
    runtime.store(0x108, 8, 1000);
    runtime.fence(1000);
    runtime.drain();
    ASSERT_EQ(recorder.events().size(), 3u);
    EXPECT_EQ(recorder.events()[0].thread, 1000);
}

/**
 * Four producer threads feed thread-safe batched dispatch through their
 * per-thread lock-free batches, across several produce/join/drain
 * rounds: every round ends with stores after the last fence, so every
 * drain must deliver partial per-thread batches; sequence numbers must
 * be unique and gap-free, and per-thread order must survive.
 */
TEST(DispatchPipeline, BatchedDrainUnderMultipleProducerThreads)
{
    PmRuntime runtime;
    TraceRecorder recorder;
    runtime.attach(&recorder);
    runtime.setThreadSafe(true);

    constexpr int threads = 4;
    constexpr int storesPerThread = 1500; // not a batch multiple
    constexpr int rounds = 3;

    for (int round = 0; round < rounds; ++round) {
        std::vector<std::thread> workers;
        for (int t = 0; t < threads; ++t) {
            workers.emplace_back([&runtime, t] {
                for (int i = 0; i < storesPerThread; ++i) {
                    runtime.store(0x1000 * (t + 1) + 8 * (i % 64), 8,
                                  static_cast<ThreadId>(t));
                    if (i % 100 == 49)
                        runtime.fence(static_cast<ThreadId>(t));
                }
            });
        }
        for (auto &worker : workers)
            worker.join();
        const auto expected =
            static_cast<std::size_t>(round + 1) * threads *
            (storesPerThread + storesPerThread / 100);
        ASSERT_LT(recorder.events().size(), expected)
            << "each thread's trailing stores wait in its batch";
        runtime.drain();

        ASSERT_EQ(recorder.events().size(), expected)
            << "drain after round " << round
            << " must deliver every event produced so far";
    }

    // Sequence numbers: unique and gap-free across all threads.
    std::vector<SeqNum> seqs;
    seqs.reserve(recorder.events().size());
    for (const Event &event : recorder.events())
        seqs.push_back(event.seq);
    std::sort(seqs.begin(), seqs.end());
    for (std::size_t i = 0; i < seqs.size(); ++i)
        ASSERT_EQ(seqs[i], i + 1) << "duplicate or missing seq";

    // Per-thread subsequences keep program order.
    std::vector<SeqNum> lastSeq(threads, 0);
    for (const Event &event : recorder.events()) {
        ASSERT_GE(event.thread, 0);
        ASSERT_LT(event.thread, threads);
        const auto t = static_cast<std::size_t>(event.thread);
        EXPECT_GT(event.seq, lastSeq[t]);
        lastSeq[t] = event.seq;
    }
}

/** Counts handleBatch() calls and the events they carry. */
class BatchCounter : public TraceSink
{
  public:
    void handle(const Event &) override { ++events; }

    void
    handleBatch(const Event *, std::size_t count) override
    {
        ++calls;
        events += count;
        largest = std::max(largest, count);
    }

    std::size_t calls = 0;
    std::size_t events = 0;
    std::size_t largest = 0;
};

/**
 * Batching is the default: a runtime nobody configured feeds a batch
 * sink whole runs of events per handleBatch() call.
 */
TEST(DispatchPipeline, DefaultRuntimeDeliversMultiEventBatches)
{
    PmRuntime runtime;
    BatchCounter counter;
    runtime.attach(&counter);
    for (int i = 0; i < 64; ++i)
        runtime.store(0x100 + 8 * i, 8);
    runtime.flush(0x100, 512);
    runtime.fence();
    runtime.programEnd();

    EXPECT_EQ(counter.events, 64u + 2u + 1u);
    EXPECT_GT(counter.largest, 1u);
    EXPECT_LT(counter.calls, counter.events);
}

std::uint64_t
batchesDelivered()
{
    return telemetry::Registry::global()
        .histogram("client.batch_fill")
        .snapshot()
        .count;
}

/**
 * With only synchronous sinks attached (pmdbd clients, device-only
 * runs), events go to handle() inline and never into a batch: no batch
 * is ever delivered, single-threaded or thread-safe.
 */
TEST(DispatchPipeline, SyncOnlyRuntimeNeverFillsItsBatch)
{
    telemetry::setEnabled(true);
    const std::uint64_t before = batchesDelivered();

    PmRuntime runtime;
    PmemDevice device(1 << 16);
    runtime.attach(&device);
    for (int i = 0; i < 600; ++i) // more than one batch's worth
        runtime.store(0x100 + 8 * (i % 64), 8);
    runtime.fence();
    runtime.setThreadSafe(true);
    std::thread worker([&runtime] {
        for (int i = 0; i < 600; ++i)
            runtime.store(0x1000 + 8 * (i % 64), 8, /*thread=*/1);
        runtime.fence(/*thread=*/1);
    });
    worker.join();
    runtime.setThreadSafe(false);
    runtime.programEnd();

    EXPECT_EQ(runtime.eventCount(), 600u + 1u + 600u + 1u + 1u);
    EXPECT_EQ(batchesDelivered(), before)
        << "a batch nothing reads must stay empty";
}

TEST(StrandTracking, PerThreadStrandsDoNotInterfere)
{
    PmRuntime runtime;
    TraceRecorder recorder;
    runtime.attach(&recorder);

    runtime.strandBegin(7, /*thread=*/1);
    runtime.store(0x100, 8, /*thread=*/1);
    runtime.store(0x200, 8, /*thread=*/2); // no strand open on thread 2
    runtime.strandBegin(9, /*thread=*/2);
    runtime.store(0x208, 8, /*thread=*/2);
    runtime.strandEnd(7, /*thread=*/1);
    runtime.store(0x108, 8, /*thread=*/1); // strand closed again
    runtime.drain();

    const auto &events = recorder.events();
    ASSERT_EQ(events.size(), 7u);
    EXPECT_EQ(events[1].strand, 7);
    EXPECT_EQ(events[2].strand, noStrand)
        << "thread 2 must not see thread 1's open strand";
    EXPECT_EQ(events[4].strand, 9);
    EXPECT_EQ(events[6].strand, noStrand);

    EXPECT_EQ(runtime.strandOf(2), 9);
    EXPECT_EQ(runtime.strandOf(1), noStrand);
}

TEST(StrandTracking, OverflowThreadIdsTrackStrandsToo)
{
    PmRuntime runtime;
    TraceRecorder recorder;
    runtime.attach(&recorder);

    runtime.strandBegin(3, /*thread=*/5000);
    runtime.store(0x100, 8, /*thread=*/5000);
    runtime.drain();
    ASSERT_EQ(recorder.events().size(), 2u);
    EXPECT_EQ(recorder.events()[1].strand, 3);
    EXPECT_EQ(runtime.strandOf(5000), 3);
    runtime.strandEnd(3, /*thread=*/5000);
    EXPECT_EQ(runtime.strandOf(5000), noStrand);
}

/**
 * Worker threads intern fresh site names while another thread resolves
 * ids (as a sink does for RegisterPmem): every lookup must return the
 * name the id was interned for, and references handed out earlier must
 * stay valid while the table grows.
 */
TEST(NameTableTest, ConcurrentInternAndLookup)
{
    NameTable names;
    const std::uint32_t first = names.intern("first");
    const std::string &pinned = names.name(first);

    constexpr int writers = 4;
    constexpr int namesPerWriter = 2000;
    std::atomic<int> done{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < writers; ++t) {
        threads.emplace_back([&names, &done, t] {
            for (int i = 0; i < namesPerWriter; ++i) {
                const std::string name =
                    std::to_string(t) + ".w" + std::to_string(i);
                const std::uint32_t id = names.intern(name);
                EXPECT_EQ(names.name(id), name);
            }
            done.fetch_add(1);
        });
    }
    do {
        const std::size_t size = names.size();
        for (std::uint32_t id = 0; id < size; id += 7)
            EXPECT_FALSE(names.name(id).empty());
    } while (done.load() < writers);
    for (auto &thread : threads)
        thread.join();

    EXPECT_EQ(pinned, "first");
    EXPECT_EQ(names.name(names.intern("3.w1999")), "3.w1999");
    EXPECT_EQ(names.size(), 1u + writers * namesPerWriter);
}

TEST(NameTableTest, InternIsStableAndDeduplicates)
{
    NameTable names;
    std::vector<std::uint32_t> ids;
    for (int i = 0; i < 10000; ++i)
        ids.push_back(names.intern("var" + std::to_string(i)));
    for (int i = 0; i < 10000; ++i) {
        EXPECT_EQ(names.intern("var" + std::to_string(i)),
                  ids[static_cast<std::size_t>(i)]);
        EXPECT_EQ(names.name(ids[static_cast<std::size_t>(i)]),
                  "var" + std::to_string(i));
    }
    EXPECT_EQ(names.size(), 10000u);
}

} // namespace
} // namespace pmdb
