/**
 * @file
 * Tests for multi-writer shared-pool detection: the SharedPmemPool
 * device semantics and header validation, the cross-session rule
 * engine, and the daemon's merged two-writer verdicts — including the
 * two guarantees the subsystem exists for: the seeded shared_queue
 * bugs are visible *only* to the cross-session engine (each writer's
 * own session stays clean), and the merged verdict is bit-identical
 * across daemon worker counts.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "common/rng.hh"
#include "crossproc/engine.hh"
#include "crossproc/rules.hh"
#include "pmem/shared_device.hh"
#include "service/daemon.hh"
#include "service/remote_sink.hh"
#include "workloads/shared_queue.hh"

namespace pmdb
{
namespace
{

std::atomic<int> pathCounter{0};

/** Unique per-test scratch path (pid-qualified; see test_service.cc). */
std::string
scratchPath(const std::string &stem)
{
    return ::testing::TempDir() + "pmdb_xp_" +
           std::to_string(::getpid()) + "_" + stem + "_" +
           std::to_string(pathCounter.fetch_add(1));
}

/** Hand-built shared-pool event for driving CrossRuleEngine. */
Event
mk(EventKind kind, Addr addr, std::uint32_t size, SeqNum global)
{
    Event event;
    event.kind = kind;
    event.addr = addr;
    event.size = size;
    event.seq = global;
    event.global = global;
    return event;
}

/**
 * A client's Hello::sharedPoolPath reaches pmdbd's --json aggregate
 * through CrossGroupResult::toJson: control bytes in it must come out
 * escaped, or the aggregate is not valid JSON.
 */
TEST(CrossGroupResultTest, ToJsonEscapesControlBytes)
{
    CrossGroupResult group;
    group.pool = "a\nb\x01\"c\\";
    group.writers = {1, 2};
    const std::string json = group.toJson();
    for (const char c : json) {
        EXPECT_GE(static_cast<unsigned char>(c), 0x20)
            << "raw control byte in " << json;
    }
    EXPECT_EQ(json, "{\"pool\": \"a\\nb\\u0001\\\"c\\\\\", "
                    "\"writers\": [1, 2], \"events_replayed\": 0, "
                    "\"cross_bugs\": []}");
}

// --- CrossRuleEngine unit tests ------------------------------------

TEST(CrossRuleEngineTest, ReadOfOtherWritersDirtyLineIsABug)
{
    CrossRuleEngine engine;
    engine.feed(1, mk(EventKind::Store, 0x0, 64, 1));
    engine.feed(2, mk(EventKind::Load, 0x0, 8, 2));
    engine.finish();
    ASSERT_EQ(engine.bugs().size(), 1u);
    EXPECT_EQ(engine.bugs()[0].type,
              CrossBugType::UnflushedCrossWriterRead);
    EXPECT_EQ(engine.bugs()[0].ownerWriter, 1u);
    EXPECT_EQ(engine.bugs()[0].observerWriter, 2u);
}

TEST(CrossRuleEngineTest, ReadOfDurableOrOwnDataIsQuiet)
{
    CrossRuleEngine engine;
    // Durable: store, flush, fence by w1, then w2 reads.
    engine.feed(1, mk(EventKind::Store, 0x0, 64, 1));
    engine.feed(1, mk(EventKind::Flush, 0x0, 64, 2));
    engine.feed(1, mk(EventKind::Fence, 0, 0, 3));
    engine.feed(2, mk(EventKind::Load, 0x0, 8, 4));
    // Own dirty data: w2 stores then reads its own line.
    engine.feed(2, mk(EventKind::Store, 0x1000, 64, 5));
    engine.feed(2, mk(EventKind::Load, 0x1000, 8, 6));
    engine.finish();
    EXPECT_TRUE(engine.bugs().empty());
}

TEST(CrossRuleEngineTest, PublishBeforePersistFiresAtReadersFence)
{
    CrossRuleEngine engine;
    // w1 flushes but never fences the entry; w2 reads it, publishes
    // its own store, and fences.
    engine.feed(1, mk(EventKind::Store, 0x0, 64, 1));
    engine.feed(1, mk(EventKind::Flush, 0x0, 64, 2));
    engine.feed(2, mk(EventKind::Load, 0x0, 8, 3));
    engine.feed(2, mk(EventKind::Store, 0x1000, 8, 4));
    engine.feed(2, mk(EventKind::Flush, 0x1000, 64, 5));
    engine.feed(2, mk(EventKind::Fence, 0, 0, 6));
    engine.finish();
    ASSERT_EQ(engine.bugs().size(), 1u);
    EXPECT_EQ(engine.bugs()[0].type,
              CrossBugType::PublishBeforePersist);
    EXPECT_EQ(engine.bugs()[0].ticket, 6u);
}

TEST(CrossRuleEngineTest, SourceFencedFirstSatisfiesTheDependency)
{
    CrossRuleEngine engine;
    engine.feed(1, mk(EventKind::Store, 0x0, 64, 1));
    engine.feed(1, mk(EventKind::Flush, 0x0, 64, 2));
    engine.feed(2, mk(EventKind::Load, 0x0, 8, 3));
    engine.feed(2, mk(EventKind::Store, 0x1000, 8, 4));
    engine.feed(1, mk(EventKind::Fence, 0, 0, 5)); // source durable
    engine.feed(2, mk(EventKind::Flush, 0x1000, 64, 6));
    engine.feed(2, mk(EventKind::Fence, 0, 0, 7));
    engine.finish();
    EXPECT_TRUE(engine.bugs().empty());
}

TEST(CrossRuleEngineTest, LoadWithoutLaterPublishIsQuiet)
{
    CrossRuleEngine engine;
    engine.feed(1, mk(EventKind::Store, 0x0, 64, 1));
    engine.feed(1, mk(EventKind::Flush, 0x0, 64, 2));
    engine.feed(2, mk(EventKind::Load, 0x0, 8, 3));
    engine.feed(2, mk(EventKind::Fence, 0, 0, 4)); // nothing published
    engine.finish();
    EXPECT_TRUE(engine.bugs().empty());
}

TEST(CrossRuleEngineTest, StoreIntoOpenForeignEpochIsABug)
{
    CrossRuleEngine engine;
    engine.feed(1, mk(EventKind::EpochBegin, 0, 0, 1));
    engine.feed(1, mk(EventKind::Store, 0x0, 64, 2));
    engine.feed(2, mk(EventKind::Store, 0x8, 8, 3)); // same line
    engine.feed(1, mk(EventKind::EpochEnd, 0, 0, 4));
    engine.finish();
    ASSERT_EQ(engine.bugs().size(), 1u);
    EXPECT_EQ(engine.bugs()[0].type, CrossBugType::EpochOverlap);
}

TEST(CrossRuleEngineTest, StoreAfterForeignEpochClosesIsQuiet)
{
    CrossRuleEngine engine;
    engine.feed(1, mk(EventKind::EpochBegin, 0, 0, 1));
    engine.feed(1, mk(EventKind::Store, 0x0, 64, 2));
    engine.feed(1, mk(EventKind::EpochEnd, 0, 0, 3));
    engine.feed(2, mk(EventKind::Store, 0x8, 8, 4));
    // A *new* epoch of w1 must not resurrect the old touch marks.
    engine.feed(1, mk(EventKind::EpochBegin, 0, 0, 5));
    engine.feed(2, mk(EventKind::Store, 0x10, 8, 6));
    engine.feed(1, mk(EventKind::EpochEnd, 0, 0, 7));
    engine.finish();
    EXPECT_TRUE(engine.bugs().empty());
}

// --- SharedPmemPool device semantics -------------------------------

TEST(SharedPmemPoolTest, TwoMappingsShareVolatileAndDurableState)
{
    const std::string path = scratchPath("pool");
    std::string error;
    ASSERT_TRUE(SharedPmemPool::createPoolFile(path, 4096, &error))
        << error;

    PmRuntime rt1, rt2;
    SharedPmemPool w1(rt1, path, 1);
    SharedPmemPool w2(rt2, path, 2);
    ASSERT_TRUE(w1.valid()) << w1.error();
    ASSERT_TRUE(w2.valid()) << w2.error();

    // w1's store is immediately visible to w2's uninstrumented peek.
    w1.store<std::uint64_t>(0x40, 0xDEADBEEFull);
    EXPECT_EQ(w2.peek<std::uint64_t>(0x40), 0xDEADBEEFull);

    // ...but not durable: the crash image still reads zero.
    const AddrRange range = AddrRange::fromSize(0x40, 8);
    EXPECT_TRUE(w1.hasDirty(range));
    EXPECT_FALSE(w1.isDurable(range));
    EXPECT_EQ(w2.crashImage()[0x40], 0u);

    // w2's fence must NOT complete w1's writeback.
    w1.flush(0x40, 8);
    w2.fence();
    EXPECT_TRUE(w1.hasPendingFlush(range));
    EXPECT_FALSE(w1.isDurable(range));

    // w1's own fence does.
    w1.fence();
    EXPECT_TRUE(w2.isDurable(range));
    EXPECT_EQ(w2.crashImage()[0x40], 0xEFu);

    // Tickets were drawn monotonically and are visible to both.
    EXPECT_GT(w1.clockNow(), 0u);
    EXPECT_EQ(w1.clockNow(), w2.clockNow());

    std::remove(path.c_str());
}

TEST(SharedPmemPoolTest, OperationsStampEventsWithGlobalTickets)
{
    const std::string path = scratchPath("poolstamp");
    std::string error;
    ASSERT_TRUE(SharedPmemPool::createPoolFile(path, 4096, &error))
        << error;

    struct Capture : TraceSink
    {
        std::vector<Event> events;
        void handle(const Event &event) override
        {
            events.push_back(event);
        }
    } capture;

    PmRuntime runtime;
    runtime.attach(&capture);
    SharedPmemPool pool(runtime, path, 1);
    ASSERT_TRUE(pool.valid()) << pool.error();

    pool.store<std::uint64_t>(0x0, 7);
    pool.load<std::uint64_t>(0x0);
    pool.persist(0x0, 8);
    pool.coordStore(0, 99); // uninstrumented: no event, no ticket

    // RegisterPmem (unticketed, from the constructor) + store, load,
    // flush, fence — each ticketed in draw order.
    ASSERT_EQ(capture.events.size(), 5u);
    EXPECT_EQ(capture.events[0].kind, EventKind::RegisterPmem);
    EXPECT_EQ(capture.events[0].global, 0u);
    SeqNum last = 0;
    for (std::size_t i = 1; i < capture.events.size(); ++i) {
        EXPECT_NE(capture.events[i].global, 0u);
        EXPECT_GT(capture.events[i].global, last);
        last = capture.events[i].global;
    }
    EXPECT_EQ(capture.events[1].kind, EventKind::Store);
    EXPECT_EQ(capture.events[2].kind, EventKind::Load);
    EXPECT_EQ(pool.clockNow(), 4u);

    std::remove(path.c_str());
}

/** Overwrite @p size bytes of the file at @p path at @p offset. */
void
patchFile(const std::string &path, off_t offset, const void *bytes,
          std::size_t size)
{
    const int fd = ::open(path.c_str(), O_WRONLY);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::pwrite(fd, bytes, size, offset),
              static_cast<ssize_t>(size));
    ::close(fd);
}

/** Header bytes 8..16 hold the pool's data size. */
constexpr off_t dataSizeOffset = 8;

TEST(SharedPmemPoolTest, RejectsHeaderTheFileDoesNotBack)
{
    const std::string path = scratchPath("poolbad");
    std::string error;
    PmRuntime runtime;

    // A truncated file: the header promises images it no longer has.
    ASSERT_TRUE(SharedPmemPool::createPoolFile(path, 4096, &error))
        << error;
    ASSERT_EQ(::truncate(path.c_str(), 4096), 0);
    {
        SharedPmemPool pool(runtime, path, 1);
        EXPECT_FALSE(pool.valid());
        EXPECT_FALSE(pool.error().empty());
    }

    // An intact file whose header claims twice its data size.
    ASSERT_TRUE(SharedPmemPool::createPoolFile(path, 4096, &error))
        << error;
    const std::uint64_t doubled = 2 * 4096;
    patchFile(path, dataSizeOffset, &doubled, sizeof(doubled));
    {
        SharedPmemPool pool(runtime, path, 1);
        EXPECT_FALSE(pool.valid());
        EXPECT_FALSE(pool.error().empty());
    }

    std::remove(path.c_str());
}

TEST(SharedPmemPoolTest, SeededHeaderMutantsOpenOrFailCleanly)
{
    // Mutate only the magic and the data size: the clock, lock word
    // and coordination words are live state, and a set lock word
    // legitimately makes writers wait. Every mutant either opens onto
    // a mapping the file backs end to end, or fails with an error.
    const std::string path = scratchPath("poolfuzz");
    std::string error;
    ASSERT_TRUE(SharedPmemPool::createPoolFile(path, 4096, &error))
        << error;
    char seed[16];
    {
        const int fd = ::open(path.c_str(), O_RDONLY);
        ASSERT_GE(fd, 0);
        ASSERT_EQ(::pread(fd, seed, sizeof(seed), 0),
                  static_cast<ssize_t>(sizeof(seed)));
        ::close(fd);
    }

    Rng rng(0x5a1ed9001);
    int opened = 0;
    int rejected = 0;
    for (int round = 0; round < 300; ++round) {
        char mutant[16];
        std::memcpy(mutant, seed, sizeof(mutant));
        if (rng.nextBool(0.5)) {
            // A few random bytes anywhere in the magic and data size.
            for (int k = 1 + static_cast<int>(rng.nextBounded(3)); k > 0;
                 --k) {
                mutant[rng.nextBounded(sizeof(mutant))] =
                    static_cast<char>(rng.nextBounded(256));
            }
        } else {
            // A data size near the real one, in lines or in bytes.
            std::uint64_t size = 0;
            std::memcpy(&size, mutant + dataSizeOffset, sizeof(size));
            const std::uint64_t step = rng.nextBool(0.5) ? 64 : 1;
            size = size - 2 * step + rng.nextBounded(5) * step;
            std::memcpy(mutant + dataSizeOffset, &size, sizeof(size));
        }
        patchFile(path, 0, mutant, sizeof(mutant));

        PmRuntime runtime;
        SharedPmemPool pool(runtime, path, 1);
        if (pool.valid()) {
            // Touch the last data line and the durable image behind it.
            const Addr last = pool.size() - 8;
            pool.store<std::uint64_t>(last, 0xabcdef);
            pool.persist(last, 8);
            EXPECT_EQ(pool.peek<std::uint64_t>(last), 0xabcdefu)
                << "round " << round;
            EXPECT_EQ(pool.crashImage().size(), pool.size())
                << "round " << round;
            ++opened;
        } else {
            EXPECT_FALSE(pool.error().empty()) << "round " << round;
            ++rejected;
        }
    }
    EXPECT_GT(opened, 0);
    EXPECT_GT(rejected, 0);

    std::remove(path.c_str());
}

// --- End-to-end: two writers through a daemon ----------------------

struct PairRun
{
    /** CrossBug::toString() lines, in replay order. */
    std::vector<std::string> crossBugs;
    std::uint64_t merged = 0;
    std::size_t groups = 0;
    /** Per-session (per-writer) daemon reports. */
    std::vector<std::string> producerBugs;
    std::vector<std::string> consumerBugs;
};

/**
 * Run the two shared_queue writers concurrently through an in-process
 * daemon. With @p announcePool false the writers still share the pool
 * file but do not announce it in their Hello, so the daemon treats
 * them as unrelated sessions — the negative control proving the
 * seeded bugs are invisible to per-session detection.
 */
PairRun
runSharedPair(const std::string &fault, std::size_t workers,
              std::size_t ops, bool announcePool = true)
{
    ServiceConfig config;
    config.socketPath = scratchPath("sock");
    config.pool.shards = workers;
    ServiceDaemon daemon(config);
    std::string error;
    EXPECT_TRUE(daemon.start(&error)) << error;

    const std::string pool_path = scratchPath("pool");
    EXPECT_TRUE(SharedPmemPool::createPoolFile(
        pool_path, SharedQueueWorkload::poolBytesFor(ops), &error))
        << error;

    std::vector<std::string> session_bugs[2];
    auto writerBody = [&](std::uint32_t writer,
                          std::vector<std::string> *bugs_out) {
        SharedQueueWorkload workload;
        WorkloadOptions options;
        options.operations = ops;
        options.sharedPoolPath = pool_path;
        options.sharedWriter = writer;
        if (!fault.empty())
            options.faults.enable(fault);

        RemoteSink::Options ropts;
        ropts.socketPath = config.socketPath;
        ropts.ringPath = scratchPath("ring");
        ropts.model = workload.model();
        if (announcePool) {
            ropts.sharedPoolPath = pool_path;
            ropts.sharedWriterId = writer;
        }
        RemoteSink sink;
        std::string err;
        EXPECT_TRUE(sink.connect(ropts, &err)) << err;
        PmRuntime runtime;
        runtime.attach(&sink);
        workload.run(runtime, options);
        ReportBody report;
        EXPECT_TRUE(sink.finish(&report, &err)) << err;
        for (const BugReport &bug : report.bugs)
            bugs_out->push_back(bug.toString());
    };
    std::thread producer(writerBody, SharedQueueWorkload::producerWriter,
                         &session_bugs[0]);
    std::thread consumer(writerBody, SharedQueueWorkload::consumerWriter,
                         &session_bugs[1]);
    producer.join();
    consumer.join();
    while (!daemon.waitForSessions(2, 100)) {
    }
    daemon.stop();

    PairRun run;
    run.producerBugs = session_bugs[0];
    run.consumerBugs = session_bugs[1];
    for (const CrossGroupResult &group : daemon.crossprocResults()) {
        ++run.groups;
        run.merged += group.eventsReplayed;
        for (const CrossBug &bug : group.bugs)
            run.crossBugs.push_back(bug.toString());
    }
    std::remove(pool_path.c_str());
    return run;
}

constexpr std::size_t pairOps = 12;

TEST(CrossprocServiceTest, CleanRunIsQuietEverywhere)
{
    const PairRun run = runSharedPair("", 4, pairOps);
    EXPECT_EQ(run.groups, 1u);
    EXPECT_GT(run.merged, 0u);
    EXPECT_TRUE(run.crossBugs.empty());
    EXPECT_TRUE(run.producerBugs.empty());
    EXPECT_TRUE(run.consumerBugs.empty());
}

TEST(CrossprocServiceTest, SeededBugsFireOnlyInTheCrossEngine)
{
    for (const CrossprocCase &bug_case : crossprocCases()) {
        SCOPED_TRACE(bug_case.name);
        const PairRun run = runSharedPair(bug_case.fault, 4, pairOps);
        // One cross-session bug per operation, all of the seeded rule.
        ASSERT_EQ(run.crossBugs.size(), pairOps);
        for (const std::string &bug : run.crossBugs)
            EXPECT_EQ(bug.compare(0, bug_case.rule.size(),
                                  bug_case.rule),
                      0)
                << bug;
        // ...and both writers' own sessions stayed clean: no
        // per-session detector can see these bugs.
        EXPECT_TRUE(run.producerBugs.empty())
            << (run.producerBugs.empty() ? "" : run.producerBugs[0]);
        EXPECT_TRUE(run.consumerBugs.empty())
            << (run.consumerBugs.empty() ? "" : run.consumerBugs[0]);
    }
}

TEST(CrossprocServiceTest, SeededBugsAreSilentAsIndependentSessions)
{
    for (const CrossprocCase &bug_case : crossprocCases()) {
        SCOPED_TRACE(bug_case.name);
        const PairRun run =
            runSharedPair(bug_case.fault, 4, pairOps,
                          /*announcePool=*/false);
        // No pool announced: no group forms, no cross rules run, and
        // the per-session detectors — all any prior-art tool has —
        // report nothing.
        EXPECT_EQ(run.groups, 0u);
        EXPECT_TRUE(run.crossBugs.empty());
        EXPECT_TRUE(run.producerBugs.empty())
            << (run.producerBugs.empty() ? "" : run.producerBugs[0]);
        EXPECT_TRUE(run.consumerBugs.empty())
            << (run.consumerBugs.empty() ? "" : run.consumerBugs[0]);
    }
}

TEST(CrossprocServiceTest, VerdictBitIdenticalAcrossShardCounts)
{
    std::vector<std::string> faults = {""};
    for (const CrossprocCase &bug_case : crossprocCases())
        faults.push_back(bug_case.fault);
    for (const std::string &fault : faults) {
        SCOPED_TRACE(fault.empty() ? "clean" : fault);
        const PairRun one = runSharedPair(fault, 1, pairOps);
        const PairRun four = runSharedPair(fault, 4, pairOps);
        EXPECT_EQ(one.crossBugs, four.crossBugs);
        EXPECT_EQ(one.merged, four.merged);
        EXPECT_EQ(one.producerBugs, four.producerBugs);
        EXPECT_EQ(one.consumerBugs, four.consumerBugs);
    }
}

} // namespace
} // namespace pmdb
