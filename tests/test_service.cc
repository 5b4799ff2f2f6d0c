/**
 * @file
 * Tests for the out-of-process detection service: the shared-memory
 * event ring, the wire protocol, and — the core guarantee — report
 * identity: every bug-suite case detected through a pmdbd daemon
 * (any worker count, any non-lossy backpressure policy) must produce
 * exactly the bug report an in-process PmDebugger produces.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "common/rng.hh"
#include "core/debugger.hh"
#include "core/report.hh"
#include "service/daemon.hh"
#include "service/protocol.hh"
#include "service/remote_sink.hh"
#include "service/spsc_ring.hh"
#include "service/transport.hh"
#include "trace/trace_file.hh"
#include "workloads/bug_suite.hh"
#include "workloads/workload.hh"

namespace pmdb
{
namespace
{

std::atomic<int> pathCounter{0};

/** Unique per-test scratch path (cleaned up by the owner objects).
 *  Includes the pid: ctest runs each case as its own process, and
 *  concurrent processes must not collide on socket/ring paths —
 *  listenUnix unlinks and rebinds an existing path. */
std::string
scratchPath(const std::string &stem)
{
    return ::testing::TempDir() + "pmdb_svc_" +
           std::to_string(::getpid()) + "_" + stem + "_" +
           std::to_string(pathCounter.fetch_add(1));
}

/** Structural equality of two bug lists, with a useful diff. */
::testing::AssertionResult
sameBugs(const std::vector<BugReport> &local,
         const std::vector<BugReport> &remote)
{
    if (local.size() != remote.size()) {
        return ::testing::AssertionFailure()
               << "bug count differs: local " << local.size()
               << ", remote " << remote.size();
    }
    for (std::size_t i = 0; i < local.size(); ++i) {
        const BugReport &a = local[i];
        const BugReport &b = remote[i];
        if (a.type != b.type || a.range.start != b.range.start ||
            a.range.end != b.range.end || a.seq != b.seq ||
            a.cause != b.cause || a.detail != b.detail) {
            return ::testing::AssertionFailure()
                   << "bug " << i << " differs:\n  local:  "
                   << a.toString() << "\n  remote: " << b.toString();
        }
    }
    return ::testing::AssertionSuccess();
}

/** Add @p delta to a ring file's head cursor, as a misbehaving
 *  producer sharing the mapping could. */
void
shiftRingHead(const std::string &path, std::uint64_t delta)
{
    const int fd = ::open(path.c_str(), O_RDWR);
    ASSERT_GE(fd, 0) << path;
    void *map = ::mmap(nullptr, sizeof(RingHeader),
                       PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
    ::close(fd);
    ASSERT_NE(map, MAP_FAILED);
    static_cast<RingHeader *>(map)->head.fetch_add(delta);
    ::munmap(map, sizeof(RingHeader));
}

/** Run one suite case with an in-process PmDebugger (the baseline). */
std::vector<BugReport>
runLocal(const BugCase &bug_case)
{
    PmRuntime runtime;
    DebuggerConfig config;
    config.model = bug_case.model;
    if (!bug_case.orderSpec.empty())
        config.orderSpec = OrderSpec::fromText(bug_case.orderSpec);
    PmDebugger debugger(config);
    runtime.attach(&debugger);
    CaseEnv env{runtime};
    env.pmdebugger = &debugger;
    bug_case.scenario(env);
    runtime.programEnd();
    debugger.finalize();
    return debugger.bugs().bugs();
}

/** Run one suite case through a daemon via RemoteSink. */
std::vector<BugReport>
runRemote(const BugCase &bug_case, const std::string &socket_path,
          SlowConsumerPolicy policy = SlowConsumerPolicy::Block,
          std::uint32_t ring_slots = 1024,
          ReportBody *report_out = nullptr)
{
    PmRuntime runtime;
    RemoteSink sink;
    RemoteSink::Options options;
    options.socketPath = socket_path;
    options.ringPath = scratchPath("ring");
    options.ringSlots = ring_slots;
    options.policy = policy;
    if (policy == SlowConsumerPolicy::Spill)
        options.spillPath = scratchPath("spill");
    options.model = bug_case.model;
    options.orderSpecText = bug_case.orderSpec;
    std::string error;
    EXPECT_TRUE(sink.connect(options, &error)) << error;
    runtime.attach(&sink);
    CaseEnv env{runtime};
    env.externalBugSink = [&sink](const BugReport &bug) {
        sink.reportBug(bug);
    };
    bug_case.scenario(env);
    runtime.programEnd();
    ReportBody report;
    EXPECT_TRUE(sink.finish(&report, &error)) << error;
    if (report_out)
        *report_out = report;
    return report.bugs;
}

TEST(EventRingTest, PushPopAndWraparound)
{
    const std::string path = scratchPath("ringunit");
    EventRing producer;
    std::string error;
    ASSERT_TRUE(producer.create(path, 8, &error)) << error;
    EventRing consumer;
    ASSERT_TRUE(consumer.open(path, &error)) << error;

    // Several laps around the 8-slot ring.
    Event out[4];
    SeqNum next_push = 1;
    SeqNum next_pop = 1;
    for (int lap = 0; lap < 10; ++lap) {
        for (int i = 0; i < 6; ++i) {
            Event event;
            event.addr = 0x100;
            event.seq = next_push++;
            ASSERT_TRUE(producer.tryPush(event));
        }
        while (next_pop < next_push) {
            const std::size_t popped = consumer.tryPop(out, 4);
            ASSERT_GT(popped, 0u);
            for (std::size_t i = 0; i < popped; ++i)
                EXPECT_EQ(out[i].seq, next_pop++);
        }
    }
    EXPECT_EQ(consumer.size(), 0u);
}

TEST(EventRingTest, FullRingRejectsUntilDrained)
{
    const std::string path = scratchPath("ringfull");
    EventRing ring;
    ASSERT_TRUE(ring.create(path, 4));
    Event event;
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(ring.tryPush(event));
    EXPECT_FALSE(ring.tryPush(event)); // out of credits
    Event out[2];
    EXPECT_EQ(ring.tryPop(out, 2), 2u);
    EXPECT_TRUE(ring.tryPush(event));
    EXPECT_EQ(ring.size(), 3u);
    ring.countDrop();
    ring.countDrop();
    EXPECT_EQ(ring.droppedCount(), 2u);
}

TEST(EventRingTest, BatchPushPopInWholeFramesAcrossWraparound)
{
    const std::string path = scratchPath("ringbatch");
    EventRing producer;
    std::string error;
    ASSERT_TRUE(producer.create(path, 16, &error)) << error;
    EventRing consumer;
    ASSERT_TRUE(consumer.open(path, &error)) << error;

    // Offset the cursors so batch frames span the wrap point.
    Event seed;
    for (int i = 0; i < 5; ++i)
        ASSERT_TRUE(producer.tryPush(seed));
    Event out[16];
    ASSERT_EQ(consumer.tryPop(out, 16), 5u);

    SeqNum next_push = 1;
    SeqNum next_pop = 1;
    Event batch[6];
    for (int lap = 0; lap < 8; ++lap) {
        for (auto &event : batch) {
            event.addr = 0x40;
            event.seq = next_push++;
        }
        // 6 of 6 fit: a frame is all-or-prefix, and an empty 16-slot
        // ring always has room for 6.
        ASSERT_EQ(producer.tryPushBatch(batch, 6), 6u);
        const std::size_t popped = consumer.popBatch(out, 16);
        ASSERT_EQ(popped, 6u);
        for (std::size_t i = 0; i < popped; ++i)
            EXPECT_EQ(out[i].seq, next_pop++);
    }

    // A batch larger than the free space publishes the fitting prefix.
    for (auto &event : batch)
        event.seq = next_push++;
    ASSERT_EQ(producer.tryPushBatch(batch, 6), 6u);
    Event big[20];
    for (auto &event : big)
        event.seq = 0;
    EXPECT_EQ(producer.tryPushBatch(big, 20), 10u); // 16 - 6 queued
    EXPECT_EQ(consumer.size(), 16u);
    EXPECT_EQ(producer.tryPushBatch(big, 4), 0u); // full
    std::size_t drained = 0;
    while (drained < 16)
        drained += consumer.popBatch(out, 16);
    EXPECT_EQ(drained, 16u);
    EXPECT_EQ(consumer.size(), 0u);
}

TEST(EventRingTest, OpenRejectsGarbageFile)
{
    const std::string path = scratchPath("ringbad");
    std::FILE *file = std::fopen(path.c_str(), "wb");
    ASSERT_NE(file, nullptr);
    std::fwrite("this is not a ring", 1, 18, file);
    std::fclose(file);
    EventRing ring;
    std::string error;
    EXPECT_FALSE(ring.open(path, &error));
    std::remove(path.c_str());
}

TEST(EventRingTest, CursorsFurtherApartThanTheRingDrainNothing)
{
    // Both cursors live in memory the producer can write. A head moved
    // far past the tail must not turn into a drain of that many
    // events: with pmdbd's 4096-event buffer, 64 slots would be read
    // 4096 deep.
    const std::string path = scratchPath("ringcorrupt");
    EventRing producer;
    std::string error;
    ASSERT_TRUE(producer.create(path, 64, &error)) << error;
    EventRing consumer;
    ASSERT_TRUE(consumer.open(path, &error)) << error;
    Event event;
    ASSERT_TRUE(producer.tryPush(event));
    std::vector<Event> out(4096);
    ASSERT_EQ(consumer.popBatch(out.data(), out.size()), 1u);
    EXPECT_FALSE(consumer.corrupt());

    ASSERT_TRUE(producer.tryPush(event));
    shiftRingHead(path, 1ull << 20);
    EXPECT_EQ(consumer.popBatch(out.data(), out.size()), 0u);
    EXPECT_TRUE(consumer.corrupt());

    // Sticky: moving the head back does not revive the ring.
    shiftRingHead(path, 0 - (1ull << 20));
    EXPECT_EQ(consumer.popBatch(out.data(), out.size()), 0u);
    EXPECT_TRUE(consumer.corrupt());
}

TEST(ProtocolTest, HelloRoundTrip)
{
    HelloBody hello;
    hello.model = PersistencyModel::Strand;
    hello.policy = SlowConsumerPolicy::Spill;
    hello.orderSpecText = "a < b";
    hello.ringPath = "/tmp/ring";
    hello.spillPath = "/tmp/spill";
    HelloBody parsed;
    ASSERT_TRUE(HelloBody::deserialize(hello.serialize(), &parsed));
    EXPECT_EQ(parsed.model, PersistencyModel::Strand);
    EXPECT_EQ(parsed.policy, SlowConsumerPolicy::Spill);
    EXPECT_EQ(parsed.orderSpecText, "a < b");
    EXPECT_EQ(parsed.ringPath, "/tmp/ring");
    EXPECT_EQ(parsed.spillPath, "/tmp/spill");
}

TEST(ProtocolTest, ReportRoundTripAndTruncationFails)
{
    ReportBody report;
    BugReport bug;
    bug.type = BugType::RedundantFlush;
    bug.range = AddrRange(64, 128);
    bug.seq = 42;
    bug.cause = DurabilityCause::MissingFence;
    bug.detail = "line flushed twice";
    report.bugs.push_back(bug);
    report.eventsProcessed = 1000;
    report.eventsDropped = 3;
    // Every stats field reportToJson prints; distinct values catch a
    // swapped pair.
    DebuggerStats &stats = report.stats;
    stats.stores = 11;
    stats.flushes = 12;
    stats.fences = 13;
    stats.epochs = 14;
    stats.treeNodeSampleSum = 15;
    stats.treeNodeSamples = 16;
    stats.tree.reorganizations = 17;
    stats.array.collectiveInvalidations = 18;
    stats.array.recordsMovedToTree = 19;

    const std::vector<std::uint8_t> wire = report.serialize();
    ReportBody parsed;
    ASSERT_TRUE(ReportBody::deserialize(wire, &parsed));
    ASSERT_EQ(parsed.bugs.size(), 1u);
    EXPECT_EQ(parsed.bugs[0].type, BugType::RedundantFlush);
    EXPECT_EQ(parsed.bugs[0].range, AddrRange(64, 128));
    EXPECT_EQ(parsed.bugs[0].seq, 42u);
    EXPECT_EQ(parsed.bugs[0].detail, "line flushed twice");
    EXPECT_EQ(parsed.eventsProcessed, 1000u);
    EXPECT_EQ(parsed.eventsDropped, 3u);
    EXPECT_EQ(parsed.stats.stores, 11u);
    EXPECT_EQ(parsed.stats.flushes, 12u);
    EXPECT_EQ(parsed.stats.fences, 13u);
    EXPECT_EQ(parsed.stats.epochs, 14u);
    EXPECT_EQ(parsed.stats.treeNodeSampleSum, 15u);
    EXPECT_EQ(parsed.stats.treeNodeSamples, 16u);
    EXPECT_EQ(parsed.stats.tree.reorganizations, 17u);
    EXPECT_EQ(parsed.stats.array.collectiveInvalidations, 18u);
    EXPECT_EQ(parsed.stats.array.recordsMovedToTree, 19u);
    // A client rendering from the shipped stats equals one from the
    // daemon's.
    BugCollector bugs;
    bugs.report(bug);
    EXPECT_EQ(reportToJson(bugs, parsed.stats),
              reportToJson(bugs, report.stats));

    std::vector<std::uint8_t> cut(wire.begin(), wire.end() - 3);
    EXPECT_FALSE(ReportBody::deserialize(cut, &parsed));
}

TEST(ProtocolTest, HelloRejectsOutOfRangeEnums)
{
    HelloBody hello;
    hello.ringPath = "/tmp/ring";
    const std::vector<std::uint8_t> wire = hello.serialize();
    HelloBody parsed;
    ASSERT_TRUE(HelloBody::deserialize(wire, &parsed));

    // Layout: u32 version, u32 model, u32 policy, then strings.
    constexpr std::size_t modelAt = 4;
    constexpr std::size_t policyAt = 8;
    for (const std::size_t at : {modelAt, policyAt}) {
        std::vector<std::uint8_t> bad = wire;
        bad[at] = 3; // one past Strand / Spill
        EXPECT_FALSE(HelloBody::deserialize(bad, &parsed)) << at;
        bad[at] = 0;
        bad[at + 3] = 0x80; // high byte set: huge value
        EXPECT_FALSE(HelloBody::deserialize(bad, &parsed)) << at;
    }
}

TEST(ProtocolTest, ReportRejectsOutOfRangeEnums)
{
    BugReport bug;
    bug.type = BugType::CrossFailureSemantic;
    bug.cause = DurabilityCause::MissingFence;
    ReportBody report;
    report.bugs.push_back(bug);
    const std::vector<std::uint8_t> wire = report.serialize();
    ReportBody parsed;
    ASSERT_TRUE(ReportBody::deserialize(wire, &parsed));

    // Layout: u32 bug count, then per bug u8 type, u8 cause, ...
    constexpr std::size_t typeAt = 4;
    constexpr std::size_t causeAt = 5;
    for (const std::size_t at : {typeAt, causeAt}) {
        std::vector<std::uint8_t> bad = wire;
        ++bad[at]; // one past the highest enumerator
        EXPECT_FALSE(ReportBody::deserialize(bad, &parsed)) << at;
    }

    // The same check guards a single ReportBug message.
    WireWriter out;
    putBugReport(out, bug);
    std::vector<std::uint8_t> single = out.bytes();
    WireReader good(single);
    EXPECT_EQ(getBugReport(good).type, BugType::CrossFailureSemantic);
    EXPECT_TRUE(good.ok());
    single[0] = 0xff;
    WireReader in(single);
    getBugReport(in);
    EXPECT_FALSE(in.ok());
}

TEST(ProtocolTest, PolicyNames)
{
    SlowConsumerPolicy policy;
    EXPECT_TRUE(parseSlowConsumerPolicy("block", &policy));
    EXPECT_EQ(policy, SlowConsumerPolicy::Block);
    EXPECT_TRUE(parseSlowConsumerPolicy("spill", &policy));
    EXPECT_EQ(policy, SlowConsumerPolicy::Spill);
    EXPECT_FALSE(parseSlowConsumerPolicy("lossy", &policy));
    EXPECT_STREQ(toString(SlowConsumerPolicy::Drop), "drop");
}

/** A valid payload of each client-sent frame plus the Report. */
std::vector<std::pair<const char *, std::vector<std::uint8_t>>>
wireSeeds()
{
    HelloBody hello;
    hello.model = PersistencyModel::Strand;
    hello.policy = SlowConsumerPolicy::Spill;
    hello.orderSpecText = "a < b";
    hello.ringPath = "/tmp/ring";
    hello.spillPath = "/tmp/spill";
    hello.sharedPoolPath = "/tmp/pool";
    hello.sharedWriterId = 2;

    ByeBody bye;
    bye.ringEvents = 123456;
    bye.spillEvents = 789;

    BugReport bug;
    bug.type = BugType::NoOrderGuarantee;
    bug.cause = DurabilityCause::MissingFlush;
    bug.range = AddrRange(0x1000, 0x1040);
    bug.seq = 77;
    bug.detail = "b persisted before a";
    bug.context = "a<b";
    WireWriter single;
    putBugReport(single, bug);

    ReportBody report;
    for (int i = 0; i < 3; ++i) {
        report.bugs.push_back(bug);
        report.bugs.back().seq += static_cast<SeqNum>(i);
    }
    report.bugs[1].detail.clear();
    report.eventsProcessed = 5000;
    report.stats.stores = 40;
    report.stats.treeNodeSamples = 9;

    return {{"Hello", hello.serialize()},
            {"Bye", bye.serialize()},
            {"ReportBug", single.bytes()},
            {"Report", report.serialize()}};
}

/** Parse @p payload as frame @p kind; a parse must be in range. */
bool
parseWire(const std::string &kind,
          const std::vector<std::uint8_t> &payload)
{
    const auto validBug = [](const BugReport &bug) {
        return bug.type <= BugType::CrossFailureSemantic &&
               bug.cause <= DurabilityCause::MissingFence;
    };
    if (kind == "Hello") {
        HelloBody hello;
        if (!HelloBody::deserialize(payload, &hello))
            return false;
        EXPECT_LE(hello.model, PersistencyModel::Strand);
        EXPECT_LE(hello.policy, SlowConsumerPolicy::Spill);
        return true;
    }
    if (kind == "Bye") {
        ByeBody bye;
        return ByeBody::deserialize(payload, &bye);
    }
    if (kind == "ReportBug") {
        WireReader in(payload);
        const BugReport bug = getBugReport(in);
        if (!in.ok())
            return false;
        EXPECT_TRUE(validBug(bug));
        return true;
    }
    ReportBody report;
    if (!ReportBody::deserialize(payload, &report))
        return false;
    EXPECT_LE(report.bugs.size() * minBugReportBytes, payload.size());
    for (const BugReport &bug : report.bugs)
        EXPECT_TRUE(validBug(bug));
    return true;
}

TEST(ProtocolFuzzTest, SeededMutantsParseOrFailCleanly)
{
    // Every wire payload the daemon or the client decodes, mutated
    // under a fixed seed: each mutant parses to in-range values or is
    // rejected, with no overread (the sanitizer lanes run this) and no
    // allocation sized by an unchecked count.
    Rng rng(0x5eed71e5);
    for (const auto &[kind, seed] : wireSeeds()) {
        ASSERT_TRUE(parseWire(kind, seed)) << kind;
        int parsed = 0;
        int rejected = 0;
        for (int round = 0; round < 1500; ++round) {
            std::vector<std::uint8_t> mutant = seed;
            switch (rng.nextBounded(3)) {
              case 0: // overwrite a few bytes anywhere
                for (int k = 1 + static_cast<int>(rng.nextBounded(4));
                     k > 0; --k) {
                    mutant[rng.nextBounded(mutant.size())] =
                        static_cast<std::uint8_t>(rng.nextBounded(256));
                }
                break;
              case 1: // cut the frame short
                mutant.resize(rng.nextBounded(mutant.size()));
                break;
              default: { // a wild u32: counts and string lengths
                const std::uint32_t wild =
                    rng.nextBool(0.5)
                        ? ~std::uint32_t{0} -
                              static_cast<std::uint32_t>(
                                  rng.nextBounded(16))
                        : static_cast<std::uint32_t>(rng.next());
                const std::size_t at =
                    rng.nextBounded(mutant.size() - 3);
                std::memcpy(mutant.data() + at, &wild, sizeof(wild));
                break;
              }
            }
            if (parseWire(kind, mutant))
                ++parsed;
            else
                ++rejected;
        }
        // Both outcomes occur, so the mutations reach past the first
        // field.
        EXPECT_GT(parsed, 0) << kind;
        EXPECT_GT(rejected, 0) << kind;
    }
}

TEST(TransportTest, FrameCapHoldsOnBothEnds)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    // A sender that ignored the cap would block on the unread frame;
    // time it out so the test fails instead of hanging.
    timeval sendTimeout{};
    sendTimeout.tv_sec = 5;
    ASSERT_EQ(::setsockopt(fds[0], SOL_SOCKET, SO_SNDTIMEO, &sendTimeout,
                           sizeof(sendTimeout)),
              0);

    // Over the cap: refused before a byte is written.
    const std::vector<std::uint8_t> over(maxMessageBytes + 1, 0x5a);
    EXPECT_FALSE(sendMessage(fds[0], MsgType::Report, over));
    EXPECT_FALSE(readable(fds[1], 0));

    // At the cap: delivered whole. The frame outgrows the socket
    // buffer, so a reader drains it concurrently.
    std::vector<std::uint8_t> at(maxMessageBytes, 0x33);
    at.front() = 1;
    at.back() = 2;
    MsgType type = MsgType::Error;
    std::vector<std::uint8_t> got;
    bool received = false;
    std::thread reader(
        [&] { received = recvMessage(fds[1], &type, &got); });
    EXPECT_TRUE(sendMessage(fds[0], MsgType::Report, at));
    reader.join();
    EXPECT_TRUE(received);
    EXPECT_EQ(type, MsgType::Report);
    EXPECT_TRUE(got == at);

    // A header announcing more than the cap is rejected on receipt.
    MsgHeader header;
    header.type = static_cast<std::uint32_t>(MsgType::Report);
    header.length = static_cast<std::uint32_t>(maxMessageBytes + 1);
    ASSERT_EQ(::write(fds[0], &header, sizeof(header)),
              static_cast<ssize_t>(sizeof(header)));
    EXPECT_FALSE(recvMessage(fds[1], &type, &got));
    ::close(fds[0]);
    ::close(fds[1]);
}

/** Identity over the full 78-case suite at a given worker count. */
void
suiteIdentityAtWorkers(std::size_t workers)
{
    ServiceConfig config;
    config.socketPath = scratchPath("sock");
    config.pool.shards = workers;
    ServiceDaemon daemon(config);
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;

    for (const BugCase &bug_case : bugSuite()) {
        const std::vector<BugReport> local = runLocal(bug_case);
        const std::vector<BugReport> remote =
            runRemote(bug_case, config.socketPath);
        EXPECT_TRUE(sameBugs(local, remote))
            << "case " << bug_case.id << " (" << bug_case.name
            << ") at " << workers << " worker(s)";
    }
    daemon.stop();
}

TEST(ServiceIdentityTest, FullBugSuiteOneShard)
{
    suiteIdentityAtWorkers(1);
}

TEST(ServiceIdentityTest, FullBugSuiteThreeShards)
{
    suiteIdentityAtWorkers(3);
}

/**
 * Identity under real concurrency: @p clients threads stream the
 * full 78-case suite (dealt round-robin, every case covered) into one
 * daemon at @p workers workers, and every session's report must equal
 * its in-process baseline. This is the multiplexing stress: pollers
 * interleave rings mid-stream, and any worker may lease any session's
 * queue.
 */
void
concurrentSuiteIdentity(std::size_t workers, std::size_t clients)
{
    ServiceConfig config;
    config.socketPath = scratchPath("sock");
    config.pool.shards = workers;
    config.pollers = 2;
    ServiceDaemon daemon(config);
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;

    const std::vector<BugCase> &suite = bugSuite();
    std::vector<std::vector<BugReport>> locals(suite.size());
    for (std::size_t i = 0; i < suite.size(); ++i)
        locals[i] = runLocal(suite[i]);

    std::vector<std::vector<BugReport>> remotes(suite.size());
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            for (std::size_t i = c; i < suite.size(); i += clients)
                remotes[i] = runRemote(suite[i], config.socketPath);
        });
    }
    for (std::thread &thread : threads)
        thread.join();

    for (std::size_t i = 0; i < suite.size(); ++i) {
        EXPECT_TRUE(sameBugs(locals[i], remotes[i]))
            << "case " << suite[i].id << " (" << suite[i].name
            << ") at " << workers << " worker(s), " << clients
            << " concurrent clients";
    }
    // The finalize worker sends a session's Report to the client
    // before appending its summary, so the last summary can trail the
    // last client's return — wait instead of sampling.
    EXPECT_TRUE(daemon.waitForSessions(suite.size(), 10000));
    EXPECT_EQ(daemon.completedSessions(), suite.size());
    daemon.stop();
}

TEST(ServiceIdentityTest, FourConcurrentClientsFullSuiteOneShard)
{
    concurrentSuiteIdentity(1, 4);
}

TEST(ServiceIdentityTest, FourConcurrentClientsFullSuiteFourShards)
{
    concurrentSuiteIdentity(4, 4);
}

TEST(ServiceIdentityTest, SpillPolicyWithTinyRingStaysExact)
{
    ServiceConfig config;
    config.socketPath = scratchPath("sock");
    config.pool.shards = 2;
    ServiceDaemon daemon(config);
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;

    // A workload-backed case generates thousands of events; a 16-slot
    // ring forces nearly the whole stream through the spill file.
    int checked = 0;
    for (const BugCase &bug_case : bugSuite()) {
        if (bug_case.id % 13 != 0)
            continue; // a sample is plenty: spilling is case-agnostic
        ReportBody report;
        const std::vector<BugReport> local = runLocal(bug_case);
        const std::vector<BugReport> remote =
            runRemote(bug_case, config.socketPath,
                      SlowConsumerPolicy::Spill, 16, &report);
        EXPECT_TRUE(sameBugs(local, remote))
            << "case " << bug_case.id << " (" << bug_case.name << ")";
        ++checked;
    }
    EXPECT_GT(checked, 2);
    daemon.stop();
}

TEST(ServiceTest, BugHeavyReportRoundTrips)
{
    // NoDurability reports every site left unpersisted at program
    // end: 300K hashmap_atomic inserts without the entry flush leave
    // 365,102 sites, one Report frame that must fit the frame cap.
    WorkloadOptions workload;
    workload.operations = 300000;
    workload.faults.enable("hmatomic_skip_entry_flush");

    std::vector<BugFingerprint> local;
    {
        const auto program = makeWorkload("hashmap_atomic");
        DebuggerConfig config;
        config.model = program->model();
        config.orderSpec = OrderSpec::fromText(program->orderSpecText());
        PmRuntime runtime;
        PmDebugger debugger(config);
        runtime.attach(&debugger);
        program->run(runtime, workload);
        runtime.drain();
        debugger.finalize();
        local = debugger.bugs().fingerprints();
    }
    ASSERT_EQ(local.size(), 365102u);

    ServiceConfig config;
    config.socketPath = scratchPath("sock");
    config.pool.shards = 2;
    ServiceDaemon daemon(config);
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;
    const auto program = makeWorkload("hashmap_atomic");
    PmRuntime runtime;
    RemoteSink sink;
    RemoteSink::Options options;
    options.socketPath = config.socketPath;
    options.ringPath = scratchPath("ring");
    options.model = program->model();
    options.orderSpecText = program->orderSpecText();
    ASSERT_TRUE(sink.connect(options, &error)) << error;
    runtime.attach(&sink);
    program->run(runtime, workload);
    ReportBody report;
    ASSERT_TRUE(sink.finish(&report, &error)) << error;
    daemon.stop();

    // Compared in order; gtest would print all 365K on a mismatch.
    ASSERT_EQ(report.bugs.size(), local.size());
    for (std::size_t i = 0; i < local.size(); ++i) {
        ASSERT_EQ(fingerprintOf(report.bugs[i]), local[i])
            << "first difference at bug " << i;
    }
}

TEST(ServiceTest, SpillFileLoadsOnItsOwnWithItsNames)
{
    ServiceConfig config;
    config.socketPath = scratchPath("sock");
    ServiceDaemon daemon(config);
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;

    // hashmap_atomic labels its events with program sites, so spilled
    // events reference names the daemon learnt over the control
    // socket; the spill file must carry those names too.
    PmRuntime runtime;
    RemoteSink sink;
    RemoteSink::Options options;
    options.socketPath = config.socketPath;
    options.ringPath = scratchPath("ring");
    options.ringSlots = 16;
    options.policy = SlowConsumerPolicy::Spill;
    options.spillPath = scratchPath("spill");
    ASSERT_TRUE(sink.connect(options, &error)) << error;
    runtime.attach(&sink);
    WorkloadOptions workload;
    workload.operations = 2000;
    makeWorkload("hashmap_atomic")->run(runtime, workload);
    ASSERT_GT(sink.spillEvents(), 0u);

    // The writer is still live: load what it has flushed so far, a
    // prefix that may end mid-record.
    LoadedTrace spilled;
    bool truncated = false;
    ASSERT_TRUE(readTraceFile(options.spillPath, &spilled, &truncated,
                              &error))
        << error;
    std::size_t named = 0;
    for (const Event &event : spilled.events)
        named += event.nameId != noName;
    EXPECT_GT(named, 0u);
    EXPECT_GT(spilled.names.size(), 0u);

    runtime.programEnd();
    ReportBody report;
    ASSERT_TRUE(sink.finish(&report, &error)) << error;
    // The daemon replayed the whole spill file after the ring.
    EXPECT_EQ(report.eventsProcessed,
              sink.ringEvents() + sink.spillEvents());
    daemon.stop();
}

TEST(ServiceTest, DropPolicyCountsWhatItLoses)
{
    ServiceConfig config;
    config.socketPath = scratchPath("sock");
    ServiceDaemon daemon(config);
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;

    // Flood a 16-slot ring faster than the consumer's idle backoff
    // can drain it; the Drop policy must account for every loss.
    PmRuntime runtime;
    RemoteSink sink;
    RemoteSink::Options options;
    options.socketPath = config.socketPath;
    options.ringPath = scratchPath("ring");
    options.ringSlots = 16;
    options.policy = SlowConsumerPolicy::Drop;
    ASSERT_TRUE(sink.connect(options, &error)) << error;
    runtime.attach(&sink);
    constexpr int stores = 20000;
    for (int i = 0; i < stores; ++i)
        runtime.store(0x1000 + 8u * (i % 64), 8);
    runtime.programEnd();
    ReportBody report;
    ASSERT_TRUE(sink.finish(&report, &error)) << error;

    EXPECT_EQ(report.eventsProcessed + report.eventsDropped,
              static_cast<std::uint64_t>(stores) + 1); // + ProgramEnd
    EXPECT_EQ(report.eventsDropped, sink.droppedEvents());
    daemon.stop();
}

TEST(ServiceTest, TwoConcurrentClientsGetTheirOwnReports)
{
    ServiceConfig config;
    config.socketPath = scratchPath("sock");
    config.pool.shards = 2;
    ServiceDaemon daemon(config);
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;

    // Two different cases with different expected verdicts, streamed
    // concurrently: the session mux must never cross the streams.
    const BugCase &case_a = *casesOfType(BugType::NoDurability)[0];
    const BugCase &case_b = *casesOfType(BugType::RedundantFlush)[0];
    const std::vector<BugReport> local_a = runLocal(case_a);
    const std::vector<BugReport> local_b = runLocal(case_b);

    std::vector<BugReport> remote_a;
    std::vector<BugReport> remote_b;
    std::thread client_a([&] {
        remote_a = runRemote(case_a, config.socketPath);
    });
    std::thread client_b([&] {
        remote_b = runRemote(case_b, config.socketPath);
    });
    client_a.join();
    client_b.join();

    EXPECT_TRUE(sameBugs(local_a, remote_a)) << "client A";
    EXPECT_TRUE(sameBugs(local_b, remote_b)) << "client B";

    // Summaries are appended after the Report reaches the client.
    EXPECT_TRUE(daemon.waitForSessions(2, 10000));
    const std::vector<SessionSummary> sessions = daemon.summaries();
    ASSERT_EQ(sessions.size(), 2u);
    EXPECT_NE(sessions[0].id, sessions[1].id);
    const std::string json = daemon.aggregatedJson();
    EXPECT_NE(json.find("\"sessions\""), std::string::npos);
    daemon.stop();
}

TEST(ServiceTest, ClientSurvivesMissingDaemon)
{
    RemoteSink sink;
    RemoteSink::Options options;
    options.socketPath = scratchPath("nonexistent.sock");
    options.ringPath = scratchPath("ring");
    options.connectTimeoutMs = 50;
    std::string error;
    EXPECT_FALSE(sink.connect(options, &error));
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(sink.connected());
}

TEST(ServiceTest, IngestCountersSurfaceInSummariesAndJson)
{
    ServiceConfig config;
    config.socketPath = scratchPath("sock");
    config.pool.shards = 2;
    config.pollers = 1;
    ServiceDaemon daemon(config);
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;

    PmRuntime runtime;
    RemoteSink sink;
    RemoteSink::Options options;
    options.socketPath = config.socketPath;
    options.ringPath = scratchPath("ring");
    ASSERT_TRUE(sink.connect(options, &error)) << error;
    runtime.attach(&sink);
    for (int i = 0; i < 4096; ++i) {
        runtime.store(0x1000 + 64u * (i % 32), 64);
        runtime.flush(0x1000 + 64u * (i % 32), 64);
        if (i % 32 == 31)
            runtime.fence();
    }
    runtime.programEnd();
    ReportBody report;
    ASSERT_TRUE(sink.finish(&report, &error)) << error;

    // Summaries are appended after the Report reaches the client.
    EXPECT_TRUE(daemon.waitForSessions(1, 10000));
    const std::vector<SessionSummary> sessions = daemon.summaries();
    ASSERT_EQ(sessions.size(), 1u);
    EXPECT_GT(sessions[0].batchesDrained, 0u);
    EXPECT_GT(sessions[0].eventsProcessed, 0u);
    EXPECT_GT(sessions[0].seconds, 0.0);

    const IngestStats ingest = daemon.ingestStats();
    EXPECT_GT(ingest.polls, 0u);

    // The aggregate renders attribution and configuration; every
    // counter is in the snapshot embedded under "metrics" (its last
    // key), and nowhere else.
    const std::string json = daemon.aggregatedJson();
    for (const char *key :
         {"\"schema\": 4", "\"workers\": 2", "\"pollers\"",
          "\"batches_drained\"", "\"queue_full_stalls\"",
          "\"events_per_sec\"", "\"bugs\""}) {
        EXPECT_NE(json.find(key), std::string::npos) << key;
    }
    for (const char *key : {"\"idle_poll_ratio\"", "\"shard_stats\"",
                            "\"report\"", "\"shards\"",
                            "\"stripe_bytes\""}) {
        EXPECT_EQ(json.find(key), std::string::npos) << key;
    }
    const std::size_t at = json.find("\"metrics\": ");
    ASSERT_NE(at, std::string::npos);
    const std::size_t from = at + std::strlen("\"metrics\": ");
    telemetry::MetricsSnapshot snap;
    ASSERT_TRUE(telemetry::MetricsSnapshot::fromJson(
        json.substr(from, json.size() - 1 - from), &snap, &error))
        << error;

    // Every name pmdb_stat and the repository benchmark read.
    const std::string session =
        "{session=\"" + std::to_string(sessions[0].id) + "\"}";
    std::vector<std::string> names = {
        "pmdbd.polls",          "pmdbd.idle_polls",
        "pmdbd.events_drained", "pmdbd.frames_drained",
        "pmdbd.sessions_completed"};
    for (const char *base : {"pmdbd.session.events", "pmdbd.session.batches",
                             "pmdbd.session.millis", "pmdbd.session.live"})
        names.push_back(base + session);
    for (const std::string &name : names)
        EXPECT_NE(snap.find(name), nullptr) << name;
    // The pool keeps no per-worker counters: only its three stage
    // histograms carry the "pmdbd.shard." prefix.
    EXPECT_EQ(snap.find("pmdbd.steals"), nullptr);
    for (const telemetry::MetricSample &sample : snap.samples) {
        if (sample.name.rfind("pmdbd.shard.", 0) == 0) {
            EXPECT_EQ(sample.kind, telemetry::MetricSample::Kind::Histogram)
                << sample.name;
        }
    }
    for (const std::string &name :
         {std::string("pmdbd.polls"), std::string("pmdbd.events_drained"),
          std::string("pmdbd.frames_drained"),
          "pmdbd.session.events" + session}) {
        const telemetry::MetricSample *sample = snap.find(name);
        ASSERT_NE(sample, nullptr) << name;
        EXPECT_GT(sample->value, 0) << name;
    }
    EXPECT_EQ(snap.find("pmdbd.session.events" + session)->value,
              static_cast<std::int64_t>(sessions[0].eventsProcessed));
    daemon.stop();
}

TEST(ServiceTest, MetricsScrapeWhileStreamingIsRaceFree)
{
    // The live-session fields the snapshot reads are written by the
    // poller; a scraper rendering it in a loop while a client streams
    // must not race (the ThreadSanitizer lane runs this).
    ServiceConfig config;
    config.socketPath = scratchPath("sock");
    config.pool.shards = 2;
    ServiceDaemon daemon(config);
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;

    std::atomic<bool> scraping{true};
    std::atomic<int> liveScrapes{0};
    std::thread scraper([&] {
        while (scraping.load()) {
            const telemetry::MetricsSnapshot snap = daemon.metricsSnapshot();
            for (const telemetry::MetricSample &sample : snap.samples) {
                if (sample.name.rfind("pmdbd.session.live", 0) == 0 &&
                    sample.value == 1)
                    ++liveScrapes;
            }
        }
    });

    PmRuntime runtime;
    RemoteSink sink;
    RemoteSink::Options options;
    options.socketPath = config.socketPath;
    options.ringPath = scratchPath("ring");
    ASSERT_TRUE(sink.connect(options, &error)) << error;
    runtime.attach(&sink);
    // Stream until a scrape has seen the session live, then some more.
    for (int i = 0; i < 65536 || (liveScrapes.load() == 0 && i < (1 << 24));
         ++i) {
        runtime.store(0x1000 + 64u * (i % 64), 64);
        runtime.flush(0x1000 + 64u * (i % 64), 64);
        if (i % 64 == 63)
            runtime.fence();
    }
    runtime.programEnd();
    ReportBody report;
    ASSERT_TRUE(sink.finish(&report, &error)) << error;
    EXPECT_TRUE(daemon.waitForSessions(1, 10000));
    scraping.store(false);
    scraper.join();
    EXPECT_GT(liveScrapes.load(), 0);

    const std::vector<SessionSummary> sessions = daemon.summaries();
    ASSERT_EQ(sessions.size(), 1u);
    const telemetry::MetricsSnapshot snap = daemon.metricsSnapshot();
    const telemetry::MetricSample *events = snap.find(
        "pmdbd.session.events{session=\"" + std::to_string(sessions[0].id) +
        "\"}");
    ASSERT_NE(events, nullptr);
    EXPECT_EQ(events->value,
              static_cast<std::int64_t>(sessions[0].eventsProcessed));
    EXPECT_EQ(report.eventsProcessed, sessions[0].eventsProcessed);
    daemon.stop();
}

/** What the misbehaving client of the adversarial matrix does. */
enum class Misbehaviour
{
    CorruptRingHead,
    OutOfRangeHelloEnum,
    OversizedControlFrame,
    VanishWithoutBye,
    UninternedNameId,
    OutOfOrderInternName,
};

const char *
toString(Misbehaviour how)
{
    switch (how) {
      case Misbehaviour::CorruptRingHead:
        return "CorruptRingHead";
      case Misbehaviour::OutOfRangeHelloEnum:
        return "OutOfRangeHelloEnum";
      case Misbehaviour::OversizedControlFrame:
        return "OversizedControlFrame";
      case Misbehaviour::VanishWithoutBye:
        return "VanishWithoutBye";
      case Misbehaviour::UninternedNameId:
        return "UninternedNameId";
      case Misbehaviour::OutOfOrderInternName:
        return "OutOfOrderInternName";
    }
    return "Unknown";
}

/** Names the parameter in gtest and ctest output. */
void
PrintTo(Misbehaviour how, std::ostream *out)
{
    *out << toString(how);
}

/** Speak the protocol by hand, breaking it the way @p how says. */
void
misbehave(Misbehaviour how, const std::string &socket_path)
{
    std::string error;
    const int fd = connectUnix(socket_path, 2000, &error);
    ASSERT_GE(fd, 0) << error;
    HelloBody hello;
    hello.ringPath = scratchPath("badring");
    std::vector<std::uint8_t> wire = hello.serialize();
    MsgType type;
    std::vector<std::uint8_t> payload;
    if (how == Misbehaviour::OutOfRangeHelloEnum) {
        wire[4] = 3; // the model, one past Strand
        ASSERT_TRUE(sendMessage(fd, MsgType::Hello, wire));
        EXPECT_TRUE(readable(fd, 10000));
        EXPECT_FALSE(recvMessage(fd, &type, &payload));
        ::close(fd);
        return;
    }

    // A 64-slot ring: a drain trusting a corrupt head would read
    // the daemon's whole 4096-event buffer out of it.
    EventRing ring;
    ASSERT_TRUE(ring.create(hello.ringPath, 64, &error)) << error;
    ASSERT_TRUE(sendMessage(fd, MsgType::Hello, wire));
    ASSERT_TRUE(recvMessage(fd, &type, &payload));
    ASSERT_EQ(type, MsgType::Welcome);
    std::vector<Event> events(48);
    for (std::size_t i = 0; i < events.size(); ++i) {
        events[i].kind = i % 3 == 0   ? EventKind::Store
                         : i % 3 == 1 ? EventKind::Flush
                                      : EventKind::Fence;
        events[i].addr = 0x1000 + 64 * (i / 3);
        events[i].size = events[i].kind == EventKind::Fence ? 0 : 64;
        events[i].seq = i + 1;
    }
    if (how == Misbehaviour::UninternedNameId) {
        // Registers a pool under a name the client never interned.
        events[0].kind = EventKind::RegisterPmem;
        events[0].nameId = 0;
    }
    ASSERT_EQ(ring.tryPushBatch(events.data(), events.size()),
              events.size());
    switch (how) {
      case Misbehaviour::CorruptRingHead:
        shiftRingHead(hello.ringPath, 1ull << 20);
        ASSERT_TRUE(sendMessage(fd, MsgType::Bye, ByeBody{}.serialize()));
        break;
      case Misbehaviour::OversizedControlFrame: {
        MsgHeader header;
        header.type = static_cast<std::uint32_t>(MsgType::ReportBug);
        header.length = static_cast<std::uint32_t>(maxMessageBytes + 1);
        ASSERT_EQ(::write(fd, &header, sizeof(header)),
                  static_cast<ssize_t>(sizeof(header)));
        break;
      }
      case Misbehaviour::VanishWithoutBye:
        ::close(fd);
        return;
      case Misbehaviour::UninternedNameId:
        // The drain may abort the session before the Bye arrives.
        sendMessage(fd, MsgType::Bye, ByeBody{}.serialize());
        break;
      case Misbehaviour::OutOfOrderInternName: {
        WireWriter out;
        out.put(std::uint32_t{1}); // no name 0 came first
        out.putString("pool");
        ASSERT_TRUE(sendMessage(fd, MsgType::InternName, out.bytes()));
        break;
      }
      case Misbehaviour::OutOfRangeHelloEnum:
        break;
    }
    // The daemon aborts the session: it hangs up without a Report.
    EXPECT_TRUE(readable(fd, 10000));
    EXPECT_FALSE(recvMessage(fd, &type, &payload));
    ::close(fd);
}

/** The well-behaved session of the matrix: hashmap_atomic with its
 *  entry flush skipped, so the report holds many bug sites. */
WorkloadOptions
faultyHashmapOptions()
{
    WorkloadOptions workload;
    workload.operations = 2000;
    workload.faults.enable("hmatomic_skip_entry_flush");
    return workload;
}

/** The wire encoding of @p bugs: equal bytes are equal reports. */
std::vector<std::uint8_t>
bugBytes(const std::vector<BugReport> &bugs)
{
    WireWriter out;
    for (const BugReport &bug : bugs)
        putBugReport(out, bug);
    return std::move(out).bytes();
}

std::vector<std::uint8_t>
faultyHashmapLocal()
{
    const auto program = makeWorkload("hashmap_atomic");
    DebuggerConfig config;
    config.model = program->model();
    config.orderSpec = OrderSpec::fromText(program->orderSpecText());
    PmRuntime runtime;
    PmDebugger debugger(config);
    runtime.attach(&debugger);
    program->run(runtime, faultyHashmapOptions());
    runtime.drain();
    debugger.finalize();
    return bugBytes(debugger.bugs().bugs());
}

std::vector<std::uint8_t>
faultyHashmapRemote(const std::string &socket_path)
{
    const auto program = makeWorkload("hashmap_atomic");
    PmRuntime runtime;
    RemoteSink sink;
    RemoteSink::Options options;
    options.socketPath = socket_path;
    options.ringPath = scratchPath("ring");
    options.model = program->model();
    options.orderSpecText = program->orderSpecText();
    std::string error;
    EXPECT_TRUE(sink.connect(options, &error)) << error;
    runtime.attach(&sink);
    program->run(runtime, faultyHashmapOptions());
    ReportBody report;
    EXPECT_TRUE(sink.finish(&report, &error)) << error;
    return bugBytes(report.bugs);
}

class AdversarialClientTest : public ::testing::TestWithParam<Misbehaviour>
{
};

TEST_P(AdversarialClientTest, OtherSessionsStayExactAndDaemonServesOn)
{
    const std::vector<std::uint8_t> local = faultyHashmapLocal();
    ASSERT_FALSE(local.empty());

    ServiceConfig config;
    config.socketPath = scratchPath("sock");
    config.pool.shards = 2;
    ServiceDaemon daemon(config);
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;

    std::vector<std::uint8_t> concurrent;
    std::thread good(
        [&] { concurrent = faultyHashmapRemote(config.socketPath); });
    misbehave(GetParam(), config.socketPath);
    good.join();
    EXPECT_TRUE(concurrent == local)
        << "concurrent session: " << concurrent.size() << " report bytes, "
        << local.size() << " in-process";

    // The daemon is still up and serves the next session exactly.
    EXPECT_TRUE(faultyHashmapRemote(config.socketPath) == local);

    // A rejected Hello opens no session; the others end aborted.
    const bool opened = GetParam() != Misbehaviour::OutOfRangeHelloEnum;
    EXPECT_TRUE(daemon.waitForSessions(opened ? 3 : 2, 10000));
    std::size_t aborted = 0;
    for (const SessionSummary &session : daemon.summaries())
        aborted += session.aborted;
    EXPECT_EQ(aborted, opened ? 1u : 0u);
    daemon.stop();
}

INSTANTIATE_TEST_SUITE_P(
    Misbehaviours, AdversarialClientTest,
    ::testing::Values(Misbehaviour::CorruptRingHead,
                      Misbehaviour::OutOfRangeHelloEnum,
                      Misbehaviour::OversizedControlFrame,
                      Misbehaviour::VanishWithoutBye,
                      Misbehaviour::UninternedNameId,
                      Misbehaviour::OutOfOrderInternName),
    [](const ::testing::TestParamInfo<Misbehaviour> &info) {
        return std::string(toString(info.param));
    });

} // namespace
} // namespace pmdb
