/**
 * @file
 * Unit tests for the instrumentation substrate: event dispatch, name
 * interning, recording/replay and strand tracking.
 */

#include <gtest/gtest.h>

#include "trace/recorder.hh"
#include "trace/runtime.hh"

namespace pmdb
{
namespace
{

TEST(NameTableTest, InterningIsStable)
{
    NameTable names;
    const auto a = names.intern("alpha");
    const auto b = names.intern("beta");
    EXPECT_NE(a, b);
    EXPECT_EQ(names.intern("alpha"), a);
    EXPECT_EQ(names.name(a), "alpha");
    EXPECT_EQ(names.name(b), "beta");
    EXPECT_EQ(names.size(), 2u);
}

TEST(RuntimeTest, DispatchesToAllSinks)
{
    PmRuntime runtime;
    NulgrindSink a, b;
    runtime.attach(&a);
    runtime.attach(&b);
    runtime.store(0x100, 8);
    runtime.flush(0x100, 64);
    runtime.fence();
    EXPECT_EQ(a.total(), 3u);
    EXPECT_EQ(b.total(), 3u);
    EXPECT_EQ(a.count(EventKind::Store), 1u);
    EXPECT_EQ(a.count(EventKind::Flush), 1u);
    EXPECT_EQ(a.count(EventKind::Fence), 1u);
}

TEST(RuntimeTest, DetachStopsDelivery)
{
    PmRuntime runtime;
    NulgrindSink sink;
    runtime.attach(&sink);
    runtime.store(0, 8);
    runtime.detach(&sink);
    runtime.store(0, 8);
    EXPECT_EQ(sink.total(), 1u);
}

TEST(RuntimeTest, SequenceNumbersAreMonotonic)
{
    PmRuntime runtime;
    TraceRecorder recorder;
    runtime.attach(&recorder);
    for (int i = 0; i < 10; ++i)
        runtime.store(i * 8, 8);
    runtime.drain();
    ASSERT_EQ(recorder.events().size(), 10u);
    SeqNum last = 0;
    for (const Event &event : recorder.events()) {
        EXPECT_GT(event.seq, last);
        last = event.seq;
    }
    EXPECT_EQ(runtime.eventCount(), 10u);
}

TEST(RuntimeTest, StrandIdsFlowIntoEvents)
{
    PmRuntime runtime;
    TraceRecorder recorder;
    runtime.attach(&recorder);
    runtime.store(0, 8);            // outside any strand
    runtime.strandBegin(3);
    runtime.store(8, 8);            // inside strand 3
    runtime.strandEnd(3);
    runtime.store(16, 8);           // outside again
    runtime.drain();

    const auto &events = recorder.events();
    ASSERT_EQ(events.size(), 5u);
    EXPECT_EQ(events[0].strand, noStrand);
    EXPECT_EQ(events[2].strand, 3);
    EXPECT_EQ(events[4].strand, noStrand);
}

TEST(RuntimeTest, RegisterPmemInternsName)
{
    PmRuntime runtime;
    TraceRecorder recorder;
    runtime.attach(&recorder);
    runtime.registerPmem("my.var", 0x40, 8);
    ASSERT_EQ(recorder.events().size(), 1u);
    const Event &event = recorder.events()[0];
    EXPECT_EQ(event.kind, EventKind::RegisterPmem);
    ASSERT_NE(event.nameId, noName);
    EXPECT_EQ(runtime.names().name(event.nameId), "my.var");
}

TEST(RecorderTest, ReplayFeedsIdenticalEvents)
{
    PmRuntime runtime;
    TraceRecorder recorder;
    runtime.attach(&recorder);
    runtime.store(0x80, 16);
    runtime.flush(0x80, 64);
    runtime.fence();
    runtime.epochBegin();
    runtime.epochEnd();
    runtime.programEnd();

    NulgrindSink replay_sink;
    TraceReplayer replayer(recorder.events());
    replayer.replay(replay_sink);
    EXPECT_EQ(replay_sink.total(), recorder.events().size());

    NulgrindSink limited;
    replayer.replay(limited, 2);
    EXPECT_EQ(limited.total(), 2u);
}

TEST(RuntimeTest, AppOpIsFreeWithoutDbiSinks)
{
    PmRuntime runtime;
    // Just exercises the no-DBI fast path; must not crash or hang.
    for (int i = 0; i < 1000; ++i)
        runtime.appOp();
    SUCCEED();
}

TEST(RuntimeTest, EventKindNamesAreStable)
{
    EXPECT_STREQ(toString(EventKind::Store), "store");
    EXPECT_STREQ(toString(EventKind::Flush), "flush");
    EXPECT_STREQ(toString(EventKind::Fence), "fence");
    EXPECT_STREQ(toString(FlushKind::Clwb), "clwb");
    EXPECT_STREQ(toString(FlushKind::Clflushopt), "clflushopt");
}

} // namespace
} // namespace pmdb
