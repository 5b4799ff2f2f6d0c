/**
 * @file
 * Unit tests for the mini-PMDK pool: allocation alignment and reuse,
 * the root object, instrumented persist primitives.
 */

#include <gtest/gtest.h>

#include <vector>

#include "pmdk/pool.hh"
#include "trace/recorder.hh"

namespace pmdb
{
namespace
{

class PoolTest : public ::testing::Test
{
  protected:
    PoolTest() : pool(runtime, 4 << 20, "test.pool") {}

    PmRuntime runtime;
    PmemPool pool;
};

TEST_F(PoolTest, AllocReturnsCacheLineAlignedZeroedMemory)
{
    const Addr a = pool.alloc(100);
    const Addr b = pool.alloc(100);
    EXPECT_EQ(a % cacheLineSize, 0u);
    EXPECT_EQ(b % cacheLineSize, 0u);
    EXPECT_NE(a, b);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(pool.load<std::uint8_t>(a + i), 0u);
}

TEST_F(PoolTest, AllocationsAreImmediatelyDurable)
{
    const Addr a = pool.alloc(64);
    EXPECT_TRUE(pool.device().isDurable(AddrRange::fromSize(a, 64)));
}

TEST_F(PoolTest, FreeAndReuseSameSizeClass)
{
    const Addr a = pool.alloc(64);
    const std::size_t used = pool.heapUsed();
    pool.freeObj(a);
    EXPECT_LT(pool.heapUsed(), used);
    const Addr b = pool.alloc(64);
    EXPECT_EQ(a, b); // free list reuse
}

TEST_F(PoolTest, DoubleFreePanics)
{
    const Addr a = pool.alloc(64);
    pool.freeObj(a);
    EXPECT_DEATH(pool.freeObj(a), "double free");
}

TEST_F(PoolTest, RootIsStableAndSized)
{
    const Addr root = pool.root(256);
    EXPECT_EQ(root, pool.root(256));
    EXPECT_EQ(root, pool.root(16)); // smaller re-request is fine
    // The heap must not collide with the root object.
    const Addr a = pool.alloc(64);
    EXPECT_GE(a, root + 256);
}

TEST_F(PoolTest, StoreAndLoadRoundTrip)
{
    const Addr a = pool.alloc(64);
    pool.store<std::uint64_t>(a, 0xdeadbeef);
    EXPECT_EQ(pool.load<std::uint64_t>(a), 0xdeadbeefu);
}

TEST_F(PoolTest, PersistMakesDataDurable)
{
    const Addr a = pool.alloc(64);
    pool.store<std::uint64_t>(a, 7);
    EXPECT_FALSE(pool.device().isDurable(AddrRange::fromSize(a, 8)));
    pool.persist(a, 8);
    EXPECT_TRUE(pool.device().isDurable(AddrRange::fromSize(a, 8)));
    std::uint64_t v = 0;
    pool.device().readPersisted(a, &v, 8);
    EXPECT_EQ(v, 7u);
}

TEST_F(PoolTest, FlushEmitsOneEventPerCoveredLine)
{
    TraceRecorder recorder;
    runtime.attach(&recorder);
    const Addr a = pool.alloc(256);
    recorder.clear();
    pool.flush(a, 130); // covers 3 lines
    runtime.drain();
    int flushes = 0;
    for (const Event &event : recorder.events()) {
        if (event.kind == EventKind::Flush) {
            ++flushes;
            EXPECT_EQ(event.addr % cacheLineSize, 0u);
            EXPECT_EQ(event.size, cacheLineSize);
        }
    }
    EXPECT_EQ(flushes, 3);
    runtime.detach(&recorder);
}

TEST_F(PoolTest, WriteBytesEmitsStoreEvent)
{
    TraceRecorder recorder;
    runtime.attach(&recorder);
    const Addr a = pool.alloc(64);
    recorder.clear();
    const std::uint32_t v = 42;
    pool.writeBytes(a, &v, sizeof(v));
    runtime.drain();
    ASSERT_EQ(recorder.events().size(), 1u);
    EXPECT_EQ(recorder.events()[0].kind, EventKind::Store);
    EXPECT_EQ(recorder.events()[0].addr, a);
    EXPECT_EQ(recorder.events()[0].size, sizeof(v));
    runtime.detach(&recorder);
}

TEST_F(PoolTest, AllocAndRegisterEmitOnTheCallersThread)
{
    TraceRecorder recorder;
    runtime.attach(&recorder);
    // 4 KiB zeroes 64 lines, so the allocator's periodic drain fence
    // is emitted too.
    const Addr a = pool.alloc(4096, 3);
    pool.registerVariable("test.var", a, 8, 3);
    const auto &events = recorder.events();
    ASSERT_FALSE(events.empty());
    EXPECT_EQ(events.back().kind, EventKind::RegisterPmem);
    int fences = 0;
    for (const Event &event : events) {
        EXPECT_EQ(event.thread, 3) << toString(event.kind);
        fences += event.kind == EventKind::Fence;
    }
    EXPECT_GE(fences, 2) << "drain fence plus the closing fence";
    runtime.detach(&recorder);
}

TEST_F(PoolTest, HeaderLineNeverAliasesDataLines)
{
    // The allocator keeps the block header on its own cache line so
    // header persists never write back user data.
    const Addr a = pool.alloc(64);
    EXPECT_NE(cacheLineBase(a - 1), cacheLineBase(a));
}

TEST(PoolStandaloneTest, TrackPersistenceOffSkipsDeviceSink)
{
    PmRuntime runtime;
    PmemPool pool(runtime, 1 << 20, "perf.pool",
                  /*track_persistence=*/false);
    const Addr a = pool.alloc(64);
    pool.store<std::uint64_t>(a, 1);
    pool.persist(a, 8);
    // The volatile image still works; the persistence domain is not
    // tracked (the device never saw any events, so no line is dirty).
    EXPECT_EQ(pool.load<std::uint64_t>(a), 1u);
    EXPECT_EQ(pool.device().dirtyLineCount(), 0u);
    EXPECT_EQ(pool.device().pendingLineCount(), 0u);
    EXPECT_FALSE(pool.device().tracksPersistence());
}

TEST(PoolStandaloneTest, OnlyATrackedPoolKeepsADurableImage)
{
    PmRuntime runtime;
    PmemPool tracked(runtime, 1 << 20, "tracked.pool");
    EXPECT_TRUE(tracked.device().tracksPersistence());
    EXPECT_EQ(tracked.device().persistedBytes().size(), 1u << 20);

    // Reopening an image untracked hands that very buffer to the
    // volatile image: nothing is copied and no durable image exists.
    std::vector<std::uint8_t> image(1 << 20, 0x5a);
    const std::uint8_t *bytes = image.data();
    PmemPool reopened(runtime, std::move(image), "reopened.pool",
                      /*track_persistence=*/false);
    EXPECT_FALSE(reopened.device().tracksPersistence());
    EXPECT_EQ(reopened.device().size(), 1u << 20);
    EXPECT_EQ(reopened.device().rawVolatile(0), bytes);
    EXPECT_EQ(reopened.load<std::uint8_t>(4096), 0x5a);
}

TEST(PoolStandaloneTest, UntrackedDeviceRefusesEveryDurableEntryPoint)
{
    PmRuntime runtime;
    PmemPool pool(runtime, 1 << 20, "perf.pool",
                  /*track_persistence=*/false);
    PmemDevice &device = pool.device();
    const char *cause = "does not track persistence";

    Event store;
    store.kind = EventKind::Store;
    store.addr = 4096;
    store.size = 8;
    device.handle(store); // no durable image involved
    Event begin = store;
    begin.kind = EventKind::EpochBegin;
    device.handle(begin);

    for (EventKind kind : {EventKind::Flush, EventKind::Fence,
                           EventKind::EpochEnd, EventKind::JoinStrand}) {
        SCOPED_TRACE(toString(kind));
        Event event = store;
        event.kind = kind;
        EXPECT_DEATH(device.handle(event), cause);
    }
    std::uint64_t value = 0;
    EXPECT_DEATH(device.persistedBytes(), cause);
    EXPECT_DEATH(device.readPersisted(4096, &value, 8), cause);
    EXPECT_DEATH(device.isDurable(AddrRange::fromSize(4096, 8)), cause);
    EXPECT_DEATH(device.setPersistenceObserver(nullptr), cause);
    EXPECT_DEATH(CrashSimulator{device}, cause);
    EXPECT_DEATH(device.reset(), cause);
    EXPECT_DEATH(device.releaseImages(), cause);
}

TEST(PoolStandaloneTest, TooSmallPoolIsFatal)
{
    PmRuntime runtime;
    EXPECT_DEATH(PmemPool(runtime, 1024, "tiny"), "too small");
}

} // namespace
} // namespace pmdb
