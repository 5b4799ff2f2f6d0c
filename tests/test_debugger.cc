/**
 * @file
 * Integration tests for PmDebugger: bookkeeping statistics, strand
 * spaces, ablation bookkeeping modes, array overflow, and a
 * randomized property test comparing the debugger's end-of-program
 * durability report against a naive reference tracker.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/rng.hh"
#include "core/debugger.hh"
#include "trace/runtime.hh"

namespace pmdb
{
namespace
{

TEST(DebuggerTest, CountsEvents)
{
    PmRuntime runtime;
    PmDebugger debugger;
    runtime.attach(&debugger);
    runtime.store(0, 8);
    runtime.store(64, 8);
    runtime.flush(0, 64);
    runtime.fence();
    const DebuggerStats stats = debugger.stats();
    EXPECT_EQ(stats.stores, 2u);
    EXPECT_EQ(stats.flushes, 1u);
    EXPECT_EQ(stats.fences, 1u);
}

TEST(DebuggerTest, TreeStaysEmptyForNearestFencePattern)
{
    // Pattern 1: when durability comes from the nearest fence, records
    // die in the array and the tree is never touched.
    PmRuntime runtime;
    PmDebugger debugger;
    runtime.attach(&debugger);
    for (int i = 0; i < 100; ++i) {
        runtime.store(i * 64, 8);
        runtime.flush(i * 64, 64);
        runtime.fence();
    }
    const DebuggerStats stats = debugger.stats();
    EXPECT_EQ(stats.tree.insertions, 0u);
    EXPECT_DOUBLE_EQ(stats.avgTreeNodesPerFenceInterval(), 0.0);
    EXPECT_EQ(stats.array.collectiveInvalidations, 100u);
}

TEST(DebuggerTest, LateFlushedRecordsMigrateToTree)
{
    PmRuntime runtime;
    PmDebugger debugger;
    runtime.attach(&debugger);
    runtime.store(0x1000, 8); // flushed only much later
    for (int i = 0; i < 10; ++i) {
        runtime.store(i * 64, 8);
        runtime.flush(i * 64, 64);
        runtime.fence();
    }
    EXPECT_EQ(debugger.treeNodeCount(), 1u);
    runtime.flush(0x1000, 64);
    runtime.fence();
    EXPECT_EQ(debugger.treeNodeCount(), 0u);
    EXPECT_GT(debugger.stats().avgTreeNodesPerFenceInterval(), 0.0);
}

TEST(DebuggerTest, ArrayOverflowFallsBackToTree)
{
    DebuggerConfig config;
    config.arrayCapacity = 4;
    PmRuntime runtime;
    PmDebugger debugger(std::move(config));
    runtime.attach(&debugger);
    for (int i = 0; i < 10; ++i)
        runtime.store(i * 64, 8);
    runtime.drain();
    const DebuggerStats stats = debugger.stats();
    EXPECT_EQ(stats.array.overflowStores, 6u);
    EXPECT_EQ(debugger.treeNodeCount(), 6u);
    // All ten locations still reported at the end.
    runtime.programEnd();
    EXPECT_EQ(debugger.bugs().countOf(BugType::NoDurability), 10u);
}

TEST(DebuggerTest, StrandSpacesAreIndependent)
{
    DebuggerConfig config;
    config.model = PersistencyModel::Strand;
    PmRuntime runtime;
    PmDebugger debugger(std::move(config));
    runtime.attach(&debugger);

    runtime.strandBegin(0);
    runtime.store(0x100, 8);
    runtime.strandEnd(0);

    runtime.strandBegin(1);
    runtime.store(0x200, 8);
    runtime.flush(0x200, 64);
    // A fence in strand 1 must not touch strand 0's records.
    runtime.fence();
    runtime.strandEnd(1);

    runtime.programEnd();
    // Strand 0's store was never persisted.
    EXPECT_EQ(debugger.bugs().countOf(BugType::NoDurability), 1u);
    EXPECT_EQ(debugger.bugs().bugs()[0].range, AddrRange(0x100, 0x108));
}

TEST(DebuggerTest, FinalizeIsIdempotent)
{
    PmRuntime runtime;
    PmDebugger debugger;
    runtime.attach(&debugger);
    runtime.store(0x100, 8);
    runtime.programEnd();
    debugger.finalize();
    debugger.finalize();
    EXPECT_EQ(debugger.bugs().countOf(BugType::NoDurability), 1u);
}

TEST(DebuggerTest, BugCollectorDeduplicatesSites)
{
    PmRuntime runtime;
    PmDebugger debugger;
    runtime.attach(&debugger);
    for (int i = 0; i < 5; ++i) {
        runtime.store(0x100, 8);
        runtime.flush(0x100, 64);
        runtime.flush(0x100, 64); // same redundant site every loop
        runtime.fence();
    }
    runtime.programEnd();
    EXPECT_EQ(debugger.bugs().countOf(BugType::RedundantFlush), 1u);
    EXPECT_EQ(debugger.bugs().occurrences(), 5u);
}

/** All three bookkeeping modes must reach identical verdicts. */
class BookkeepingModeTest
    : public ::testing::TestWithParam<BookkeepingMode>
{
};

TEST_P(BookkeepingModeTest, DetectsDurabilityBugsIdentically)
{
    DebuggerConfig config;
    config.bookkeeping = GetParam();
    config.arrayCapacity = 64;
    PmRuntime runtime;
    PmDebugger debugger(std::move(config));
    runtime.attach(&debugger);

    // Two persisted locations, two buggy ones (one missing CLF, one
    // missing fence), across several fence intervals.
    runtime.store(0x100, 8);
    runtime.flush(0x100, 64);
    runtime.fence();
    runtime.store(0x200, 8); // missing CLF
    runtime.fence();
    runtime.store(0x300, 8);
    runtime.flush(0x300, 64);
    runtime.fence();
    runtime.store(0x400, 8);
    runtime.flush(0x400, 64); // missing fence
    runtime.programEnd();

    EXPECT_EQ(debugger.bugs().countOf(BugType::NoDurability), 2u);
}

INSTANTIATE_TEST_SUITE_P(Modes, BookkeepingModeTest,
                         ::testing::Values(BookkeepingMode::Hybrid,
                                           BookkeepingMode::TreeOnly,
                                           BookkeepingMode::ArrayOnly));

/**
 * Property test: random store/flush/fence streams; the debugger's
 * durability verdict at program end must match a byte-level reference
 * tracker. Parameterized over seeds and bookkeeping modes.
 */
class DebuggerPropertyTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t,
                                                 BookkeepingMode>>
{
};

TEST_P(DebuggerPropertyTest, EndStateMatchesReferenceTracker)
{
    const auto [seed, mode] = GetParam();
    Rng rng(seed);

    DebuggerConfig config;
    config.bookkeeping = mode;
    config.arrayCapacity = 32; // force overflow paths
    config.mergeThreshold = 8; // force merge paths
    config.detectRedundantFlush = false;
    config.detectFlushNothing = false;
    PmRuntime runtime;
    PmDebugger debugger(std::move(config));
    runtime.attach(&debugger);

    // Reference: per-byte state 0=clean, 1=dirty, 2=flushed.
    constexpr std::size_t space = 1 << 10;
    std::vector<int> state(space, 0);

    for (int step = 0; step < 3000; ++step) {
        const int action = static_cast<int>(rng.nextBounded(100));
        if (action < 60) {
            const Addr addr = rng.nextBounded(space - 16);
            const std::uint32_t size =
                1 + static_cast<std::uint32_t>(rng.nextBounded(16));
            runtime.store(addr, size);
            for (Addr a = addr; a < addr + size; ++a)
                state[a] = 1;
        } else if (action < 90) {
            const Addr line = rng.nextBounded(space / 64) * 64;
            runtime.flush(line, 64);
            for (Addr a = line; a < line + 64; ++a) {
                if (state[a] == 1)
                    state[a] = 2;
            }
        } else {
            runtime.fence();
            for (auto &s : state) {
                if (s == 2)
                    s = 0;
            }
        }
    }
    runtime.programEnd();

    // Bytes the reference says are not durable.
    std::set<Addr> expected;
    for (Addr a = 0; a < space; ++a) {
        if (state[a] != 0)
            expected.insert(a);
    }
    // Bytes the debugger reported as not durable.
    std::set<Addr> reported;
    for (const BugReport &bug : debugger.bugs().bugs()) {
        ASSERT_EQ(bug.type, BugType::NoDurability);
        for (Addr a = bug.range.start; a < bug.range.end; ++a)
            reported.insert(a);
    }
    EXPECT_EQ(reported, expected);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndModes, DebuggerPropertyTest,
    ::testing::Combine(::testing::Values(3, 17, 99, 256, 1024),
                       ::testing::Values(BookkeepingMode::Hybrid,
                                         BookkeepingMode::TreeOnly)));

} // namespace
} // namespace pmdb
