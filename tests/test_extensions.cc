/**
 * @file
 * Tests for the extension features: remove operations on the
 * persistent indexes (crash-consistency clean under the debugger),
 * the parameterized pattern generator (closing the loop against the
 * characterization tool), and a differential test between the online
 * debugger and a post-mortem walk of the recorded stream.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "charz/characterize.hh"
#include "common/rng.hh"
#include "detectors/pmdebugger_detector.hh"
#include "trace/recorder.hh"
#include "workloads/ctree.hh"
#include "workloads/hashmap_atomic.hh"
#include "workloads/hashmap_tx.hh"
#include "workloads/rtree.hh"
#include "workloads/synth_patterns.hh"
#include "workloads/workload.hh"

namespace pmdb
{
namespace
{

/** Fixture with a debugger attached: removes must stay bug-free. */
class RemoveTest : public ::testing::Test
{
  protected:
    RemoveTest() { runtime.attach(&detector); }

    ~RemoveTest() override { runtime.detach(&detector); }

    void
    expectClean()
    {
        runtime.programEnd();
        detector.finalize();
        EXPECT_EQ(detector.bugs().total(), 0u)
            << detector.bugs().summary();
    }

    PmRuntime runtime;
    PmDebuggerDetector detector;
    PmemPool pool{runtime, 32 << 20, "remove.pool"};
    FaultSet noFaults;
};

TEST_F(RemoveTest, HashmapTxInsertRemoveLookup)
{
    PersistentHashmapTx map(pool, noFaults);
    for (std::uint64_t k = 0; k < 1000; ++k)
        map.insert(k, k);
    for (std::uint64_t k = 0; k < 1000; k += 2)
        EXPECT_TRUE(map.remove(k));
    EXPECT_FALSE(map.remove(0));      // already gone
    EXPECT_FALSE(map.remove(5000));   // never present
    EXPECT_EQ(map.count(), 500u);
    for (std::uint64_t k = 0; k < 1000; ++k)
        EXPECT_EQ(map.lookup(k).has_value(), k % 2 == 1) << k;
    map.flushStats();
    expectClean();
}

TEST_F(RemoveTest, HashmapTxReusesFreedBlocks)
{
    PersistentHashmapTx map(pool, noFaults);
    map.insert(1, 10);
    ASSERT_TRUE(map.remove(1));
    const std::size_t used = pool.heapUsed();
    map.insert(2, 20); // should reuse the freed entry block
    EXPECT_EQ(pool.heapUsed(), used + 64);
    map.flushStats();
    expectClean();
}

TEST_F(RemoveTest, HashmapAtomicInsertRemoveLookup)
{
    PersistentHashmapAtomic map(pool, noFaults);
    for (std::uint64_t k = 0; k < 1000; ++k)
        map.insert(k, k);
    for (std::uint64_t k = 0; k < 1000; k += 3)
        EXPECT_TRUE(map.remove(k));
    EXPECT_FALSE(map.remove(3));
    for (std::uint64_t k = 0; k < 1000; ++k)
        EXPECT_EQ(map.lookup(k).has_value(), k % 3 != 0) << k;
    expectClean();
}

TEST_F(RemoveTest, CTreeInsertRemoveLookup)
{
    PersistentCTree tree(pool, noFaults);
    Rng rng(3);
    std::vector<std::uint64_t> keys;
    for (int i = 0; i < 1000; ++i)
        keys.push_back(rng.next());
    for (std::size_t i = 0; i < keys.size(); ++i)
        tree.insert(keys[i], i);
    for (std::size_t i = 0; i < keys.size(); i += 2)
        EXPECT_TRUE(tree.remove(keys[i])) << i;
    EXPECT_FALSE(tree.remove(keys[0]));
    EXPECT_EQ(tree.count(), 500u);
    for (std::size_t i = 0; i < keys.size(); ++i)
        EXPECT_EQ(tree.lookup(keys[i]).has_value(), i % 2 == 1) << i;
    expectClean();
}

TEST_F(RemoveTest, CTreeRemoveDownToEmptyAndRefill)
{
    PersistentCTree tree(pool, noFaults);
    for (std::uint64_t k = 0; k < 64; ++k)
        tree.insert(k, k);
    for (std::uint64_t k = 0; k < 64; ++k)
        EXPECT_TRUE(tree.remove(k)) << k;
    EXPECT_EQ(tree.count(), 0u);
    EXPECT_FALSE(tree.lookup(0).has_value());
    tree.insert(7, 70);
    EXPECT_EQ(tree.lookup(7).value(), 70u);
    expectClean();
}

TEST_F(RemoveTest, RTreeInsertRemoveLookup)
{
    PersistentRTree tree(pool, noFaults);
    Rng rng(4);
    std::vector<std::uint64_t> keys;
    for (int i = 0; i < 1000; ++i)
        keys.push_back(rng.next());
    for (std::size_t i = 0; i < keys.size(); ++i)
        tree.insert(keys[i], i);
    for (std::size_t i = 0; i < keys.size(); i += 2)
        EXPECT_TRUE(tree.remove(keys[i])) << i;
    EXPECT_EQ(tree.count(), 500u);
    for (std::size_t i = 0; i < keys.size(); ++i)
        EXPECT_EQ(tree.lookup(keys[i]).has_value(), i % 2 == 1) << i;
    expectClean();
}

/**
 * Pattern-generator property: characterizing a generated stream must
 * recover the configured parameters (within sampling error) — the
 * generator and the Section 3 characterization validate each other.
 */
struct PatternCase
{
    double collective;
    double d1Weight;
    int storesPerOp;
    /** Expected collective-interval percentage range. Deferred (d>1)
     * operations merge with their successors into dispersed intervals
     * — the paper's own Figure 3 example — so the expected collective
     * fraction drops below collectiveRatio as d1Weight drops. */
    double minCollective;
    double maxCollective;
};

class PatternPropertyTest : public ::testing::TestWithParam<PatternCase>
{
};

TEST_P(PatternPropertyTest, CharacterizationRecoversParameters)
{
    const PatternCase &c = GetParam();
    PatternParams params;
    params.collectiveRatio = c.collective;
    params.storesPerOp = c.storesPerOp;
    params.distanceWeights = {c.d1Weight, 1.0 - c.d1Weight, 0, 0, 0, 0};

    PmRuntime runtime;
    TraceRecorder recorder;
    PmemPool pool(runtime, 32 << 20, "pattern.pool");
    PatternGenerator generator(pool, params, 77, 4096);
    // Record only the generated stream, not the region's allocation.
    runtime.attach(&recorder);
    for (int i = 0; i < 4000; ++i)
        generator.operation();
    generator.drain();
    runtime.detach(&recorder);

    const CharacterizationResult r = characterize(recorder.events());
    EXPECT_NEAR(r.distancePercent(1), c.d1Weight * 100.0, 4.0);
    EXPECT_NEAR(r.distancePercent(2), (1.0 - c.d1Weight) * 100.0, 4.0);
    EXPECT_GE(r.collectivePercent(), c.minCollective);
    EXPECT_LE(r.collectivePercent(), c.maxCollective);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PatternPropertyTest,
    ::testing::Values(PatternCase{1.0, 1.0, 4, 95.0, 100.0},
                      PatternCase{1.0, 0.7, 4, 60.0, 85.0},
                      PatternCase{0.0, 1.0, 4, 0.0, 20.0},
                      PatternCase{0.5, 0.9, 2, 35.0, 65.0},
                      PatternCase{1.0, 0.5, 8, 50.0, 80.0}));

TEST(PatternWorkloadTest, RegisteredAndCleanUnderDebugger)
{
    PmRuntime runtime;
    PmDebuggerDetector detector;
    runtime.attach(&detector);
    auto workload = makeWorkload("synth_patterns");
    ASSERT_NE(workload, nullptr);
    WorkloadOptions options;
    options.operations = 2000;
    workload->run(runtime, options);
    detector.finalize();
    EXPECT_EQ(detector.bugs().total(), 0u)
        << detector.bugs().summary();
}

/**
 * Bytes a recorded stream leaves not durable, by a per-byte post-mortem
 * walk: a store makes its bytes dirty, a flush marks the dirty bytes it
 * covers flushed, and a fence drops every flushed byte.
 */
std::set<Addr>
postMortemUndurableBytes(const std::vector<Event> &events)
{
    std::map<Addr, bool> pending; // byte -> flushed
    for (const Event &event : events) {
        const AddrRange range = event.range();
        if (event.kind == EventKind::Store) {
            for (Addr a = range.start; a < range.end; ++a)
                pending[a] = false;
        } else if (event.kind == EventKind::Flush) {
            for (auto it = pending.lower_bound(range.start);
                 it != pending.end() && it->first < range.end; ++it)
                it->second = true;
        } else if (event.kind == EventKind::Fence) {
            std::erase_if(pending,
                          [](const auto &entry) { return entry.second; });
        }
    }
    std::set<Addr> out;
    for (const auto &entry : pending)
        out.insert(entry.first);
    return out;
}

/**
 * Differential test: the online debugger and a post-mortem walk of the
 * recorded stream must agree on durability verdicts over random
 * pattern streams (they share no bookkeeping code).
 */
class DifferentialTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(DifferentialTest, OnlineAndPostMortemAgreeOnDurability)
{
    PmRuntime runtime;
    PmDebuggerDetector online;
    TraceRecorder recorder;
    runtime.attach(&online);
    runtime.attach(&recorder);

    Rng rng(GetParam());
    for (int i = 0; i < 2000; ++i) {
        const Addr addr = rng.nextBounded(1 << 12);
        const int action = static_cast<int>(rng.nextBounded(10));
        if (action < 6)
            runtime.store(addr, 8);
        else if (action < 9)
            runtime.flush(cacheLineBase(addr), 64);
        else
            runtime.fence();
    }
    runtime.programEnd();

    std::set<Addr> online_bytes;
    for (const BugReport &bug : online.bugs().bugs()) {
        if (bug.type == BugType::NoDurability) {
            for (Addr a = bug.range.start; a < bug.range.end; ++a)
                online_bytes.insert(a);
        }
    }
    EXPECT_EQ(online_bytes, postMortemUndurableBytes(recorder.events()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest,
                         ::testing::Values(11, 22, 33, 44, 55));

} // namespace
} // namespace pmdb
