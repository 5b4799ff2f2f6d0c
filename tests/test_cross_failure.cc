/**
 * @file
 * Tests for cross-failure semantic checking: crash-image verifiers,
 * the manual recovery path PMDebugger uses, and end-to-end recovery
 * consistency of the transactional workloads via TxRecovery.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "core/cross_failure.hh"
#include "pmdk/pool.hh"
#include "pmdk/tx.hh"
#include "workloads/btree.hh"

namespace pmdb
{
namespace
{

TEST(CrossFailureTest, ConsistentStateReportsNothing)
{
    PmRuntime runtime;
    PmDebugger debugger;
    runtime.attach(&debugger);
    PmemPool pool(runtime, 1 << 20, "xf.pool");

    const Addr a = pool.alloc(64);
    pool.store<std::uint64_t>(a, 5);
    pool.persist(a, 8);

    const bool found = CrossFailureChecker::check(
        debugger, pool.device(),
        [a](const std::vector<std::uint8_t> &image) -> std::string {
            std::uint64_t v = 0;
            std::memcpy(&v, image.data() + a, 8);
            return v == 5 ? "" : "value lost";
        },
        {.seq = runtime.eventCount()});
    EXPECT_FALSE(found);
    EXPECT_EQ(debugger.bugs().total(), 0u);
}

TEST(CrossFailureTest, InconsistencyIsReportedThroughDebugger)
{
    PmRuntime runtime;
    PmDebugger debugger;
    runtime.attach(&debugger);
    PmemPool pool(runtime, 1 << 20, "xf.pool");

    const Addr value = pool.alloc(64);
    const Addr flag = pool.alloc(64);
    pool.store<std::uint64_t>(value, 77); // never persisted
    pool.store<std::uint64_t>(flag, 1);
    pool.persist(flag, 8);

    const bool found = CrossFailureChecker::check(
        debugger, pool.device(),
        [value, flag](const std::vector<std::uint8_t> &image)
            -> std::string {
            std::uint64_t f = 0, v = 0;
            std::memcpy(&f, image.data() + flag, 8);
            std::memcpy(&v, image.data() + value, 8);
            if (f == 1 && v != 77)
                return "flag committed but value unpersisted";
            return "";
        },
        {.seq = runtime.eventCount()});
    EXPECT_TRUE(found);
    EXPECT_EQ(debugger.bugs().countOf(BugType::CrossFailureSemantic), 1u);
    EXPECT_EQ(debugger.bugs().bugs().front().seq, runtime.eventCount());
}

TEST(CrossFailureTest, ExplicitLandedSubsetSelectsPendingLines)
{
    // Two lines flushed under the same fence window: an explicit
    // landed-line subset must persist exactly the chosen one.
    PmRuntime runtime;
    PmDebugger debugger;
    runtime.attach(&debugger);
    PmemPool pool(runtime, 1 << 20, "xf.pool");

    const Addr a = pool.alloc(64);
    const Addr b = pool.alloc(64);
    pool.store<std::uint64_t>(a, 11);
    pool.store<std::uint64_t>(b, 22);
    pool.flush(a, 8); // both pending, unfenced
    pool.flush(b, 8);

    const bool found = CrossFailureChecker::check(
        debugger, pool.device(),
        [a, b](const std::vector<std::uint8_t> &image) -> std::string {
            std::uint64_t va = 0, vb = 0;
            std::memcpy(&va, image.data() + a, 8);
            std::memcpy(&vb, image.data() + b, 8);
            if (vb == 22 && va != 11)
                return "b landed without a";
            return "";
        },
        {.seq = runtime.eventCount(),
         .landedLines = std::vector<std::uint64_t>{cacheLineIndex(b)}});
    EXPECT_TRUE(found);
    EXPECT_EQ(debugger.bugs().countOf(BugType::CrossFailureSemantic), 1u);
    EXPECT_EQ(debugger.bugs().bugs().front().seq, runtime.eventCount());
}

TEST(CrossFailureTest, BTreeRecoversConsistentlyFromMidTxCrash)
{
    // End-to-end: crash in the middle of a b_tree insert, run log
    // recovery over the crash image, and verify the recovered tree is
    // a consistent prefix (all previously committed keys present).
    PmRuntime runtime;
    FaultSet no_faults;
    PmemPool pool(runtime, 16 << 20, "btree.pool");
    PersistentBTree tree(pool, no_faults);

    for (std::uint64_t k = 1; k <= 200; ++k)
        tree.insert(k * 1000, k);

    // Open a transaction by hand and crash before commit.
    Transaction tx(pool);
    tx.begin();
    const Addr meta = pool.root(sizeof(PersistentBTree::Meta));
    tx.addRange(meta, sizeof(PersistentBTree::Meta));
    auto meta_val = pool.load<PersistentBTree::Meta>(meta);
    meta_val.count = 9999; // torn update
    pool.store(meta, meta_val);

    CrashSimulator sim(pool.device());
    auto image = sim.crashImage(CrashPolicy::CommitPending);
    TxRecovery::rollback(pool, image);

    // After rollback, the metadata must show the pre-crash count.
    PersistentBTree::Meta recovered{};
    std::memcpy(&recovered, image.data() + meta, sizeof(recovered));
    EXPECT_EQ(recovered.count, 200u);
    tx.abort();
}

TEST(CrossFailureTest, UntrackedPoolDies)
{
    PmRuntime runtime;
    PmDebugger debugger;
    runtime.attach(&debugger);
    PmemPool pool(runtime, 1 << 20, "xf.pool",
                  /*track_persistence=*/false);
    EXPECT_DEATH(CrossFailureChecker::check(
                     debugger, pool.device(),
                     [](const std::vector<std::uint8_t> &) {
                         return std::string();
                     },
                     {}),
                 "does not track persistence");
}

TEST(CrashPolicyTest, PoliciesOrderedByOptimism)
{
    PmRuntime runtime;
    PmemPool pool(runtime, 1 << 20, "xf.pool");
    const Addr a = pool.alloc(64);
    pool.store<std::uint64_t>(a, 9);
    pool.flush(a, 8); // pending, unfenced

    CrashSimulator sim(pool.device());
    std::uint64_t dropped = 0, committed = 0;
    {
        auto image = sim.crashImage(CrashPolicy::DropPending);
        std::memcpy(&dropped, image.data() + a, 8);
    }
    {
        auto image = sim.crashImage(CrashPolicy::CommitPending);
        std::memcpy(&committed, image.data() + a, 8);
    }
    EXPECT_EQ(dropped, 0u);
    EXPECT_EQ(committed, 9u);
}

} // namespace
} // namespace pmdb
