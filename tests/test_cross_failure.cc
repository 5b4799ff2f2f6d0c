/**
 * @file
 * Tests for cross-failure semantic checking: the manual recovery path
 * PMDebugger uses (CaseEnv::checkCrossFailure over the device's durable
 * image) and end-to-end recovery consistency of the transactional
 * workloads via TxRecovery.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "pmdk/pool.hh"
#include "pmdk/tx.hh"
#include "workloads/btree.hh"
#include "workloads/bug_suite.hh"

namespace pmdb
{
namespace
{

/** A verifier that requires the 8-byte @p value at @p addr. */
RecoveryVerifier
requireValue(Addr addr, std::uint64_t value)
{
    return [addr, value](const std::vector<std::uint8_t> &image)
               -> std::string {
        std::uint64_t v = 0;
        std::memcpy(&v, image.data() + addr, 8);
        return v == value ? "" : "value lost";
    };
}

TEST(CrossFailureTest, ConsistentStateReportsNothing)
{
    PmRuntime runtime;
    PmDebugger debugger;
    runtime.attach(&debugger);
    PmemPool pool(runtime, 1 << 20, "xf.pool");

    const Addr a = pool.alloc(64);
    pool.store<std::uint64_t>(a, 5);
    pool.persist(a, 8);

    CaseEnv env{runtime};
    env.pmdebugger = &debugger;
    env.checkCrossFailure(pool.device(), requireValue(a, 5));
    EXPECT_EQ(debugger.bugs().total(), 0u);

    std::size_t external = 0;
    CaseEnv remote{runtime};
    remote.externalBugSink = [&external](const BugReport &) {
        ++external;
    };
    remote.checkCrossFailure(pool.device(), requireValue(a, 5));
    EXPECT_EQ(external, 0u);
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

    // With both sinks set, the in-process debugger takes the report.
    std::size_t external = 0;
    CaseEnv env{runtime};
    env.pmdebugger = &debugger;
    env.externalBugSink = [&external](const BugReport &) { ++external; };
    env.checkCrossFailure(
        pool.device(),
        [value, flag](const std::vector<std::uint8_t> &image)
            -> std::string {
            std::uint64_t f = 0, v = 0;
            std::memcpy(&f, image.data() + flag, 8);
            std::memcpy(&v, image.data() + value, 8);
            if (f == 1 && v != 77)
                return "flag committed but value unpersisted";
            return "";
        });
    EXPECT_EQ(debugger.bugs().countOf(BugType::CrossFailureSemantic), 1u);
    const BugReport &report = debugger.bugs().bugs().front();
    EXPECT_EQ(report.seq, runtime.eventCount());
    EXPECT_EQ(report.detail, "flag committed but value unpersisted");
    EXPECT_EQ(external, 0u);
}

TEST(CrossFailureTest, InconsistencyIsReportedThroughExternalSink)
{
    // No in-process debugger (the detection-service client): the
    // report goes to the external sink, stamped the same way.
    PmRuntime runtime;
    PmemPool pool(runtime, 1 << 20, "xf.pool");

    const Addr a = pool.alloc(64);
    pool.store<std::uint64_t>(a, 9);
    pool.flush(a, 8); // pending, unfenced: not in the durable image

    std::vector<BugReport> reports;
    CaseEnv env{runtime};
    env.externalBugSink = [&reports](const BugReport &report) {
        reports.push_back(report);
    };
    env.checkCrossFailure(pool.device(), requireValue(a, 9));
    ASSERT_EQ(reports.size(), 1u);
    EXPECT_EQ(reports.front().type, BugType::CrossFailureSemantic);
    EXPECT_EQ(reports.front().seq, runtime.eventCount());
    EXPECT_EQ(reports.front().detail, "value lost");
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

    // Fence so the log's writebacks land, then crash.
    pool.fence();
    std::vector<std::uint8_t> image = pool.device().persistedBytes();
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
    CaseEnv env{runtime};
    env.pmdebugger = &debugger;
    EXPECT_DEATH(env.checkCrossFailure(
                     pool.device(),
                     [](const std::vector<std::uint8_t> &) {
                         return std::string();
                     }),
                 "does not track persistence");
}

} // namespace
} // namespace pmdb
