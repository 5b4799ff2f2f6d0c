/**
 * @file
 * Unit tests for mini-PMDK transactions: epoch event shape, commit
 * durability, abort rollback, nesting collapse, exact-range dedup,
 * and log recovery from crash images.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "pmdk/pool.hh"
#include "pmdk/tx.hh"
#include "trace/recorder.hh"

namespace pmdb
{
namespace
{

class TxTest : public ::testing::Test
{
  protected:
    TxTest() : pool(runtime, 4 << 20, "tx.pool")
    {
        runtime.attach(&recorder);
    }

    int
    countKind(EventKind kind) const
    {
        int n = 0;
        for (const Event &event : recorder.events()) {
            if (event.kind == kind)
                ++n;
        }
        return n;
    }

    // Declared first so it outlives the runtime: the pool's destructor
    // detaches the device, which drains pending events to the recorder.
    TraceRecorder recorder;
    PmRuntime runtime;
    PmemPool pool;
};

TEST_F(TxTest, CommitMakesLoggedStoresDurable)
{
    const Addr a = pool.alloc(64);
    Transaction tx(pool);
    tx.begin();
    tx.addRange(a, 8);
    pool.store<std::uint64_t>(a, 99);
    EXPECT_FALSE(pool.device().isDurable(AddrRange::fromSize(a, 8)));
    tx.commit();
    EXPECT_TRUE(pool.device().isDurable(AddrRange::fromSize(a, 8)));
    std::uint64_t v = 0;
    pool.device().readPersisted(a, &v, 8);
    EXPECT_EQ(v, 99u);
}

TEST_F(TxTest, EpochHasExactlyOneFence)
{
    const Addr a = pool.alloc(64);
    recorder.clear();
    Transaction tx(pool);
    tx.begin();
    tx.addRange(a, 8);
    pool.store<std::uint64_t>(a, 1);
    tx.commit();

    // Between EpochBegin and EpochEnd there must be exactly one fence
    // (the commit barrier) — the property the redundant-epoch-fence
    // rule checks.
    bool in_epoch = false;
    int fences_in_epoch = 0;
    for (const Event &event : recorder.events()) {
        if (event.kind == EventKind::EpochBegin)
            in_epoch = true;
        else if (event.kind == EventKind::EpochEnd)
            in_epoch = false;
        else if (event.kind == EventKind::Fence && in_epoch)
            ++fences_in_epoch;
    }
    EXPECT_EQ(fences_in_epoch, 1);
    EXPECT_EQ(countKind(EventKind::EpochBegin), 1);
    EXPECT_EQ(countKind(EventKind::EpochEnd), 1);
}

TEST_F(TxTest, AddRangeEmitsTxLogWithObjectAddress)
{
    const Addr a = pool.alloc(64);
    recorder.clear();
    Transaction tx(pool);
    tx.begin();
    EXPECT_TRUE(tx.addRange(a, 16));
    runtime.drain();
    bool saw = false;
    for (const Event &event : recorder.events()) {
        if (event.kind == EventKind::TxLog) {
            saw = true;
            EXPECT_EQ(event.addr, a);
            EXPECT_EQ(event.size, 16u);
        }
    }
    EXPECT_TRUE(saw);
    tx.commit();
}

TEST_F(TxTest, ExactDuplicateAddRangeIsDeduped)
{
    const Addr a = pool.alloc(64);
    Transaction tx(pool);
    tx.begin();
    EXPECT_TRUE(tx.addRange(a, 16));
    EXPECT_FALSE(tx.addRange(a, 16)); // PMDK-style dedup
    EXPECT_TRUE(tx.addRange(a + 8, 8)); // overlap-but-not-exact logs
    tx.commit();
}

TEST_F(TxTest, AbortRollsBackLoggedStores)
{
    const Addr a = pool.alloc(64);
    pool.store<std::uint64_t>(a, 1);
    pool.persist(a, 8);

    Transaction tx(pool);
    tx.begin();
    tx.addRange(a, 8);
    pool.store<std::uint64_t>(a, 2);
    EXPECT_EQ(pool.load<std::uint64_t>(a), 2u);
    tx.abort();
    EXPECT_EQ(pool.load<std::uint64_t>(a), 1u);
}

TEST_F(TxTest, DestructorAbortsOpenTransaction)
{
    const Addr a = pool.alloc(64);
    pool.store<std::uint64_t>(a, 5);
    pool.persist(a, 8);
    {
        Transaction tx(pool);
        tx.begin();
        tx.addRange(a, 8);
        pool.store<std::uint64_t>(a, 6);
        // falls out of scope without commit
    }
    EXPECT_EQ(pool.load<std::uint64_t>(a), 5u);
}

TEST_F(TxTest, NestedTransactionsCollapseToOuterEpoch)
{
    const Addr a = pool.alloc(64);
    recorder.clear();
    Transaction outer(pool);
    outer.begin();
    outer.addRange(a, 8);
    pool.store<std::uint64_t>(a, 1);
    {
        Transaction inner(pool);
        inner.begin();
        EXPECT_EQ(Transaction::depth(pool), 2);
        inner.addRange(a + 8, 8);
        pool.store<std::uint64_t>(a + 8, 2);
        inner.commit();
        // Inner commit emits no epoch events and no fence.
        EXPECT_EQ(countKind(EventKind::EpochEnd), 0);
        EXPECT_EQ(countKind(EventKind::Fence), 0);
    }
    outer.commit();
    EXPECT_EQ(countKind(EventKind::EpochBegin), 1);
    EXPECT_EQ(countKind(EventKind::EpochEnd), 1);
    // Both stores durable at the outermost barrier (Section 6).
    EXPECT_TRUE(pool.device().isDurable(AddrRange::fromSize(a, 16)));
}

TEST_F(TxTest, TxAllocIsDurableAtCommitOnly)
{
    Transaction tx(pool);
    tx.begin();
    const Addr a = tx.alloc(48);
    pool.store<std::uint64_t>(a, 3);
    EXPECT_FALSE(pool.device().isDurable(AddrRange::fromSize(a, 8)));
    tx.commit();
    EXPECT_TRUE(pool.device().isDurable(AddrRange::fromSize(a, 8)));
}

TEST_F(TxTest, RecoveryRollsBackTornTransaction)
{
    const Addr a = pool.alloc(128);
    const Addr b = a + 64;
    pool.store<std::uint64_t>(a, 10);
    pool.store<std::uint64_t>(b, 10);
    pool.persist(a, 128);

    // Mid-transaction crash: the log entries are flushed (addRange
    // flushes them), so force them into the persistence domain with a
    // fence before the crash — then verify recovery restores old
    // values.
    Transaction tx(pool);
    tx.begin();
    tx.addRange(a, 8);
    tx.addRange(b, 8);
    pool.store<std::uint64_t>(a, 20);
    pool.store<std::uint64_t>(b, 20);
    pool.fence();
    // no commit: crash here

    std::vector<std::uint8_t> image = pool.device().persistedBytes();
    const auto recovered = TxRecovery::rollback(pool, image);
    ASSERT_EQ(recovered.size(), 2u);
    EXPECT_TRUE(recovered[0].checksumOk);
    EXPECT_TRUE(recovered[1].checksumOk);

    std::uint64_t va = 0, vb = 0;
    std::memcpy(&va, image.data() + a, 8);
    std::memcpy(&vb, image.data() + b, 8);
    EXPECT_EQ(va, 10u);
    EXPECT_EQ(vb, 10u);
    tx.abort(); // clean up the live transaction
}

TEST_F(TxTest, RecoveryAfterCommitFindsEmptyLog)
{
    const Addr a = pool.alloc(64);
    Transaction tx(pool);
    tx.begin();
    tx.addRange(a, 8);
    pool.store<std::uint64_t>(a, 42);
    tx.commit();

    std::vector<std::uint8_t> image = pool.device().persistedBytes();
    const auto recovered = TxRecovery::rollback(pool, image);
    EXPECT_TRUE(recovered.empty());
    std::uint64_t v = 0;
    std::memcpy(&v, image.data() + a, 8);
    EXPECT_EQ(v, 42u);
}

TEST_F(TxTest, ChecksumDetectsTornLogEntry)
{
    const std::uint64_t h1 = fnv1a("hello", 5);
    const std::uint64_t h2 = fnv1a("hellp", 5);
    EXPECT_NE(h1, h2);
    EXPECT_EQ(h1, fnv1a("hello", 5));
}

TEST_F(TxTest, BeginTwicePanics)
{
    Transaction tx(pool);
    tx.begin();
    EXPECT_DEATH(tx.begin(), "already open");
    tx.commit();
}

TEST_F(TxTest, CommitWithoutBeginPanics)
{
    Transaction tx(pool);
    EXPECT_DEATH(tx.commit(), "not open");
}

} // namespace
} // namespace pmdb
