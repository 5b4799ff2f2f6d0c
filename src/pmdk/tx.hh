/**
 * @file
 * Mini-PMDK undo-log transactions (the epoch persistency model).
 *
 * A Transaction maps onto the paper's epoch section: begin() emits
 * EpochBegin (TX_BEGIN), commit() flushes every range added during the
 * transaction, issues the single closing SFENCE, and emits EpochEnd
 * (TX_END). Stores inside the epoch may persist in any order; the
 * commit barrier guarantees their durability (Section 2.3).
 *
 * Undo logging follows libpmemobj's single-drain design: each
 * addRange() appends a checksummed snapshot of the object's old bytes
 * to the pool's log region and flushes it *without* a fence; torn log
 * entries are detected at recovery via the checksum. Each append also
 * emits a TxLog event carrying the *data object's* address, which is
 * what the redundant-logging detection rule consumes (Section 5.2).
 *
 * Nested transactions collapse into the outermost epoch, exactly as
 * Section 6 describes: only the outermost begin/commit emit epoch
 * events and the commit barrier.
 */

#ifndef PMDB_PMDK_TX_HH
#define PMDB_PMDK_TX_HH

#include <cstdint>
#include <vector>

#include "common/rng.hh" // fnv1a: the log-entry checksum
#include "pmdk/pool.hh"

namespace pmdb
{

/**
 * RAII transaction facade over a pool's transaction state.
 *
 * Usage:
 * @code
 *   Transaction tx(pool);
 *   tx.begin();
 *   tx.addRange(obj, sizeof(Node));
 *   pool.store(obj, ...);
 *   tx.commit();
 * @endcode
 */
class Transaction
{
  public:
    explicit Transaction(PmemPool &pool, ThreadId thread = 0);

    /** Aborts (rolls back) if the transaction is still open. */
    ~Transaction();

    Transaction(const Transaction &) = delete;
    Transaction &operator=(const Transaction &) = delete;

    /** Open the transaction (outermost emits EpochBegin). */
    void begin();

    /**
     * Snapshot [addr, addr+size) into the undo log and register the
     * range for flushing at commit (pmemobj_tx_add_range). Exact
     * re-additions of an already-registered range are skipped, as PMDK
     * does; returns true if a log entry was actually appended.
     */
    bool addRange(Addr addr, std::size_t size);

    /**
     * Register the range for commit-time flushing *without* logging
     * old data (pmemobj_tx_add_range with POBJ_XADD_NO_SNAPSHOT —
     * used for freshly allocated objects).
     */
    void addRangeNoSnapshot(Addr addr, std::size_t size);

    /** Allocate inside the transaction; durability rides the commit. */
    Addr alloc(std::size_t size);

    /** Commit: flush added ranges, truncate log, fence, TX_END. */
    void commit();

    /** Roll back every logged range and close the transaction. */
    void abort();

    bool isOpen() const { return open_; }

    /** Nesting depth of the pool's active transaction (0 = none). */
    static int depth(const PmemPool &pool) { return pool.txDepth_; }

  private:
    PmemPool &pool_;
    ThreadId thread_;
    bool open_ = false;
    bool outermost_ = false;
    /** Ranges this level added (for abort of just this level we still
     * roll back everything; PMDK aborts the whole outer tx too). */
    std::vector<AddrRange> myRanges_;
};

/** On-log-media entry header preceding each snapshot's old bytes. */
struct TxLogEntryHeader
{
    Addr objAddr;
    std::uint64_t size;
    std::uint64_t checksum;
};

/**
 * Transaction recovery over a crash image: scans the pool's log
 * region, validates checksums, and rolls back every intact entry.
 * Used by the cross-failure-semantic checks and the recovery example.
 */
class TxRecovery
{
  public:
    /** One recovered (rolled-back) undo entry. */
    struct RecoveredEntry
    {
        Addr objAddr;
        std::uint64_t size;
        bool checksumOk;
    };

    /** Location of a pool's undo-log region, capturable by value. */
    struct TxLogRegion
    {
        Addr base = 0;
        std::size_t size = 0;
    };

    /**
     * Apply intact undo entries from @p image (a crash image of
     * @p pool's address space) back into the image. Returns the
     * entries found, in log order.
     */
    static std::vector<RecoveredEntry>
    rollback(const PmemPool &pool, std::vector<std::uint8_t> &image);

    /**
     * Pool-free variant for recovery verifiers that outlive the pool
     * (crash-state exploration): same semantics as rollback(), keyed
     * by a log region captured earlier via logRegionOf().
     */
    static std::vector<RecoveredEntry>
    rollbackImage(Addr log_region, std::size_t log_region_size,
                  std::vector<std::uint8_t> &image);

    /** Capture @p pool's log-region location by value. */
    static TxLogRegion logRegionOf(const PmemPool &pool);

    /**
     * Instrumented in-place recovery of a reopened pool (the rollback
     * a real pmemobj_open performs): scan the undo log through the
     * pool's read path, restore every checksum-intact entry with
     * persisted stores, then truncate the log. Restores are made
     * durable *before* the truncation (two drains) — if recovery
     * itself crashes, either the log is still valid and a rerun
     * redoes the idempotent rollback, or every restore has landed.
     * Unlike rollbackImage() this emits the full store/CLF/fence
     * stream, so recovery becomes an execution the model checker can
     * crash again.
     */
    static std::vector<RecoveredEntry> recoverPool(PmemPool &pool);
};

} // namespace pmdb

#endif // PMDB_PMDK_TX_HH
