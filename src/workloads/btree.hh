/**
 * @file
 * b_tree: transactional persistent B-tree (PMDK example workload).
 *
 * An order-8 B-tree whose inserts run inside mini-PMDK transactions
 * (epoch persistency): every modified node is undo-logged with
 * addRange and flushed at the commit barrier, matching the PM program
 * pattern of PMDK's btree example.
 *
 * Fault-injection points (bug suite):
 *  - "btree_skip_log_meta":   do not log/flush the tree metadata update
 *                             (lack durability in epoch);
 *  - "btree_persist_in_tx":   call pmemobj-persist inside the epoch
 *                             (redundant epoch fence);
 *  - "btree_double_log":      log the target leaf twice
 *                             (redundant logging).
 */

#ifndef PMDB_WORKLOADS_BTREE_HH
#define PMDB_WORKLOADS_BTREE_HH

#include <cstdint>
#include <optional>

#include "crashsim/crash_points.hh"
#include "pmdk/pool.hh"
#include "pmdk/tx.hh"
#include "workloads/workload.hh"

namespace pmdb
{

/** Persistent transactional B-tree. */
class PersistentBTree
{
  public:
    /** Maximum keys per node (order 8 B-tree). */
    static constexpr int maxKeys = 7;

    /** On-media node layout. */
    struct Node
    {
        std::uint32_t nKeys;
        std::uint32_t isLeaf;
        std::uint64_t keys[maxKeys];
        std::uint64_t values[maxKeys];
        Addr children[maxKeys + 1];
    };

    /** On-media root metadata (the pool's root object). */
    struct Meta
    {
        Addr rootNode;
        std::uint64_t count;
    };

    PersistentBTree(PmemPool &pool, const FaultSet &faults,
                    PmTestDetector *pmtest = nullptr);

    /** Insert (or update) @p key inside one transaction. */
    void insert(std::uint64_t key, std::uint64_t value);

    /** Look up @p key (reads are not instrumented). */
    std::optional<std::uint64_t> lookup(std::uint64_t key) const;

    std::uint64_t count() const;

    /** Address of the root metadata object. */
    Addr metaAddr() const { return meta_; }

  private:
    Addr allocNode(Transaction &tx, bool leaf);
    void insertNonFull(Transaction &tx, Addr node_addr, std::uint64_t key,
                       std::uint64_t value);
    void splitChild(Transaction &tx, Addr parent_addr, int index);

    PmemPool &pool_;
    const FaultSet &faults_;
    PmTestDetector *pmtest_;
    Addr meta_;
};

/** The b_tree workload of Table 4. */
class BTreeWorkload : public Workload
{
  public:
    const char *name() const override { return "b_tree"; }

    PersistencyModel model() const override
    {
        return PersistencyModel::Epoch;
    }

    void run(PmRuntime &runtime, const WorkloadOptions &options) override;
};

/**
 * Self-contained recovery verifier for crash-state exploration: runs
 * undo-log recovery over the crash image (TxRecovery::rollbackImage),
 * then walks the recovered tree checking structural invariants (node
 * bounds, key order, fanout) and that the number of reachable keys
 * matches the durable metadata count. Captures everything by value, so
 * it stays valid after the pool is destroyed.
 */
RecoveryVerifier
btreeRecoveryVerifier(Addr meta_addr, TxRecovery::TxLogRegion log_region);

/**
 * The tree walk alone over a live pool whose undo log has already been
 * rolled back, for the model checker: every byte it reads lands in
 * the execution's read set. Returns the verdict ("" when consistent).
 */
std::string btreeRecoveryVerdict(const PmemPool &pool, Addr meta_addr);

} // namespace pmdb

#endif // PMDB_WORKLOADS_BTREE_HH
