/**
 * @file
 * hashmap_atomic: atomic (non-transactional) persistent hashmap
 * (PMDK example).
 *
 * Inserts avoid transactions: the entry is allocated, its fields are
 * written and persisted with a single cache-line writeback, and only
 * then is the bucket head atomically redirected and persisted. All
 * stores of an entry share one cache line, so nearly every CLF
 * interval is a *collective writeback* — the paper notes
 * hashmap_atomic has the highest collective ratio (Figure 2b) and
 * consequently PMDebugger's best speedup (up to 7.5x, Section 7.2).
 *
 * The create path reproduces the real PMDK bug of Figure 9b when
 * enabled: data_store.c wraps map creation in a transaction while
 * create_hashmap calls pmemobj_persist inside it, inserting a
 * redundant fence into the epoch (confirmed by Intel, PMDK PR #4939).
 *
 * Fault-injection points:
 *  - "pmdk_create_bug":        the Figure 9b redundant epoch fence;
 *  - "hmatomic_skip_entry_flush": entry persisted only by the bucket
 *                              CLF that misses it (no durability);
 *  - "hmatomic_double_flush":  entry line flushed twice before the
 *                              fence (redundant flush);
 *  - "hmatomic_flush_empty":   CLF on a never-written scratch line
 *                              (flush nothing);
 *  - "hmatomic_bucket_before_entry": bucket head persisted before the
 *                              entry (no order guarantee).
 */

#ifndef PMDB_WORKLOADS_HASHMAP_ATOMIC_HH
#define PMDB_WORKLOADS_HASHMAP_ATOMIC_HH

#include <cstdint>
#include <optional>

#include "crashsim/crash_points.hh"
#include "pmdk/pool.hh"
#include "pmdk/tx.hh"
#include "workloads/workload.hh"

namespace pmdb
{

/** Persistent atomic hashmap. */
class PersistentHashmapAtomic
{
  public:
    /** One entry, sized to fit a single cache line. */
    struct Entry
    {
        std::uint64_t key;
        std::uint64_t value;
        Addr next;
        std::uint64_t pad[5];
    };
    static_assert(sizeof(Entry) == 64, "entry must fill one cache line");

    struct Meta
    {
        Addr buckets;
        std::uint64_t nBuckets;
        std::uint64_t count;
        /** Scratch line used by the flush-nothing injection. */
        std::uint64_t scratch[8];
    };

    PersistentHashmapAtomic(PmemPool &pool, const FaultSet &faults,
                            PmTestDetector *pmtest = nullptr,
                            std::uint64_t n_buckets = 4096);

    void insert(std::uint64_t key, std::uint64_t value);

    /** Remove @p key (strict unlink + persist); true if present. */
    bool remove(std::uint64_t key);

    std::optional<std::uint64_t> lookup(std::uint64_t key) const;

    std::uint64_t count() const;

    /** Address of the root metadata object. */
    Addr metaAddr() const { return meta_; }

  private:
    PmemPool &pool_;
    const FaultSet &faults_;
    PmTestDetector *pmtest_;
    Addr meta_;
    std::uint64_t nBuckets_;
};

/** The hashmap_atomic workload of Table 4. */
class HashmapAtomicWorkload : public Workload
{
  public:
    const char *name() const override { return "hashmap_atomic"; }

    PersistencyModel model() const override
    {
        return PersistencyModel::Epoch;
    }

    void run(PmRuntime &runtime, const WorkloadOptions &options) override;

    std::string
    orderSpecText() const override
    {
        // The per-op published entry must persist before the bucket
        // head that points at it.
        return "persist_before hashmap_atomic.pending_entry "
               "hashmap_atomic.pending_bucket\n";
    }
};

/**
 * Value crashsim-verified runs store for @p key. Tagging values with a
 * key-derived checksum (never zero) lets the recovery verifier tell a
 * fully persisted entry from a torn or never-flushed one.
 */
std::uint64_t hashmapAtomicTaggedValue(std::uint64_t key);

/**
 * Self-contained recovery verifier for crash-state exploration: walks
 * every bucket chain in the crash image and requires each reachable
 * entry to be intact (in bounds, value matching its key's tag). The
 * element count is deliberately not checked — the count update is its
 * own durable step after publication, so recovery tolerates a stale
 * count but never a dangling or torn entry.
 */
RecoveryVerifier
hashmapAtomicRecoveryVerifier(Addr meta_addr);

/**
 * The same walk over a live pool, for the model checker: every byte
 * it reads lands in the execution's read set. Returns the verifier's
 * verdict ("" when consistent).
 */
std::string hashmapAtomicRecoveryVerdict(const PmemPool &pool,
                                         Addr meta_addr);

} // namespace pmdb

#endif // PMDB_WORKLOADS_HASHMAP_ATOMIC_HH
