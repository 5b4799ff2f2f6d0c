/**
 * @file
 * The memory-location array and CLF-interval metadata (Sections 4.1-4.4)
 * — the short-lived, fast half of PMDebugger's hybrid bookkeeping space.
 *
 * Store records for the current *fence interval* are appended to a
 * fixed-size array (O(1), no re-organization — Pattern 3). A list of
 * per-CLF-interval metadata nodes records each interval's array span,
 * address bounds and collective flush state, so that one CLWB covering
 * an interval's bounds flips the whole interval to all-flushed in O(1)
 * (Pattern 2), and a fence invalidates all-flushed intervals
 * collectively without visiting their records (Pattern 1). Records that
 * survive a fence are re-distributed into the AVL tree.
 */

#ifndef PMDB_CORE_MEM_ARRAY_HH
#define PMDB_CORE_MEM_ARRAY_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/avl_tree.hh"
#include "core/location.hh"
#include "trace/event.hh"

namespace pmdb
{

/** Collective flushing state of a CLF interval (Section 4.1). */
enum class IntervalFlushState : std::uint8_t
{
    NotFlushed,
    PartiallyFlushed,
    AllFlushed,
};

/** Metadata node for one CLF interval (Figure 5, right). */
struct ClfIntervalMeta
{
    /** First record index of the interval in the array. */
    std::uint32_t startIdx = 0;
    /** One past the last record index. */
    std::uint32_t endIdx = 0;
    /** Min/max address range of the records collected in the interval. */
    AddrRange bounds;
    IntervalFlushState state = IntervalFlushState::NotFlushed;

    bool empty() const { return endIdx <= startIdx; }
};

/** Counters for the array's collective-processing effectiveness. */
struct ArrayStats
{
    /** Intervals invalidated wholesale at fences (records never visited). */
    std::uint64_t collectiveInvalidations = 0;
    /** Records freed without individual examination. */
    std::uint64_t recordsCollectivelyFreed = 0;
    /** Records moved into the AVL tree at fences. */
    std::uint64_t recordsMovedToTree = 0;
    /** Records that became durable and were dropped individually. */
    std::uint64_t recordsDroppedIndividually = 0;
    /** Stores that overflowed the fixed-size array into the tree. */
    std::uint64_t overflowStores = 0;
    /** High-water mark of array occupancy. */
    std::uint32_t maxUsage = 0;
};

/** Outcome of applying one CLF to a bookkeeping structure. */
struct FlushOutcome
{
    bool hitAny = false;
    bool hitUnflushed = false;
    bool hitFlushed = false;

    void
    combine(const FlushOutcome &other)
    {
        hitAny |= other.hitAny;
        hitUnflushed |= other.hitUnflushed;
        hitFlushed |= other.hitFlushed;
    }
};

/**
 * Fixed-capacity array of location records for one fence interval,
 * plus the CLF-interval metadata list that enables collective updates.
 */
class MemoryLocationArray
{
  public:
    explicit MemoryLocationArray(std::size_t capacity);

    bool full() const { return size_ >= capacity_; }
    std::uint32_t size() const { return size_; }
    std::size_t capacity() const { return capacity_; }

    /**
     * Append a store record to the current CLF interval (§4.2).
     * Returns false when the array is full: the caller then tracks the
     * record in the AVL tree instead. Defined inline — this is the
     * single hottest call of the whole detector (one per store), and
     * the batched dispatch path relies on it inlining into the
     * store-run loop.
     */
    bool
    append(const LocationRecord &record)
    {
        if (full())
            return false;

        if (!intervalOpen_) {
            ClfIntervalMeta meta;
            meta.startIdx = size_;
            meta.endIdx = size_;
            intervals_.push_back(meta);
            intervalOpen_ = true;
        }

        records_[size_] = record;
        ++size_;
        stats_.maxUsage = std::max(stats_.maxUsage, size_);

        ClfIntervalMeta &meta = intervals_.back();
        meta.endIdx = size_;
        meta.bounds = meta.bounds.unionWith(record.range);
        return true;
    }

    /**
     * Append a run of store records in bulk (batched dispatch fast
     * path). Equivalent to calling append() once per event — the
     * interval bounds union is associative and size_/endIdx/maxUsage
     * are monotone within the run, so updating the metadata once at
     * the end leaves identical state and stats. Returns the number of
     * records appended; fewer than @p count means the array filled and
     * the caller tracks the rest in the AVL tree.
     */
    std::uint32_t
    appendRun(const Event *events, std::uint32_t count, bool in_epoch)
    {
        const std::uint32_t room =
            static_cast<std::uint32_t>(capacity_) - size_;
        const std::uint32_t n = std::min(count, room);
        if (n == 0)
            return 0;

        if (!intervalOpen_) {
            ClfIntervalMeta meta;
            meta.startIdx = size_;
            meta.endIdx = size_;
            intervals_.push_back(meta);
            intervalOpen_ = true;
        }

        ClfIntervalMeta &meta = intervals_.back();
        AddrRange bounds = meta.bounds;
        LocationRecord *out = records_.data() + size_;
        for (std::uint32_t i = 0; i < n; ++i) {
            const AddrRange range = events[i].range();
            out[i] = LocationRecord(range, FlushState::NotFlushed,
                                    in_epoch, events[i].seq);
            bounds = bounds.unionWith(range);
        }
        size_ += n;
        meta.endIdx = size_;
        meta.bounds = bounds;
        stats_.maxUsage = std::max(stats_.maxUsage, size_);
        return n;
    }

    /**
     * Apply a CLF over @p range (§4.3). Collectively marks intervals
     * whose bounds the CLF covers; scans records of partially covered
     * intervals; split pieces that escape the flush go to @p tree.
     * Afterwards the current CLF interval is closed (§4.3 "starts a
     * new CLF interval").
     */
    FlushOutcome applyFlush(const AddrRange &range, AvlTree &tree);

    /**
     * Fence processing (§4.4): all-flushed intervals are invalidated
     * collectively; surviving records are dropped (if flushed) or moved
     * into @p tree (if not). Resets the array for the next fence
     * interval.
     */
    void processFence(AvlTree &tree);

    /**
     * Array-only ablation fence: drop durable records and compact
     * survivors into a single fresh interval instead of re-distributing
     * them to the tree.
     */
    void compactSurvivors();

    /** True if any live record overlaps @p range. */
    bool overlapsAny(const AddrRange &range) const;

    /**
     * Visit every live record with its *effective* flush state, which
     * folds in the interval's collective state.
     */
    void forEachLive(
        const std::function<void(const LocationRecord &, FlushState)>
            &visit) const;

    /** Clear the epoch membership flag on all live records (§5). */
    void clearEpochFlags();

    const std::vector<ClfIntervalMeta> &intervals() const
    {
        return intervals_;
    }

    const ArrayStats &stats() const { return stats_; }

    /** Record an overflow store (tracked in the tree instead). */
    void noteOverflow() { ++stats_.overflowStores; }

  private:
    FlushState effectiveState(std::uint32_t idx,
                              const ClfIntervalMeta &meta) const;

    std::vector<LocationRecord> records_;
    std::vector<ClfIntervalMeta> intervals_;
    std::size_t capacity_;
    std::uint32_t size_ = 0;
    /** Whether stores extend the last interval or must start a new one. */
    bool intervalOpen_ = false;
    ArrayStats stats_;
};

} // namespace pmdb

#endif // PMDB_CORE_MEM_ARRAY_HH
