/**
 * @file
 * Interval-augmented AVL tree of memory-location records.
 *
 * This is the long-lived half of PMDebugger's hybrid bookkeeping space
 * (Section 4.1): locations whose durability cannot be guaranteed in the
 * short term are re-distributed here at fences, where repeated
 * search/insertion is amortized by the balanced structure. The same
 * tree class (with an eager merge policy) backs the Pmemcheck baseline
 * model, whose per-store tree maintenance is precisely the overhead the
 * paper's characterization shows to be wasted.
 *
 * Nodes are keyed by range start and augmented with the subtree's
 * maximum range end, enabling O(log n + k) overlap queries. Every
 * structural rotation, node merge and rebuild is counted as a "tree
 * reorganization" — the statistic behind the paper's 359,209 vs 788
 * comparison (Section 7.5).
 */

#ifndef PMDB_CORE_AVL_TREE_HH
#define PMDB_CORE_AVL_TREE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/location.hh"

namespace pmdb
{

/** Counters describing tree maintenance work. */
struct TreeStats
{
    std::uint64_t insertions = 0;
    std::uint64_t removals = 0;
    /** Rotations + merges + rebuilds (the paper's "reorganizations"). */
    std::uint64_t reorganizations = 0;
    std::uint64_t merges = 0;
};

/** When adjacent same-state nodes are coalesced. */
enum class MergePolicy
{
    /**
     * Merge only when the node count exceeds a threshold (PMDebugger,
     * Section 4.4: avoids paying restructuring cost per operation).
     */
    Lazy,
    /**
     * Try to merge with neighbours on every insertion (the traditional
     * tree bookkeeping of Pmemcheck-style detectors, Section 2.2).
     */
    Eager,
};

/**
 * AVL tree of LocationRecords keyed by range start.
 *
 * Overlapping inserts are stored as distinct nodes; the flush-update
 * path splits partially covered nodes. The tree never stores empty
 * ranges.
 */
class AvlTree
{
  public:
    explicit AvlTree(MergePolicy policy = MergePolicy::Lazy,
                     std::size_t merge_threshold = 500);

    ~AvlTree();

    AvlTree(const AvlTree &) = delete;
    AvlTree &operator=(const AvlTree &) = delete;

    /** Insert a record (applies the eager merge policy if selected). */
    void insert(const LocationRecord &record);

    /** Number of live nodes. */
    std::size_t size() const { return count_; }

    bool empty() const { return count_ == 0; }

    /** Number of live nodes flagged as written in the current epoch. */
    std::size_t epochCount() const { return epochCount_; }

    /** True if any node overlaps @p range. */
    bool overlapsAny(const AddrRange &range) const;

    /** Outcome of applying one CLF to the tree. */
    struct FlushOutcome
    {
        /** The CLF overlapped at least one tracked record. */
        bool hitAny = false;
        /** It overlapped at least one not-yet-flushed record. */
        bool hitUnflushed = false;
        /** It overlapped at least one already-flushed record. */
        bool hitFlushed = false;
    };

    /**
     * Apply a CLF over @p range: fully covered nodes become Flushed;
     * partially covered nodes are split (covered piece Flushed,
     * uncovered pieces keep their state), per Section 4.3.
     */
    FlushOutcome applyFlush(const AddrRange &range);

    /**
     * Fence processing (Section 4.4): remove every Flushed node, whose
     * durability the fence now guarantees. @p on_durable is invoked for
     * each removed record.
     */
    void removeFlushed(
        const std::function<void(const LocationRecord &)> &on_durable);

    /**
     * Coalesce adjacent nodes with identical state/epoch flags if the
     * node count exceeds the merge threshold (lazy policy), rebuilding
     * the tree balanced. Called by the debugger after fences.
     */
    void maybeMerge();

    /** Visit all nodes in key order. */
    void forEach(
        const std::function<void(const LocationRecord &)> &visit) const;

    /**
     * Clear the epoch membership flag on every node (Section 5). O(1)
     * when no node is flagged, the common case at a clean epoch end.
     */
    void clearEpochFlags();

    /** Remove every node (no durability callbacks). */
    void clear();

    const TreeStats &stats() const { return stats_; }

    /** Height of the tree (0 when empty); exposed for property tests. */
    int height() const;

    /**
     * Verify AVL and interval-augmentation invariants and the node,
     * flushed and in-epoch counts (for tests).
     */
    bool checkInvariants() const;

  private:
    struct Node;

    Node *insertNode(Node *node, const LocationRecord &record);
    Node *removeMin(Node *node, Node *&min_out);
    Node *removeNode(Node *node, Addr start, SeqNum seq, bool &removed);
    Node *rebalance(Node *node);
    Node *rotateLeft(Node *node);
    Node *rotateRight(Node *node);
    static int heightOf(const Node *node);
    static void update(Node *node);
    void destroy(Node *node);
    void collect(const Node *node,
                 std::vector<LocationRecord> &out) const;
    Node *buildBalanced(std::vector<LocationRecord> &records,
                        std::size_t lo, std::size_t hi);
    void rebuildFrom(std::vector<LocationRecord> &records);
    void eagerMergeAround(const LocationRecord &record);
    /** Keep the node counts exact as a record enters / leaves. */
    void noteInserted(const LocationRecord &record);
    void noteRemoved(const LocationRecord &record);

    Node *root_ = nullptr;
    std::size_t count_ = 0;
    /** Number of nodes currently in the Flushed state (fast path for
     * fence processing: nothing to remove when zero). */
    std::size_t flushedCount_ = 0;
    /** Number of nodes flagged inEpoch (fast path for epoch end:
     * nothing to report or clear when zero). */
    std::size_t epochCount_ = 0;
    /** Node count at the last merge attempt that coalesced nothing;
     * re-attempting before the tree grows past it again is wasted. */
    std::size_t lastBarrenMergeCount_ = 0;
    MergePolicy policy_;
    std::size_t mergeThreshold_;
    TreeStats stats_;
};

} // namespace pmdb

#endif // PMDB_CORE_AVL_TREE_HH
