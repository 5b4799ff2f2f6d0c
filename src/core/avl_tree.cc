#include "core/avl_tree.hh"

#include <algorithm>

#include "common/logging.hh"

namespace pmdb
{

struct AvlTree::Node
{
    LocationRecord rec;
    Node *left = nullptr;
    Node *right = nullptr;
    int height = 1;
    /** Maximum range.end in this subtree (interval augmentation). */
    Addr maxEnd = 0;

    explicit Node(const LocationRecord &r) : rec(r), maxEnd(r.range.end) {}
};

AvlTree::AvlTree(MergePolicy policy, std::size_t merge_threshold)
    : policy_(policy), mergeThreshold_(merge_threshold)
{
}

AvlTree::~AvlTree()
{
    destroy(root_);
}

void
AvlTree::destroy(Node *node)
{
    if (!node)
        return;
    destroy(node->left);
    destroy(node->right);
    delete node;
}

int
AvlTree::heightOf(const Node *node)
{
    return node ? node->height : 0;
}

void
AvlTree::update(Node *node)
{
    node->height = 1 + std::max(heightOf(node->left), heightOf(node->right));
    node->maxEnd = node->rec.range.end;
    if (node->left)
        node->maxEnd = std::max(node->maxEnd, node->left->maxEnd);
    if (node->right)
        node->maxEnd = std::max(node->maxEnd, node->right->maxEnd);
}

AvlTree::Node *
AvlTree::rotateLeft(Node *node)
{
    ++stats_.reorganizations;
    Node *pivot = node->right;
    node->right = pivot->left;
    pivot->left = node;
    update(node);
    update(pivot);
    return pivot;
}

AvlTree::Node *
AvlTree::rotateRight(Node *node)
{
    ++stats_.reorganizations;
    Node *pivot = node->left;
    node->left = pivot->right;
    pivot->right = node;
    update(node);
    update(pivot);
    return pivot;
}

AvlTree::Node *
AvlTree::rebalance(Node *node)
{
    update(node);
    const int balance = heightOf(node->left) - heightOf(node->right);
    if (balance > 1) {
        if (heightOf(node->left->left) < heightOf(node->left->right))
            node->left = rotateLeft(node->left);
        return rotateRight(node);
    }
    if (balance < -1) {
        if (heightOf(node->right->right) < heightOf(node->right->left))
            node->right = rotateRight(node->right);
        return rotateLeft(node);
    }
    return node;
}

AvlTree::Node *
AvlTree::insertNode(Node *node, const LocationRecord &record)
{
    if (!node)
        return new Node(record);
    const bool goes_left =
        record.range.start < node->rec.range.start ||
        (record.range.start == node->rec.range.start &&
         record.storeSeq < node->rec.storeSeq);
    if (goes_left)
        node->left = insertNode(node->left, record);
    else
        node->right = insertNode(node->right, record);
    return rebalance(node);
}

void
AvlTree::noteInserted(const LocationRecord &record)
{
    ++count_;
    ++stats_.insertions;
    if (record.state == FlushState::Flushed)
        ++flushedCount_;
    if (record.inEpoch)
        ++epochCount_;
}

void
AvlTree::noteRemoved(const LocationRecord &record)
{
    --count_;
    ++stats_.removals;
    if (record.state == FlushState::Flushed)
        --flushedCount_;
    if (record.inEpoch)
        --epochCount_;
}

void
AvlTree::insert(const LocationRecord &record)
{
    if (record.range.empty())
        return;
    root_ = insertNode(root_, record);
    noteInserted(record);
    if (policy_ == MergePolicy::Eager)
        eagerMergeAround(record);
}

namespace
{

/** Recursive interval-overlap visitor with maxEnd pruning. */
template <typename NodeT, typename Fn>
void
overlapVisit(NodeT *node, const AddrRange &range, Fn &&fn)
{
    if (!node || node->maxEnd <= range.start)
        return;
    overlapVisit(node->left, range, fn);
    if (node->rec.range.overlaps(range))
        fn(node);
    if (node->rec.range.start < range.end)
        overlapVisit(node->right, range, fn);
}

} // namespace

void
AvlTree::forEachOverlap(
    const AddrRange &range,
    const std::function<void(const LocationRecord &)> &visit) const
{
    overlapVisit(root_, range,
                 [&](const Node *node) { visit(node->rec); });
}

bool
AvlTree::overlapsAny(const AddrRange &range) const
{
    bool found = false;
    overlapVisit(root_, range, [&](const Node *) { found = true; });
    return found;
}

bool
AvlTree::overlapsAnyWithState(const AddrRange &range,
                              FlushState state) const
{
    bool found = false;
    overlapVisit(root_, range, [&](const Node *node) {
        if (node->rec.state == state)
            found = true;
    });
    return found;
}

AvlTree::FlushOutcome
AvlTree::applyFlush(const AddrRange &range)
{
    FlushOutcome outcome;
    if (!root_)
        return outcome;

    // Pass 1: classify matches; mark fully covered nodes in place
    // (state changes do not affect keys) and remember partially covered
    // nodes for splitting.
    std::vector<LocationRecord> partial;
    overlapVisit(root_, range, [&](Node *node) {
        outcome.hitAny = true;
        if (node->rec.state == FlushState::Flushed)
            outcome.hitFlushed = true;
        else
            outcome.hitUnflushed = true;
        if (range.contains(node->rec.range)) {
            if (node->rec.state != FlushState::Flushed) {
                node->rec.state = FlushState::Flushed;
                ++flushedCount_;
            }
        } else {
            partial.push_back(node->rec);
        }
    });

    // Pass 2: split partially covered nodes (Section 4.3): the covered
    // sub-range becomes Flushed, the uncovered pieces keep their state.
    for (const LocationRecord &rec : partial) {
        bool removed = false;
        root_ = removeNode(root_, rec.range.start, rec.storeSeq, removed);
        if (!removed)
            panic("AvlTree::applyFlush: lost a partially covered node");
        noteRemoved(rec);

        const AddrRange covered = rec.range.intersect(range);
        LocationRecord flushed = rec;
        flushed.range = covered;
        flushed.state = FlushState::Flushed;
        root_ = insertNode(root_, flushed);
        noteInserted(flushed);

        if (rec.range.start < covered.start) {
            LocationRecord head = rec;
            head.range = AddrRange(rec.range.start, covered.start);
            root_ = insertNode(root_, head);
            noteInserted(head);
        }
        if (covered.end < rec.range.end) {
            LocationRecord tail = rec;
            tail.range = AddrRange(covered.end, rec.range.end);
            root_ = insertNode(root_, tail);
            noteInserted(tail);
        }
    }
    return outcome;
}

AvlTree::Node *
AvlTree::removeMin(Node *node, Node *&min_out)
{
    if (!node->left) {
        min_out = node;
        return node->right;
    }
    node->left = removeMin(node->left, min_out);
    return rebalance(node);
}

AvlTree::Node *
AvlTree::removeNode(Node *node, Addr start, SeqNum seq, bool &removed)
{
    if (!node)
        return nullptr;
    if (start < node->rec.range.start ||
        (start == node->rec.range.start && seq < node->rec.storeSeq)) {
        node->left = removeNode(node->left, start, seq, removed);
    } else if (start > node->rec.range.start ||
               seq > node->rec.storeSeq) {
        node->right = removeNode(node->right, start, seq, removed);
    } else {
        removed = true;
        Node *left = node->left;
        Node *right = node->right;
        delete node;
        if (!right)
            return left;
        Node *min = nullptr;
        right = removeMin(right, min);
        min->left = left;
        min->right = right;
        return rebalance(min);
    }
    return rebalance(node);
}

void
AvlTree::removeFlushed(
    const std::function<void(const LocationRecord &)> &on_durable)
{
    // Fast path (the common case in PMDebugger, where short-lived
    // records die in the array): no tree node is flush-pending.
    if (!root_ || flushedCount_ == 0)
        return;
    std::vector<LocationRecord> flushed;
    forEach([&](const LocationRecord &rec) {
        if (rec.state == FlushState::Flushed)
            flushed.push_back(rec);
    });
    for (const LocationRecord &rec : flushed) {
        bool removed = false;
        root_ = removeNode(root_, rec.range.start, rec.storeSeq, removed);
        if (removed) {
            noteRemoved(rec);
            if (on_durable)
                on_durable(rec);
        }
    }
}

void
AvlTree::maybeMerge()
{
    if (policy_ != MergePolicy::Lazy || count_ <= mergeThreshold_)
        return;
    // A merge pass that coalesced nothing will coalesce little until
    // the tree has grown substantially; back off until it is 1.5x the
    // size at which the last attempt came up empty.
    if (count_ <= lastBarrenMergeCount_ + lastBarrenMergeCount_ / 2)
        return;

    std::vector<LocationRecord> records;
    records.reserve(count_);
    collect(root_, records);

    std::vector<LocationRecord> merged;
    merged.reserve(records.size());
    for (const LocationRecord &rec : records) {
        if (!merged.empty()) {
            LocationRecord &last = merged.back();
            if (last.state == rec.state && last.inEpoch == rec.inEpoch &&
                last.range.adjacentOrOverlapping(rec.range)) {
                last.range = last.range.unionWith(rec.range);
                last.storeSeq = std::max(last.storeSeq, rec.storeSeq);
                ++stats_.merges;
                continue;
            }
        }
        merged.push_back(rec);
    }
    if (merged.size() == records.size()) {
        lastBarrenMergeCount_ = count_;
        return; // nothing coalesced; skip the rebuild
    }
    // Back off from the post-merge size too: re-scanning before the
    // tree regrows materially cannot coalesce much.
    lastBarrenMergeCount_ = merged.size();

    rebuildFrom(merged);
    ++stats_.reorganizations;
}

void
AvlTree::eagerMergeAround(const LocationRecord &record)
{
    // Traditional detectors coalesce each new store with adjacent
    // tracked regions immediately (Section 2.2). Iterate until no
    // neighbour of the merged region is mergeable.
    LocationRecord current = record;
    for (;;) {
        // Widen by one byte on each side to catch pure adjacency.
        const AddrRange probe(current.range.start ? current.range.start - 1
                                                  : 0,
                              current.range.end + 1);
        std::vector<LocationRecord> neighbours;
        overlapVisit(root_, probe, [&](const Node *node) {
            const LocationRecord &rec = node->rec;
            const bool is_self = rec.range == current.range &&
                                 rec.storeSeq == current.storeSeq;
            if (!is_self && rec.state == current.state &&
                rec.inEpoch == current.inEpoch) {
                neighbours.push_back(rec);
            }
        });
        if (neighbours.empty())
            return;

        LocationRecord combined = current;
        bool removed = false;
        root_ = removeNode(root_, current.range.start, current.storeSeq,
                           removed);
        if (removed)
            noteRemoved(current);
        for (const LocationRecord &rec : neighbours) {
            removed = false;
            root_ = removeNode(root_, rec.range.start, rec.storeSeq,
                               removed);
            if (!removed)
                continue;
            noteRemoved(rec);
            combined.range = combined.range.unionWith(rec.range);
            combined.storeSeq = std::max(combined.storeSeq, rec.storeSeq);
            ++stats_.merges;
            ++stats_.reorganizations;
        }
        root_ = insertNode(root_, combined);
        noteInserted(combined);
        current = combined;
    }
}

void
AvlTree::collect(const Node *node, std::vector<LocationRecord> &out) const
{
    if (!node)
        return;
    collect(node->left, out);
    out.push_back(node->rec);
    collect(node->right, out);
}

void
AvlTree::forEach(
    const std::function<void(const LocationRecord &)> &visit) const
{
    std::vector<LocationRecord> records;
    records.reserve(count_);
    collect(root_, records);
    for (const LocationRecord &rec : records)
        visit(rec);
}

AvlTree::Node *
AvlTree::buildBalanced(std::vector<LocationRecord> &records, std::size_t lo,
                       std::size_t hi)
{
    if (lo >= hi)
        return nullptr;
    const std::size_t mid = lo + (hi - lo) / 2;
    Node *node = new Node(records[mid]);
    node->left = buildBalanced(records, lo, mid);
    node->right = buildBalanced(records, mid + 1, hi);
    update(node);
    return node;
}

void
AvlTree::rebuildFrom(std::vector<LocationRecord> &records)
{
    destroy(root_);
    root_ = buildBalanced(records, 0, records.size());
    count_ = records.size();
    flushedCount_ = 0;
    epochCount_ = 0;
    for (const LocationRecord &rec : records) {
        if (rec.state == FlushState::Flushed)
            ++flushedCount_;
        if (rec.inEpoch)
            ++epochCount_;
    }
}

void
AvlTree::clearEpochFlags()
{
    // Records from before the epoch are never flagged: with no flagged
    // node there is nothing to visit.
    if (epochCount_ == 0)
        return;
    struct Clearer
    {
        static void
        visit(Node *node)
        {
            if (!node)
                return;
            node->rec.inEpoch = false;
            visit(node->left);
            visit(node->right);
        }
    };
    Clearer::visit(root_);
    epochCount_ = 0;
}

void
AvlTree::clear()
{
    destroy(root_);
    root_ = nullptr;
    count_ = 0;
    flushedCount_ = 0;
    epochCount_ = 0;
    lastBarrenMergeCount_ = 0;
}

int
AvlTree::height() const
{
    return heightOf(root_);
}

bool
AvlTree::checkInvariants() const
{
    struct Checker
    {
        static bool
        visit(const Node *node, std::size_t &count, std::size_t &flushed,
              std::size_t &in_epoch)
        {
            if (!node)
                return true;
            const int lh = heightOf(node->left);
            const int rh = heightOf(node->right);
            if (node->height != 1 + std::max(lh, rh))
                return false;
            if (lh - rh > 1 || rh - lh > 1)
                return false;
            Addr max_end = node->rec.range.end;
            if (node->left) {
                if (node->left->rec.range.start > node->rec.range.start)
                    return false;
                max_end = std::max(max_end, node->left->maxEnd);
            }
            if (node->right) {
                if (node->right->rec.range.start < node->rec.range.start)
                    return false;
                max_end = std::max(max_end, node->right->maxEnd);
            }
            if (node->maxEnd != max_end)
                return false;
            ++count;
            if (node->rec.state == FlushState::Flushed)
                ++flushed;
            if (node->rec.inEpoch)
                ++in_epoch;
            return visit(node->left, count, flushed, in_epoch) &&
                   visit(node->right, count, flushed, in_epoch);
        }
    };
    std::size_t counted = 0;
    std::size_t flushed = 0;
    std::size_t in_epoch = 0;
    if (!Checker::visit(root_, counted, flushed, in_epoch))
        return false;
    return counted == count_ && flushed == flushedCount_ &&
           in_epoch == epochCount_;
}

} // namespace pmdb
