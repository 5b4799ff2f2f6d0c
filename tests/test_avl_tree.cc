/**
 * @file
 * Unit and property tests for the interval-augmented AVL tree,
 * including randomized comparison against a naive reference model and
 * invariant checks after every mutation (parameterized over seeds).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "common/rng.hh"
#include "core/avl_tree.hh"

namespace pmdb
{
namespace
{

LocationRecord
rec(Addr start, Addr end, FlushState state = FlushState::NotFlushed,
    SeqNum seq = 0, bool in_epoch = false)
{
    static SeqNum next_seq = 1;
    if (seq == 0)
        seq = next_seq++;
    return LocationRecord(AddrRange(start, end), state, in_epoch, seq);
}

std::size_t
epochFlagged(const std::vector<LocationRecord> &records)
{
    return static_cast<std::size_t>(
        std::count_if(records.begin(), records.end(),
                      [](const LocationRecord &r) { return r.inEpoch; }));
}

TEST(AvlTreeTest, InsertAndSize)
{
    AvlTree tree;
    EXPECT_TRUE(tree.empty());
    tree.insert(rec(0, 8));
    tree.insert(rec(64, 72));
    tree.insert(rec(128, 136));
    EXPECT_EQ(tree.size(), 3u);
    EXPECT_TRUE(tree.checkInvariants());
}

TEST(AvlTreeTest, OverlapQueries)
{
    AvlTree tree;
    tree.insert(rec(10, 20));
    tree.insert(rec(30, 40));
    EXPECT_TRUE(tree.overlapsAny(AddrRange(15, 16)));
    EXPECT_TRUE(tree.overlapsAny(AddrRange(0, 100)));
    EXPECT_FALSE(tree.overlapsAny(AddrRange(20, 30)));
    EXPECT_FALSE(tree.overlapsAny(AddrRange(40, 50)));
}

TEST(AvlTreeTest, SortedTraversal)
{
    AvlTree tree;
    for (Addr a : {500u, 100u, 300u, 200u, 400u})
        tree.insert(rec(a, a + 8));
    std::vector<Addr> starts;
    tree.forEach([&](const LocationRecord &r) {
        starts.push_back(r.range.start);
    });
    EXPECT_TRUE(std::is_sorted(starts.begin(), starts.end()));
    EXPECT_EQ(starts.size(), 5u);
}

TEST(AvlTreeTest, ApplyFlushFullCoverage)
{
    AvlTree tree;
    tree.insert(rec(10, 20));
    const auto outcome = tree.applyFlush(AddrRange(0, 64));
    EXPECT_TRUE(outcome.hitAny);
    EXPECT_TRUE(outcome.hitUnflushed);
    EXPECT_FALSE(outcome.hitFlushed);

    const auto again = tree.applyFlush(AddrRange(0, 64));
    EXPECT_TRUE(again.hitAny);
    EXPECT_TRUE(again.hitFlushed);
    EXPECT_FALSE(again.hitUnflushed);
}

TEST(AvlTreeTest, ApplyFlushMiss)
{
    AvlTree tree;
    tree.insert(rec(10, 20));
    const auto outcome = tree.applyFlush(AddrRange(100, 164));
    EXPECT_FALSE(outcome.hitAny);
}

TEST(AvlTreeTest, ApplyFlushSplitsPartialOverlap)
{
    AvlTree tree;
    tree.insert(rec(0, 100));
    tree.applyFlush(AddrRange(40, 60)); // covers the middle only
    EXPECT_EQ(tree.size(), 3u);         // head + covered + tail
    EXPECT_TRUE(tree.checkInvariants());

    // Only [40,60) is flushed; a fence removes exactly that piece.
    tree.removeFlushed(nullptr);
    EXPECT_EQ(tree.size(), 2u);
    std::vector<AddrRange> left;
    tree.forEach([&](const LocationRecord &r) { left.push_back(r.range); });
    ASSERT_EQ(left.size(), 2u);
    EXPECT_EQ(left[0], AddrRange(0, 40));
    EXPECT_EQ(left[1], AddrRange(60, 100));
}

TEST(AvlTreeTest, RemoveFlushedInvokesCallback)
{
    AvlTree tree;
    tree.insert(rec(0, 8));
    tree.insert(rec(64, 72));
    tree.applyFlush(AddrRange(0, 8));
    int removed = 0;
    tree.removeFlushed([&](const LocationRecord &r) {
        ++removed;
        EXPECT_EQ(r.range, AddrRange(0, 8));
    });
    EXPECT_EQ(removed, 1);
    EXPECT_EQ(tree.size(), 1u);
}

TEST(AvlTreeTest, LazyMergeCoalescesAdjacentSameState)
{
    AvlTree tree(MergePolicy::Lazy, /*merge_threshold=*/4);
    for (Addr a = 0; a < 6 * 8; a += 8)
        tree.insert(rec(a, a + 8));
    EXPECT_EQ(tree.size(), 6u);
    tree.maybeMerge();
    EXPECT_EQ(tree.size(), 1u); // all adjacent, same state
    EXPECT_TRUE(tree.checkInvariants());
    std::vector<AddrRange> ranges;
    tree.forEach([&](const LocationRecord &r) { ranges.push_back(r.range); });
    EXPECT_EQ(ranges[0], AddrRange(0, 48));
}

TEST(AvlTreeTest, LazyMergeRespectsThreshold)
{
    AvlTree tree(MergePolicy::Lazy, /*merge_threshold=*/100);
    for (Addr a = 0; a < 6 * 8; a += 8)
        tree.insert(rec(a, a + 8));
    tree.maybeMerge();
    EXPECT_EQ(tree.size(), 6u); // below threshold: untouched
}

TEST(AvlTreeTest, LazyMergeKeepsDifferentStatesApart)
{
    AvlTree tree(MergePolicy::Lazy, /*merge_threshold=*/1);
    tree.insert(rec(0, 8, FlushState::NotFlushed));
    tree.insert(rec(8, 16, FlushState::Flushed));
    tree.insert(rec(16, 24, FlushState::NotFlushed));
    tree.maybeMerge();
    EXPECT_EQ(tree.size(), 3u);
}

TEST(AvlTreeTest, EagerMergeCoalescesOnInsert)
{
    AvlTree tree(MergePolicy::Eager);
    tree.insert(rec(0, 8));
    tree.insert(rec(8, 16));  // adjacent: merges immediately
    EXPECT_EQ(tree.size(), 1u);
    tree.insert(rec(100, 108)); // far away: no merge
    EXPECT_EQ(tree.size(), 2u);
    tree.insert(rec(16, 24));   // adjacent to the merged blob
    EXPECT_EQ(tree.size(), 2u);
    EXPECT_GT(tree.stats().merges, 0u);
    EXPECT_TRUE(tree.checkInvariants());
}

TEST(AvlTreeTest, HeightStaysLogarithmic)
{
    AvlTree tree;
    for (Addr a = 0; a < 1024; ++a)
        tree.insert(rec(a * 128, a * 128 + 8));
    EXPECT_EQ(tree.size(), 1024u);
    EXPECT_LE(tree.height(), 15); // 1.44 * log2(1024) + 2
    EXPECT_TRUE(tree.checkInvariants());
}

TEST(AvlTreeTest, ClearEmptiesTree)
{
    AvlTree tree;
    tree.insert(rec(0, 8));
    tree.insert(rec(64, 72, FlushState::NotFlushed, 0, true));
    tree.clear();
    EXPECT_TRUE(tree.empty());
    EXPECT_EQ(tree.epochCount(), 0u);
    EXPECT_FALSE(tree.overlapsAny(AddrRange(0, 8)));
}

TEST(AvlTreeTest, EpochCountFollowsSplitsRemovalsAndClears)
{
    AvlTree tree;
    tree.insert(rec(0, 100, FlushState::NotFlushed, 0, true));
    tree.insert(rec(200, 208));
    EXPECT_EQ(tree.epochCount(), 1u);

    // The split pieces of a flagged record stay flagged.
    tree.applyFlush(AddrRange(40, 60));
    EXPECT_EQ(tree.epochCount(), 3u);
    EXPECT_TRUE(tree.checkInvariants());

    // The fence removes the flushed middle piece.
    tree.removeFlushed(nullptr);
    EXPECT_EQ(tree.epochCount(), 2u);
    EXPECT_TRUE(tree.checkInvariants());

    tree.clearEpochFlags();
    EXPECT_EQ(tree.epochCount(), 0u);
    EXPECT_EQ(tree.size(), 3u);
    EXPECT_TRUE(tree.checkInvariants());
    tree.forEach([](const LocationRecord &r) { EXPECT_FALSE(r.inEpoch); });
}

TEST(AvlTreeTest, LazyMergeKeepsEpochRecordsApartAndCounted)
{
    AvlTree tree(MergePolicy::Lazy, /*merge_threshold=*/1);
    tree.insert(rec(0, 8, FlushState::NotFlushed, 0, true));
    tree.insert(rec(8, 16, FlushState::NotFlushed, 0, true));
    tree.insert(rec(16, 24));
    tree.maybeMerge();
    EXPECT_EQ(tree.size(), 2u); // [0,16) in-epoch, [16,24) not
    EXPECT_EQ(tree.epochCount(), 1u);
    EXPECT_TRUE(tree.checkInvariants());
}

/**
 * Property test: drive the tree and a naive vector-based reference
 * model with the same random operation stream and compare observable
 * behaviour after every step. Parameterized over seeds.
 */
class AvlTreePropertyTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(AvlTreePropertyTest, MatchesReferenceModel)
{
    Rng rng(GetParam());
    AvlTree tree;
    std::vector<LocationRecord> model;

    for (int step = 0; step < 2000; ++step) {
        const int action = static_cast<int>(rng.nextBounded(11));
        if (action < 6) {
            // Insert a small record at a random line-ish address, half
            // of them written inside an epoch.
            const Addr start = rng.nextBounded(1 << 12) * 8;
            const Addr end = start + 8 + rng.nextBounded(56);
            const LocationRecord r = rec(start, end, FlushState::NotFlushed,
                                         0, rng.nextBounded(2) == 0);
            tree.insert(r);
            model.push_back(r);
        } else if (action < 8) {
            // Flush a random aligned line.
            const Addr line = rng.nextBounded(1 << 9) * 64;
            const AddrRange range(line, line + 64);
            tree.applyFlush(range);
            // Reference: full coverage marks; partial coverage splits.
            std::vector<LocationRecord> next;
            for (const LocationRecord &r : model) {
                if (!r.range.overlaps(range)) {
                    next.push_back(r);
                    continue;
                }
                if (range.contains(r.range)) {
                    LocationRecord f = r;
                    f.state = FlushState::Flushed;
                    next.push_back(f);
                    continue;
                }
                const AddrRange covered = r.range.intersect(range);
                LocationRecord f = r;
                f.range = covered;
                f.state = FlushState::Flushed;
                next.push_back(f);
                if (r.range.start < covered.start) {
                    LocationRecord head = r;
                    head.range = AddrRange(r.range.start, covered.start);
                    next.push_back(head);
                }
                if (covered.end < r.range.end) {
                    LocationRecord tail = r;
                    tail.range = AddrRange(covered.end, r.range.end);
                    next.push_back(tail);
                }
            }
            model = std::move(next);
        } else if (action < 10) {
            // Fence: drop flushed records.
            tree.removeFlushed(nullptr);
            std::erase_if(model, [](const LocationRecord &r) {
                return r.state == FlushState::Flushed;
            });
        } else {
            // Epoch end: no record belongs to an epoch any more.
            tree.clearEpochFlags();
            for (LocationRecord &r : model)
                r.inEpoch = false;
        }

        ASSERT_TRUE(tree.checkInvariants()) << "step " << step;
        ASSERT_EQ(tree.size(), model.size()) << "step " << step;
        ASSERT_EQ(tree.epochCount(), epochFlagged(model)) << "step " << step;

        // Compare the full sorted record lists.
        using Key = std::tuple<Addr, Addr, FlushState, bool>;
        std::vector<Key> got, want;
        tree.forEach([&](const LocationRecord &r) {
            got.emplace_back(r.range.start, r.range.end, r.state, r.inEpoch);
        });
        for (const LocationRecord &r : model)
            want.emplace_back(r.range.start, r.range.end, r.state, r.inEpoch);
        std::sort(got.begin(), got.end());
        std::sort(want.begin(), want.end());
        ASSERT_EQ(got, want) << "step " << step;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AvlTreePropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

/** Property: the eager policy preserves byte coverage across merges. */
class EagerMergePropertyTest
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(EagerMergePropertyTest, CoverageIsPreserved)
{
    Rng rng(GetParam());
    AvlTree tree(MergePolicy::Eager);
    std::vector<bool> covered(1 << 12, false);

    for (int step = 0; step < 500; ++step) {
        const Addr start = rng.nextBounded(1 << 11);
        const std::size_t len = 1 + rng.nextBounded(64);
        const Addr end = std::min<Addr>(start + len, covered.size());
        // Records of differing epoch membership never coalesce, so the
        // merges must keep the in-epoch count exact.
        tree.insert(rec(start, end, FlushState::NotFlushed, 0,
                        rng.nextBounded(2) == 0));
        if (rng.nextBounded(16) == 0)
            tree.clearEpochFlags();
        for (Addr a = start; a < end; ++a)
            covered[a] = true;
        ASSERT_TRUE(tree.checkInvariants()) << "step " << step;
    }

    std::vector<bool> tree_covered(covered.size(), false);
    tree.forEach([&](const LocationRecord &r) {
        for (Addr a = r.range.start; a < r.range.end; ++a)
            tree_covered[a] = true;
    });
    EXPECT_EQ(tree_covered, covered);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EagerMergePropertyTest,
                         ::testing::Values(7, 11, 19, 42));

} // namespace
} // namespace pmdb
