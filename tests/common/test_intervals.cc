/** @file Unit tests for the interval set. */

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "common/audit.hh"
#include "common/intervals.hh"
#include "common/rng.hh"
#include "../test_support.hh"

namespace emv {
namespace {

TEST(IntervalSetTest, InsertAndContains)
{
    IntervalSet set;
    set.insert(10, 20);
    EXPECT_TRUE(set.contains(10));
    EXPECT_TRUE(set.contains(19));
    EXPECT_FALSE(set.contains(20));
    EXPECT_FALSE(set.contains(9));
}

TEST(IntervalSetTest, CoalescesAdjacent)
{
    IntervalSet set;
    set.insert(0, 10);
    set.insert(10, 20);
    EXPECT_EQ(set.count(), 1u);
    EXPECT_TRUE(set.containsRange(0, 20));
}

TEST(IntervalSetTest, CoalescesOverlapping)
{
    IntervalSet set;
    set.insert(0, 15);
    set.insert(10, 30);
    set.insert(25, 40);
    EXPECT_EQ(set.count(), 1u);
    EXPECT_EQ(set.totalLength(), 40u);
}

TEST(IntervalSetTest, InsertSwallowsExisting)
{
    IntervalSet set;
    set.insert(10, 12);
    set.insert(20, 22);
    set.insert(0, 100);
    EXPECT_EQ(set.count(), 1u);
    EXPECT_EQ(set.totalLength(), 100u);
}

TEST(IntervalSetTest, EraseSplits)
{
    IntervalSet set;
    set.insert(0, 100);
    set.erase(40, 60);
    EXPECT_EQ(set.count(), 2u);
    EXPECT_TRUE(set.containsRange(0, 40));
    EXPECT_TRUE(set.containsRange(60, 100));
    EXPECT_FALSE(set.contains(50));
}

TEST(IntervalSetTest, EraseAcrossIntervals)
{
    IntervalSet set;
    set.insert(0, 10);
    set.insert(20, 30);
    set.insert(40, 50);
    set.erase(5, 45);
    EXPECT_EQ(set.totalLength(), 10u);
    EXPECT_TRUE(set.containsRange(0, 5));
    EXPECT_TRUE(set.containsRange(45, 50));
}

TEST(IntervalSetTest, EmptyOperationsAreNoops)
{
    IntervalSet set;
    set.insert(5, 5);
    set.erase(1, 1);
    EXPECT_TRUE(set.empty());
}

TEST(IntervalSetTest, Largest)
{
    IntervalSet set;
    EXPECT_FALSE(set.largest().has_value());
    set.insert(0, 10);
    set.insert(100, 150);
    set.insert(200, 220);
    auto largest = set.largest();
    ASSERT_TRUE(largest.has_value());
    EXPECT_EQ(largest->start, 100u);
    EXPECT_EQ(largest->length(), 50u);
}

TEST(IntervalSetTest, FindFitBestFit)
{
    IntervalSet set;
    set.insert(0, 0x10000);        // 64K
    set.insert(0x100000, 0x102000);  // 8K — best fit for 8K.
    auto fit = set.findFit(0x2000, 0x1000);
    ASSERT_TRUE(fit.has_value());
    EXPECT_EQ(fit->start, 0x100000u);
}

TEST(IntervalSetTest, FindFitRespectsAlignment)
{
    IntervalSet set;
    set.insert(0x1800, 0x4800);
    auto fit = set.findFit(0x1000, 0x1000);
    ASSERT_TRUE(fit.has_value());
    EXPECT_EQ(fit->start % 0x1000, 0u);
    EXPECT_GE(fit->start, 0x1800u);
}

TEST(IntervalSetTest, FindFitFailsWhenTooSmall)
{
    IntervalSet set;
    set.insert(0, 0x1000);
    EXPECT_FALSE(set.findFit(0x2000).has_value());
}

TEST(IntervalSetTest, FindFitHighPrefersTop)
{
    IntervalSet set;
    set.insert(0, 0x100000);
    set.insert(0x400000, 0x500000);
    auto fit = set.findFitHigh(0x1000, 0x1000);
    ASSERT_TRUE(fit.has_value());
    EXPECT_EQ(fit->start, 0x4ff000u);
}

TEST(IntervalSetTest, FindFitHighSkipsSmallTopInterval)
{
    IntervalSet set;
    set.insert(0, 0x100000);
    set.insert(0x400000, 0x402000);  // Too small for 16K.
    auto fit = set.findFitHigh(0x4000, 0x1000);
    ASSERT_TRUE(fit.has_value());
    EXPECT_EQ(fit->start, 0x100000u - 0x4000u);
}

TEST(IntervalSetTest, IntersectsRange)
{
    IntervalSet set;
    set.insert(10, 20);
    EXPECT_TRUE(set.intersectsRange(15, 30));
    EXPECT_TRUE(set.intersectsRange(0, 11));
    EXPECT_FALSE(set.intersectsRange(20, 30));
    EXPECT_FALSE(set.intersectsRange(0, 10));
}

TEST(IntervalSetTest, CoveredBytesInRange)
{
    IntervalSet set;
    set.insert(0, 10);
    set.insert(20, 30);
    EXPECT_EQ(set.coveredBytesInRange(0, 30), 20u);
    EXPECT_EQ(set.coveredBytesInRange(5, 25), 10u);
    EXPECT_EQ(set.coveredBytesInRange(10, 20), 0u);
}

TEST(IntervalSetTest, RandomizedInsertEraseConsistency)
{
    // Property: the set always equals a reference bitmap.
    Rng rng(77);
    IntervalSet set;
    std::vector<bool> ref(512, false);
    for (int step = 0; step < 2000; ++step) {
        const Addr a = rng.nextBelow(512);
        const Addr b = a + 1 + rng.nextBelow(64);
        const Addr hi = std::min<Addr>(b, 512);
        if (rng.nextBool(0.5)) {
            set.insert(a, hi);
            for (Addr i = a; i < hi; ++i)
                ref[i] = true;
        } else {
            set.erase(a, hi);
            for (Addr i = a; i < hi; ++i)
                ref[i] = false;
        }
    }
    for (Addr i = 0; i < 512; ++i)
        ASSERT_EQ(set.contains(i), ref[i]) << "at " << i;
    Addr expect_total = 0;
    for (bool b : ref)
        expect_total += b ? 1 : 0;
    EXPECT_EQ(set.totalLength(), expect_total);
}

TEST(IntervalSetTest, CheckpointRoundTripReplacesContents)
{
    IntervalSet set;
    set.insert(10, 20);
    set.insert(40, 60);
    const auto bytes = test::ckptBytes(set);
    IntervalSet restored;
    restored.insert(0, 1000);  // Replaced on restore, not merged.
    ASSERT_TRUE(test::ckptRestore(bytes, restored));
    EXPECT_EQ(test::ckptBytes(restored), bytes);
    EXPECT_EQ(restored.count(), 2u);
    EXPECT_TRUE(restored.containsRange(10, 20));
    EXPECT_TRUE(restored.containsRange(40, 60));
    EXPECT_FALSE(restored.contains(30));
}

TEST(IntervalSetTest, LargestPrefersLowestOfEquals)
{
    IntervalSet set;
    set.insert(300, 350);
    set.insert(100, 150);
    set.insert(200, 220);
    EXPECT_EQ(set.largest(), (Interval{100, 150}));
    set.erase(100, 150);
    EXPECT_EQ(set.largest(), (Interval{300, 350}));
}

TEST(IntervalSetTest, FindFitPrefersLowestOfEquallyShort)
{
    IntervalSet set;
    set.insert(0x300000, 0x302000);
    set.insert(0x100000, 0x102000);
    set.insert(0x0, 0x10000);
    EXPECT_EQ(set.findFit(0x2000, 0x1000),
              (Interval{0x100000, 0x102000}));
    // Alignment can disqualify a short interval; the next shortest
    // that still fits wins.
    set.insert(0x200800, 0x203000);
    EXPECT_EQ(set.findFit(0x2000, 0x1000),
              (Interval{0x100000, 0x102000}));
    EXPECT_EQ(set.findFit(0x2000, 0x200000), (Interval{0x0, 0x2000}));
}

TEST(IntervalSetTest, HighestTakesFromTheTopDown)
{
    IntervalSet set;
    set.insert(0, 10);
    set.insert(20, 30);
    set.insert(40, 45);
    EXPECT_EQ(set.highest(3), (std::vector<Interval>{{42, 45}}));
    EXPECT_EQ(set.highest(12),
              (std::vector<Interval>{{40, 45}, {23, 30}}));
    EXPECT_EQ(set.highest(25).size(), 3u);
    EXPECT_TRUE(set.highest(26).empty());
    EXPECT_TRUE(set.highest(0).empty());
}

TEST(IntervalSetTest, TotalLengthFollowsEveryEdit)
{
    Rng rng(11);
    IntervalSet set;
    for (int i = 0; i < 500; ++i) {
        const Addr start = rng.nextBelow(1000);
        const Addr end = start + 1 + rng.nextBelow(50);
        if (rng.nextBool(0.6))
            set.insert(start, end);
        else
            set.erase(start, end);
        Addr covered = 0;
        for (const auto &iv : set.intervals())
            covered += iv.length();
        ASSERT_EQ(set.totalLength(), covered);
        std::optional<Interval> longest;
        for (const auto &iv : set.intervals()) {
            if (!longest || iv.length() > longest->length())
                longest = iv;
        }
        ASSERT_EQ(set.largest(), longest);
    }
}

TEST(IntervalSetTest, BuildsFromCoalescedRuns)
{
    const std::vector<Interval> runs{{0, 10}, {20, 35}};
    const IntervalSet set(runs);
    EXPECT_EQ(set.intervals(), runs);
    EXPECT_EQ(set.totalLength(), 25u);
    EXPECT_EQ(set.largest(), (Interval{20, 35}));
}

TEST(IntervalSetTest, WorkCountsIntervalsTouched)
{
    IntervalSet set;
    for (Addr i = 0; i < 100; ++i)
        set.insert(10 * i, 10 * i + 5);
    const std::uint64_t before = IntervalSet::threadWork();
    (void)set.largest();
    (void)set.containsRange(30, 35);
    EXPECT_EQ(IntervalSet::threadWork() - before, 2u);
    (void)set.intervals();
    EXPECT_EQ(IntervalSet::threadWork() - before, 102u);
}

TEST(IntervalSetTest, EndEditsTouchOneInterval)
{
    // Growing or shrinking an interval at either end edits its index
    // nodes in place (one interval of work, no remove and re-add);
    // the audit checks both indexes and the total after every edit.
    audit::setEnabled(true);
    audit::resetCounters();
    IntervalSet set;
    set.insert(100, 200);
    set.insert(300, 400);
    const auto work = [&set](auto edit) {
        const std::uint64_t before = IntervalSet::threadWork();
        edit(set);
        return IntervalSet::threadWork() - before;
    };
    EXPECT_EQ(work([](IntervalSet &s) { s.insert(200, 201); }), 1u);
    EXPECT_EQ(work([](IntervalSet &s) { s.insert(99, 100); }), 1u);
    EXPECT_EQ(work([](IntervalSet &s) { s.erase(200, 201); }), 1u);
    EXPECT_EQ(work([](IntervalSet &s) { s.erase(99, 101); }), 1u);
    EXPECT_EQ(work([](IntervalSet &s) { s.insert(250, 300); }), 1u);
    EXPECT_EQ(set.intervals(),
              (std::vector<Interval>{{101, 200}, {250, 400}}));
    // Bridging two intervals removes one and grows the other; a split
    // is the one edit that adds a node.
    EXPECT_EQ(work([](IntervalSet &s) { s.insert(150, 260); }), 2u);
    EXPECT_EQ(work([](IntervalSet &s) { s.erase(200, 210); }), 2u);
    EXPECT_EQ(set.intervals(),
              (std::vector<Interval>{{101, 200}, {210, 400}}));
    EXPECT_EQ(set.totalLength(), 289u);
    EXPECT_EQ(set.largest(), (Interval{210, 400}));
    EXPECT_GT(audit::checkCount(), 0u);
    EXPECT_EQ(audit::failureCount(), 0u);
    audit::setEnabled(false);
}

} // namespace
} // namespace emv
