/** @file Unit tests for the buddy frame allocator. */

#include <gtest/gtest.h>

#include <set>

#include "common/audit.hh"
#include "common/rng.hh"
#include "mem/buddy_allocator.hh"
#include "../test_support.hh"

namespace emv::mem {
namespace {

TEST(BuddyTest, FreshAllocatorIsAllFree)
{
    BuddyAllocator buddy(0, 16 * MiB);
    EXPECT_EQ(buddy.freeBytes(), 16 * MiB);
    EXPECT_EQ(buddy.largestFreeRun(), 16 * MiB);
    EXPECT_DOUBLE_EQ(buddy.fragmentationIndex(), 0.0);
}

TEST(BuddyTest, AllocateReturnsAlignedBlocks)
{
    BuddyAllocator buddy(0, 16 * MiB);
    for (unsigned order : {0u, 3u, 9u}) {
        auto block = buddy.allocate(order);
        ASSERT_TRUE(block.has_value());
        EXPECT_TRUE(isAligned(*block, kPage4K << order));
    }
}

TEST(BuddyTest, AllocateIsTopDown)
{
    BuddyAllocator buddy(0, 16 * MiB);
    auto first = buddy.allocate(0);
    auto second = buddy.allocate(0);
    ASSERT_TRUE(first && second);
    EXPECT_EQ(*first, 16 * MiB - kPage4K);
    EXPECT_LT(*second, *first);
}

TEST(BuddyTest, FreeBytesTracksAllocations)
{
    BuddyAllocator buddy(0, 16 * MiB);
    auto a = buddy.allocate(4);  // 64K
    EXPECT_EQ(buddy.freeBytes(), 16 * MiB - 64 * KiB);
    buddy.free(*a, 4);
    EXPECT_EQ(buddy.freeBytes(), 16 * MiB);
}

TEST(BuddyTest, CoalescingRestoresLargestRun)
{
    BuddyAllocator buddy(0, 16 * MiB);
    std::vector<Addr> blocks;
    for (int i = 0; i < 64; ++i)
        blocks.push_back(*buddy.allocate(0));
    for (Addr block : blocks)
        buddy.free(block, 0);
    EXPECT_EQ(buddy.largestFreeRun(), 16 * MiB);
}

TEST(BuddyTest, ExhaustionReturnsNullopt)
{
    BuddyAllocator buddy(0, 64 * KiB);
    for (int i = 0; i < 16; ++i)
        EXPECT_TRUE(buddy.allocate(0).has_value());
    EXPECT_FALSE(buddy.allocate(0).has_value());
}

TEST(BuddyTest, NoDoubleAllocation)
{
    BuddyAllocator buddy(0, 4 * MiB);
    std::set<Addr> seen;
    while (auto block = buddy.allocate(0))
        EXPECT_TRUE(seen.insert(*block).second);
    EXPECT_EQ(seen.size(), 1024u);
}

TEST(BuddyTest, AllocateRangeExact)
{
    BuddyAllocator buddy(0, 16 * MiB);
    EXPECT_TRUE(buddy.allocateRange(1 * MiB, 2 * MiB));
    EXPECT_FALSE(buddy.rangeFree(1 * MiB, 2 * MiB));
    EXPECT_EQ(buddy.freeBytes(), 14 * MiB);
    // Overlapping reservation fails.
    EXPECT_FALSE(buddy.allocateRange(2 * MiB, 1 * MiB));
    buddy.freeRange(1 * MiB, 2 * MiB);
    EXPECT_EQ(buddy.largestFreeRun(), 16 * MiB);
}

TEST(BuddyTest, AllocateRangeOutsideFails)
{
    BuddyAllocator buddy(kPage4K, 1 * MiB);
    EXPECT_FALSE(buddy.allocateRange(0, kPage4K));
    EXPECT_FALSE(buddy.allocateRange(2 * MiB, kPage4K));
}

TEST(BuddyTest, NonZeroBase)
{
    BuddyAllocator buddy(8 * MiB, 8 * MiB);
    auto block = buddy.allocate(0);
    ASSERT_TRUE(block.has_value());
    EXPECT_GE(*block, 8 * MiB);
    EXPECT_LT(*block, 16 * MiB);
    buddy.free(*block, 0);
    EXPECT_EQ(buddy.largestFreeRun(), 8 * MiB);
}

TEST(BuddyTest, NonPowerOfTwoSize)
{
    BuddyAllocator buddy(0, 12 * MiB + 8 * KiB);
    EXPECT_EQ(buddy.freeBytes(), 12 * MiB + 8 * KiB);
    Addr total = 0;
    while (auto b = buddy.allocate(0)) {
        (void)b;
        total += kPage4K;
    }
    EXPECT_EQ(total, 12 * MiB + 8 * KiB);
}

TEST(BuddyTest, FragmentationIndexRises)
{
    BuddyAllocator buddy(0, 16 * MiB);
    // Pin every other 4K page of the top half.
    for (Addr a = 8 * MiB; a < 16 * MiB; a += 2 * kPage4K)
        ASSERT_TRUE(buddy.allocateRange(a, kPage4K));
    EXPECT_GT(buddy.fragmentationIndex(), 0.3);
    EXPECT_EQ(buddy.largestFreeRun(), 8 * MiB);
}

TEST(BuddyTest, OrderForBytes)
{
    EXPECT_EQ(BuddyAllocator::orderForBytes(1), 0u);
    EXPECT_EQ(BuddyAllocator::orderForBytes(kPage4K), 0u);
    EXPECT_EQ(BuddyAllocator::orderForBytes(kPage4K + 1), 1u);
    EXPECT_EQ(BuddyAllocator::orderForBytes(kPage2M), 9u);
    EXPECT_EQ(BuddyAllocator::orderForBytes(kPage1G), 18u);
}

TEST(BuddyTest, FreeIntervalsMatchAccounting)
{
    BuddyAllocator buddy(0, 8 * MiB);
    buddy.allocateRange(1 * MiB, 1 * MiB);
    buddy.allocateRange(4 * MiB, 2 * MiB);
    auto free_set = buddy.freeIntervals();
    EXPECT_EQ(free_set.totalLength(), buddy.freeBytes());
    EXPECT_FALSE(free_set.contains(1 * MiB + 1));
    EXPECT_TRUE(free_set.contains(3 * MiB));
}

/**
 * Free [start, end) except @p kept two ways: with freeRange over each
 * run between kept frames, and 4K at a time in ascending order.  The
 * per-order free lists must end identical (full coalescing makes them
 * depend only on which frames are free).
 */
void
expectRangeFreeMatchesPageFrees(Addr base, Addr size, Addr start,
                                Addr end, const std::set<Addr> &kept)
{
    BuddyAllocator ranged(base, size);
    BuddyAllocator paged(base, size);
    for (BuddyAllocator *buddy : {&ranged, &paged}) {
        ASSERT_TRUE(buddy->allocateRange(start, end - start));
        // Other live blocks, so coalescing stops at varied orders.
        ASSERT_TRUE(buddy->allocate(3).has_value());
        ASSERT_TRUE(buddy->allocate(0).has_value());
    }
    Addr run = start;
    for (Addr frame = start; frame <= end; frame += kPage4K) {
        if (frame < end && !kept.count(frame))
            continue;
        if (frame > run)
            ranged.freeRange(run, frame - run);
        run = frame + kPage4K;
    }
    for (Addr frame = start; frame < end; frame += kPage4K) {
        if (!kept.count(frame))
            paged.free(frame, 0);
    }
    for (unsigned order = 0; order <= BuddyAllocator::kMaxOrder;
         ++order) {
        EXPECT_EQ(ranged.freeBlocks(order), paged.freeBlocks(order))
            << "order " << order;
    }
    EXPECT_EQ(ranged.freeBytes(), paged.freeBytes());
}

TEST(BuddyTest, FreeRangeMatchesAscendingPageFrees)
{
    // Unaligned ends, so both paths must split and coalesce across
    // the range boundary.
    expectRangeFreeMatchesPageFrees(0, 16 * MiB, 1 * MiB + 3 * kPage4K,
                                    9 * MiB - 5 * kPage4K, {});
    expectRangeFreeMatchesPageFrees(0, 16 * MiB, 0, 8 * MiB, {});
    // A base that is not a multiple of any large block.
    expectRangeFreeMatchesPageFrees(3 * kPage4K, 12 * MiB,
                                    2 * MiB + kPage4K, 7 * MiB, {});
}

TEST(BuddyTest, FreeRangeMatchesPageFreesAroundRetiredFrame)
{
    // A retired (bad) frame stays allocated: the range is returned
    // as the runs on either side of it.
    expectRangeFreeMatchesPageFrees(
        0, 16 * MiB, 1 * MiB, 9 * MiB,
        {4 * MiB + 7 * kPage4K});
    expectRangeFreeMatchesPageFrees(
        0, 16 * MiB, 1 * MiB + kPage4K, 3 * MiB,
        {1 * MiB + kPage4K, 2 * MiB, 3 * MiB - kPage4K});
}

/** Property sweep: random alloc/free keeps invariants. */
class BuddyPropertyTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(BuddyPropertyTest, RandomAllocFreeConservesBytes)
{
    Rng rng(GetParam());
    BuddyAllocator buddy(0, 32 * MiB);
    struct Block { Addr base; unsigned order; };
    std::vector<Block> live;
    for (int step = 0; step < 3000; ++step) {
        if (live.empty() || rng.nextBool(0.55)) {
            const unsigned order =
                static_cast<unsigned>(rng.nextBelow(6));
            if (auto block = buddy.allocate(order))
                live.push_back({*block, order});
        } else {
            const auto idx = rng.nextBelow(live.size());
            buddy.free(live[idx].base, live[idx].order);
            live[idx] = live.back();
            live.pop_back();
        }
        Addr live_bytes = 0;
        for (const auto &blk : live)
            live_bytes += kPage4K << blk.order;
        ASSERT_EQ(buddy.freeBytes() + live_bytes, 32 * MiB);
    }
    // Freeing everything restores a single run.
    for (const auto &blk : live)
        buddy.free(blk.base, blk.order);
    EXPECT_EQ(buddy.largestFreeRun(), 32 * MiB);
}

TEST_P(BuddyPropertyTest, LiveBlocksNeverOverlap)
{
    Rng rng(GetParam() ^ 0xabcdef);
    BuddyAllocator buddy(0, 16 * MiB);
    std::set<Addr> live_pages;
    struct Block { Addr base; unsigned order; };
    std::vector<Block> live;
    for (int step = 0; step < 1500; ++step) {
        if (live.empty() || rng.nextBool(0.6)) {
            const unsigned order =
                static_cast<unsigned>(rng.nextBelow(4));
            auto block = buddy.allocate(order);
            if (!block)
                continue;
            for (Addr p = *block;
                 p < *block + (kPage4K << order); p += kPage4K) {
                ASSERT_TRUE(live_pages.insert(p).second)
                    << "overlap at " << std::hex << p;
            }
            live.push_back({*block, order});
        } else {
            const auto idx = rng.nextBelow(live.size());
            for (Addr p = live[idx].base;
                 p < live[idx].base + (kPage4K << live[idx].order);
                 p += kPage4K) {
                live_pages.erase(p);
            }
            buddy.free(live[idx].base, live[idx].order);
            live[idx] = live.back();
            live.pop_back();
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BuddyPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(BuddyTest, CheckpointRoundTripPreservesFreeLists)
{
    BuddyAllocator a(0, 16 * MiB);
    a.allocate(0);
    a.allocate(4);
    auto block = a.allocate(2);
    ASSERT_TRUE(block.has_value());
    a.free(*block, 2);
    const auto bytes = test::ckptBytes(a);

    BuddyAllocator b(0, 16 * MiB);
    ASSERT_TRUE(test::ckptRestore(bytes, b));
    EXPECT_EQ(test::ckptBytes(b), bytes);
    EXPECT_EQ(b.freeBytes(), a.freeBytes());
    EXPECT_EQ(b.largestFreeRun(), a.largestFreeRun());
    // The restored allocator hands out the same next block.
    EXPECT_EQ(b.allocate(0), a.allocate(0));
}

TEST(BuddyTest, CheckpointRejectsRangeMismatch)
{
    BuddyAllocator a(0, 16 * MiB);
    BuddyAllocator b(0, 8 * MiB);
    EXPECT_FALSE(test::ckptRestore(test::ckptBytes(a), b));
}

/** A buddy with blocks of several orders taken, ranges reserved and
 *  some of them returned, so runs cross many block boundaries. */
void
scatter(BuddyAllocator &buddy, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::pair<Addr, unsigned>> live;
    for (int i = 0; i < 400; ++i) {
        const unsigned order = static_cast<unsigned>(rng.nextBelow(5));
        if (auto block = buddy.allocate(order))
            live.push_back({*block, order});
        const Addr frame =
            buddy.base() + rng.nextBelow(buddy.size() / kPage4K) * kPage4K;
        if (buddy.rangeFree(frame, kPage4K))
            buddy.allocateRange(frame, kPage4K);
    }
    for (std::size_t i = 0; i < live.size(); i += 3)
        buddy.free(live[i].first, live[i].second);
}

TEST(BuddyTest, AllocateRunMatchesRepeatedAllocate)
{
    for (std::uint64_t frames : {1u, 7u, 512u, 1000u, 5000u}) {
        // A base that is no multiple of a large block, too.
        BuddyAllocator run(3 * kPage4K, 64 * MiB);
        BuddyAllocator paged(3 * kPage4K, 64 * MiB);
        scatter(run, frames);
        scatter(paged, frames);
        std::vector<Addr> got;
        ASSERT_TRUE(run.allocateRun(frames, got));
        std::vector<Addr> want;
        for (std::uint64_t i = 0; i < frames; ++i)
            want.push_back(*paged.allocate(0));
        EXPECT_EQ(got, want) << frames << " frames";
        // Same free lists, same stats: byte-identical checkpoints.
        EXPECT_EQ(test::ckptBytes(run), test::ckptBytes(paged))
            << frames << " frames";
        EXPECT_EQ(run.freeIntervals().intervals(),
                  paged.freeIntervals().intervals());
    }
}

TEST(BuddyTest, FreeFramesMatchesPerFrameFrees)
{
    // Frames from several runs, freed in a scrambled order: one call
    // ends like one free(frame, 0) per frame.
    BuddyAllocator batch(3 * kPage4K, 64 * MiB);
    BuddyAllocator paged(3 * kPage4K, 64 * MiB);
    scatter(batch, 6);
    scatter(paged, 6);
    std::vector<Addr> frames;
    ASSERT_TRUE(batch.allocateRun(3000, frames));
    for (std::size_t i = 0; i < frames.size(); ++i)
        ASSERT_EQ(paged.allocate(0), frames[i]);
    Rng rng(8);
    std::vector<Addr> freed;
    for (Addr frame : frames) {
        if (rng.nextBool(0.7))
            freed.push_back(frame);
    }
    for (std::size_t i = freed.size(); i > 1; --i)
        std::swap(freed[i - 1], freed[rng.nextBelow(i)]);
    batch.freeFrames(freed);
    for (Addr frame : freed)
        paged.free(frame, 0);
    EXPECT_EQ(test::ckptBytes(batch), test::ckptBytes(paged));
    EXPECT_EQ(batch.freeIntervals().intervals(),
              paged.freeIntervals().intervals());
}

TEST(BuddyTest, AllocateRunFailsWhenShortWithoutChange)
{
    BuddyAllocator buddy(0, 4 * MiB);
    scatter(buddy, 3);
    const auto before = test::ckptBytes(buddy);
    const std::uint64_t free_frames = buddy.freeBytes() / kPage4K;
    std::vector<Addr> out;
    EXPECT_TRUE(buddy.nextRun(free_frames + 1).empty());
    EXPECT_FALSE(buddy.allocateRun(free_frames + 1, out));
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(test::ckptBytes(buddy), before);
    EXPECT_TRUE(buddy.allocateRun(0, out));
    EXPECT_EQ(test::ckptBytes(buddy), before);
}

TEST(BuddyTest, NextRunNamesTheFramesAllocateRunTakes)
{
    BuddyAllocator buddy(0, 16 * MiB);
    scatter(buddy, 9);
    const auto runs = buddy.nextRun(700);
    std::vector<Addr> frames;
    ASSERT_TRUE(buddy.allocateRun(700, frames));
    std::vector<Addr> named;
    for (const auto &run : runs) {
        for (Addr frame = run.end; frame > run.start;)
            named.push_back(frame -= kPage4K);
    }
    EXPECT_EQ(frames, named);
}

TEST(BuddyTest, FreeRunIndexFollowsEveryOperation)
{
    // The index must equal the free lists' coverage after each kind
    // of operation (the audit compares them on every call).
    audit::setEnabled(true);
    audit::resetCounters();
    BuddyAllocator buddy(0, 32 * MiB);
    scatter(buddy, 4);
    std::vector<Addr> frames;
    ASSERT_TRUE(buddy.allocateRun(300, frames));
    buddy.freeRange(frames.back(), 100 * kPage4K);
    ASSERT_TRUE(buddy.allocateRange(frames.back(), 50 * kPage4K));
    EXPECT_GT(audit::checkCount(), 0u);
    EXPECT_EQ(audit::failureCount(), 0u);
    audit::setEnabled(false);
    EXPECT_EQ(buddy.freeIntervals().totalLength(), buddy.freeBytes());
}

TEST(BuddyAllocatorTest, QueriesDoNotRebuild)
{
    // Pin N scattered frames with allocateRange and query the free
    // runs after each pin, as the fragmenter does.  The interval work
    // over the whole sequence must grow as N log N; a free set
    // rebuilt per query would grow as N^2.
    const auto work_for = [](std::uint64_t pins) {
        BuddyAllocator buddy(0, 1 * GiB);
        Rng rng(5);
        const IntervalSet &runs = buddy.freeIntervals();
        const std::uint64_t before = IntervalSet::threadWork();
        for (std::uint64_t i = 0; i < pins; ++i) {
            const Addr frame = rng.nextBelow(1 * GiB / kPage4K) * kPage4K;
            if (buddy.rangeFree(frame, kPage4K)) {
                EXPECT_TRUE(buddy.allocateRange(frame, kPage4K));
            }
            EXPECT_GT(buddy.largestFreeRun(), 0u);
            EXPECT_GT(buddy.fragmentationIndex(), 0.0);
        }
        // One index, kept up to date, never replaced.
        EXPECT_EQ(&runs, &buddy.freeIntervals());
        return IntervalSet::threadWork() - before;
    };
    const std::uint64_t small = work_for(2048);
    const std::uint64_t large = work_for(8192);
    EXPECT_LE(large, 8192u * 13u);  // N log2 N
    // Quadrupling N: ~4.7x for N log N, 16x for N^2.
    EXPECT_LT(large, 6 * small);
}

} // namespace
} // namespace emv::mem
