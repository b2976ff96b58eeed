/** @file Unit tests for the OS model (native role). */

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "mem/phys_accessor.hh"
#include "os/guest_os.hh"
#include "../test_support.hh"

namespace emv::os {
namespace {

class GuestOsTest : public ::testing::Test
{
  protected:
    static constexpr Addr kSpan = 256 * MiB;

    GuestOsTest() : mem(kSpan), accessor(mem) {}

    std::unique_ptr<GuestOs>
    makeOs(OsConfig cfg = {},
           std::vector<Interval> ram = {{0, kSpan}})
    {
        return std::make_unique<GuestOs>(accessor, kSpan, ram, cfg);
    }

    mem::PhysMemory mem;
    mem::HostPhysAccessor accessor;
};

TEST_F(GuestOsTest, CheckpointRoundTripRequiresSameBootShape)
{
    auto a = makeOs();
    auto &proc = a->createProcess();
    a->defineRegion(proc, "heap", 1 * GiB, 16 * MiB,
                    PageSize::Size4K);
    a->populateRange(proc, 1 * GiB, 4 * MiB);
    const auto bytes = test::ckptBytes(*a);

    // Restore follows the fresh-boot path: same process roster,
    // then deserialize overwrites the mutable state.
    auto b = makeOs();
    auto &bproc = b->createProcess();
    b->defineRegion(bproc, "heap", 1 * GiB, 16 * MiB,
                    PageSize::Size4K);
    ASSERT_TRUE(test::ckptRestore(bytes, *b));
    EXPECT_EQ(test::ckptBytes(*b), bytes);
    EXPECT_EQ(b->frames().buddy().freeBytes(), a->frames().buddy().freeBytes());
    EXPECT_EQ(bproc.pageTable().mappedLeaves(),
              proc.pageTable().mappedLeaves());

    // A different process roster is a structured failure.
    auto c = makeOs();
    EXPECT_FALSE(test::ckptRestore(bytes, *c));
}

TEST_F(GuestOsTest, BootRamIsFree)
{
    auto os = makeOs();
    EXPECT_EQ(os->frames().buddy().freeBytes(), kSpan);
    EXPECT_EQ(os->ram().totalLength(), kSpan);
}

TEST_F(GuestOsTest, RamHolesAreNotAllocatable)
{
    auto os = makeOs({}, {{0, 64 * MiB}, {128 * MiB, kSpan}});
    EXPECT_EQ(os->frames().buddy().freeBytes(), kSpan - 64 * MiB);
    // Everything allocatable lies inside declared RAM.
    for (int i = 0; i < 100; ++i) {
        auto block = os->frames().allocBlock(PageSize::Size4K);
        ASSERT_TRUE(block.has_value());
        EXPECT_TRUE(os->ram().contains(*block));
    }
}

TEST_F(GuestOsTest, DemandPagingMapsOnFault)
{
    auto os = makeOs();
    auto &proc = os->createProcess();
    os->defineRegion(proc, "heap", 1 * GiB, 16 * MiB,
                     PageSize::Size4K);
    EXPECT_FALSE(proc.pageTable().translate(1 * GiB).has_value());
    auto outcome = os->handleFault(proc, 1 * GiB + 0x123);
    EXPECT_TRUE(outcome.ok);
    EXPECT_EQ(outcome.mappedSize, PageSize::Size4K);
    EXPECT_TRUE(proc.pageTable().translate(1 * GiB).has_value());
}

TEST_F(GuestOsTest, FaultOutsideRegionsFails)
{
    auto os = makeOs();
    auto &proc = os->createProcess();
    auto outcome = os->handleFault(proc, 0x1234);
    EXPECT_FALSE(outcome.ok);
    EXPECT_EQ(os->stats().counterValue("segfaults"), 1u);
}

TEST_F(GuestOsTest, PopulateRangeMapsEverything)
{
    auto os = makeOs();
    auto &proc = os->createProcess();
    os->defineRegion(proc, "heap", 1 * GiB, 4 * MiB,
                     PageSize::Size4K);
    os->populateRange(proc, 1 * GiB, 4 * MiB);
    EXPECT_EQ(proc.pageTable().mappedLeaves(), 1024u);
    for (Addr off = 0; off < 4 * MiB; off += kPage4K)
        ASSERT_TRUE(proc.pageTable().translate(1 * GiB + off));
}

TEST_F(GuestOsTest, PopulateDescendsOncePerLeafTable)
{
    // 64 MB of 4K pages is 32 leaf tables.  Populate checks each
    // window and maps it with one descent: at most four entry reads
    // per leaf table.  Faulting the same pages in one at a time (the
    // per-page path) reads about eight per page: a translate, then
    // map's descent and its entry.  Both take the same frames.
    constexpr Addr kBytes = 64 * MiB;
    auto os = makeOs();
    auto &proc = os->createProcess();
    os->defineRegion(proc, "heap", 1 * GiB, kBytes, PageSize::Size4K);
    const std::uint64_t reads0 = mem.stats().counterValue("reads");
    os->populateRange(proc, 1 * GiB, kBytes);
    const std::uint64_t reads = mem.stats().counterValue("reads") - reads0;
    EXPECT_LE(reads, 4 * (kBytes / kPage2M));

    mem::PhysMemory paged_mem(kSpan);
    mem::HostPhysAccessor paged_accessor(paged_mem);
    GuestOs paged(paged_accessor, kSpan, {{0, kSpan}});
    auto &paged_proc = paged.createProcess();
    paged.defineRegion(paged_proc, "heap", 1 * GiB, kBytes,
                       PageSize::Size4K);
    const std::uint64_t paged0 = paged_mem.stats().counterValue("reads");
    for (Addr off = 0; off < kBytes; off += kPage4K)
        ASSERT_TRUE(paged.handleFault(paged_proc, 1 * GiB + off).ok);
    const std::uint64_t paged_reads =
        paged_mem.stats().counterValue("reads") - paged0;
    EXPECT_GE(paged_reads, 7 * (kBytes / kPage4K));

    EXPECT_EQ(os->stats().counterValue("pages_mapped"),
              paged.stats().counterValue("pages_mapped"));
    EXPECT_EQ(os->frames().buddy().stats().counterValue("allocations"),
              paged.frames().buddy().stats().counterValue("allocations"));
    EXPECT_EQ(test::ckptBytes(os->frames().buddy()),
              test::ckptBytes(paged.frames().buddy()));
}

TEST_F(GuestOsTest, PreferredPageSizeHonored)
{
    auto os = makeOs();
    auto &proc = os->createProcess();
    os->defineRegion(proc, "heap", 1 * GiB, 8 * MiB,
                     PageSize::Size2M);
    os->populateRange(proc, 1 * GiB, 8 * MiB);
    auto t = proc.pageTable().translate(1 * GiB);
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->size, PageSize::Size2M);
    EXPECT_EQ(proc.pageTable().mappedLeaves(), 4u);
}

TEST_F(GuestOsTest, ThpPromotesMostFaults)
{
    OsConfig cfg;
    cfg.thp = true;
    auto os = makeOs(cfg);
    auto &proc = os->createProcess();
    os->defineRegion(proc, "heap", 1 * GiB, 32 * MiB,
                     PageSize::Size4K);
    os->populateRange(proc, 1 * GiB, 32 * MiB);
    EXPECT_GT(os->stats().counterValue("thp_promotions"), 8u);
    // Far fewer leaves than pure 4K mapping.
    EXPECT_LT(proc.pageTable().mappedLeaves(), 8192u);
}

TEST_F(GuestOsTest, UnmapFreesFrames)
{
    auto os = makeOs();
    auto &proc = os->createProcess();
    os->defineRegion(proc, "heap", 1 * GiB, 4 * MiB,
                     PageSize::Size4K);
    os->populateRange(proc, 1 * GiB, 4 * MiB);
    const Addr free_before = os->frames().buddy().freeBytes();
    const auto unmapped = os->unmapRange(proc, 1 * GiB, 4 * MiB);
    EXPECT_EQ(unmapped, 1024u);
    EXPECT_EQ(os->frames().buddy().freeBytes(), free_before + 4 * MiB);
    EXPECT_FALSE(proc.pageTable().translate(1 * GiB).has_value());
}

TEST_F(GuestOsTest, GuestSegmentCreation)
{
    auto os = makeOs();
    auto &proc = os->createProcess();
    os->defineRegion(proc, "heap", 1 * GiB, 32 * MiB,
                     PageSize::Size4K, /*primary=*/true);
    auto regs = os->createGuestSegment(proc);
    ASSERT_TRUE(regs.has_value());
    EXPECT_EQ(regs->base(), 1 * GiB);
    EXPECT_EQ(regs->length(), 32 * MiB);
    // Backing is reserved and unmovable.
    const Addr backing = regs->base() + regs->offset();
    EXPECT_FALSE(os->frames().buddy().rangeFree(backing, 32 * MiB));
    EXPECT_TRUE(os->frames().unmovable().intersectsRange(
        backing, backing + 32 * MiB));
}

TEST_F(GuestOsTest, GuestSegmentNeedsPrimaryRegion)
{
    auto os = makeOs();
    auto &proc = os->createProcess();
    os->defineRegion(proc, "heap", 1 * GiB, 32 * MiB,
                     PageSize::Size4K, /*primary=*/false);
    EXPECT_FALSE(os->createGuestSegment(proc).has_value());
}

TEST_F(GuestOsTest, GuestSegmentFailsWhenFragmented)
{
    auto os = makeOs();
    // Pin a page every 2M so no 32M run exists.
    for (Addr a = 0; a < kSpan; a += 2 * MiB)
        ASSERT_TRUE(os->frames().buddy().allocateRange(a, kPage4K));
    auto &proc = os->createProcess();
    os->defineRegion(proc, "heap", 1 * GiB, 32 * MiB,
                     PageSize::Size4K, true);
    EXPECT_FALSE(os->createGuestSegment(proc).has_value());
    EXPECT_EQ(os->stats().counterValue("segment_failures"), 1u);
}

TEST_F(GuestOsTest, SegmentFaultUsesOffset)
{
    // §VI.B: faults on segment-backed pages compute the PA from
    // the segment offset.
    auto os = makeOs();
    auto &proc = os->createProcess();
    os->defineRegion(proc, "heap", 1 * GiB, 32 * MiB,
                     PageSize::Size4K, true);
    auto regs = os->createGuestSegment(proc);
    ASSERT_TRUE(regs.has_value());
    auto outcome = os->handleFault(proc, 1 * GiB + 0x5123);
    EXPECT_TRUE(outcome.ok);
    EXPECT_TRUE(outcome.usedSegmentOffset);
    EXPECT_FALSE(outcome.remappedBadPage);
    auto t = proc.pageTable().translate(1 * GiB + 0x5000);
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->pa, regs->translate(1 * GiB + 0x5000));
}

TEST_F(GuestOsTest, SegmentFaultRemapsBadFrame)
{
    auto os = makeOs();
    auto &proc = os->createProcess();
    os->defineRegion(proc, "heap", 1 * GiB, 32 * MiB,
                     PageSize::Size4K, true);
    auto regs = os->createGuestSegment(proc);
    ASSERT_TRUE(regs.has_value());
    const Addr bad_pa = regs->translate(1 * GiB + 0x8000);
    mem.markBad(bad_pa);
    auto outcome = os->handleFault(proc, 1 * GiB + 0x8000);
    EXPECT_TRUE(outcome.ok);
    EXPECT_TRUE(outcome.remappedBadPage);
    auto t = proc.pageTable().translate(1 * GiB + 0x8000);
    ASSERT_TRUE(t.has_value());
    EXPECT_NE(t->pa & ~(kPage4K - 1), bad_pa & ~(kPage4K - 1));
    EXPECT_FALSE(mem.isBad(t->pa));
}

TEST_F(GuestOsTest, ReleaseGuestSegmentRestoresMemory)
{
    auto os = makeOs();
    auto &proc = os->createProcess();
    os->defineRegion(proc, "heap", 1 * GiB, 32 * MiB,
                     PageSize::Size4K, true);
    const Addr free_before = os->frames().buddy().freeBytes();
    auto regs = os->createGuestSegment(proc);
    ASSERT_TRUE(regs.has_value());
    os->handleFault(proc, 1 * GiB);  // A §VI.B emulation PTE.
    os->releaseGuestSegment(proc);
    EXPECT_EQ(os->frames().buddy().freeBytes(), free_before);
    EXPECT_FALSE(proc.guestSegment().enabled());
}

TEST_F(GuestOsTest, BadFrameRetirementOnAllocation)
{
    auto os = makeOs();
    // Poison the top frame so the first top-down alloc trips it.
    mem.markBad(kSpan - kPage4K);
    auto block = os->frames().allocBlock(PageSize::Size4K);
    ASSERT_TRUE(block.has_value());
    EXPECT_FALSE(mem.isBad(*block));
    EXPECT_EQ(os->frames().badFrames().size(), 1u);
    EXPECT_EQ(os->stats().counterValue("bad_pages_retired"), 1u);
}

TEST_F(GuestOsTest, HotRemoveRequiresFreeMemory)
{
    auto os = makeOs();
    ASSERT_TRUE(os->frames().buddy().allocateRange(64 * MiB, kPage4K));
    EXPECT_FALSE(os->hotRemove(64 * MiB, 2 * MiB));
    EXPECT_TRUE(os->hotRemove(66 * MiB, 2 * MiB));
    EXPECT_FALSE(os->ram().contains(66 * MiB));
}

TEST_F(GuestOsTest, HotAddExtendsAllocatableMemory)
{
    auto os = makeOs({}, {{0, 64 * MiB}});
    EXPECT_EQ(os->frames().buddy().freeBytes(), 64 * MiB);
    os->hotAdd(128 * MiB, 64 * MiB);
    EXPECT_EQ(os->frames().buddy().freeBytes(), 128 * MiB);
    EXPECT_TRUE(os->ram().containsRange(128 * MiB, 192 * MiB));
}

TEST_F(GuestOsTest, MappingHookFires)
{
    auto os = makeOs();
    auto &proc = os->createProcess();
    os->defineRegion(proc, "heap", 1 * GiB, 2 * MiB,
                     PageSize::Size4K);
    // One count per page the hook's runs cover.
    Addr mapped = 0, unmapped = 0;
    os->setMappingHook([&](Process &, Addr, Addr bytes, PageSize size,
                           bool is_map) {
        (is_map ? mapped : unmapped) += bytes / pageBytes(size);
    });
    os->populateRange(proc, 1 * GiB, 2 * MiB);
    os->unmapRange(proc, 1 * GiB, 2 * MiB);
    EXPECT_EQ(mapped, 512u);
    EXPECT_EQ(unmapped, 512u);
}

TEST_F(GuestOsTest, UnmapRangeDropsEveryTouchedLeafInOrder)
{
    // Half the 2M windows are THP leaves, the rest 4K pages.  An
    // unaligned range drops every leaf it touches, the straddling
    // ones included, with hook runs that cover every leaf in
    // ascending order and every data frame back in the allocator.
    OsConfig cfg;
    cfg.thp = true;
    cfg.thpCoverage = 0.5;
    auto os = makeOs(cfg);
    auto &proc = os->createProcess();
    os->defineRegion(proc, "heap", 1 * GiB, 16 * MiB,
                     PageSize::Size4K);
    os->populateRange(proc, 1 * GiB, 16 * MiB);
    const Addr va = 1 * GiB + 3 * MiB + 5 * kPage4K;
    const Addr bytes = 9 * MiB;

    std::vector<std::pair<Addr, PageSize>> expected;
    Addr leaf_bytes = 0;
    proc.pageTable().forEachLeaf([&](const paging::PageTable::Leaf &l) {
        if (l.va + pageBytes(l.size) > alignDown(va, kPage4K) &&
            l.va < va + bytes) {
            expected.emplace_back(l.va, l.size);
            leaf_bytes += pageBytes(l.size);
        }
    });
    const auto thp = std::count_if(
        expected.begin(), expected.end(),
        [](const auto &leaf) { return leaf.second == PageSize::Size2M; });
    ASSERT_GT(thp, 0);
    ASSERT_LT(static_cast<std::size_t>(thp), expected.size());
    std::vector<std::pair<Addr, PageSize>> hooked;
    os->setMappingHook([&](Process &, Addr at, Addr run_bytes,
                           PageSize size, bool mapped) {
        EXPECT_FALSE(mapped);
        for (Addr off = 0; off < run_bytes; off += pageBytes(size))
            hooked.emplace_back(at + off, size);
    });
    const Addr free_before = os->frames().buddy().freeBytes();
    const Addr nodes_before = proc.pageTable().tableNodes();

    EXPECT_EQ(os->unmapRange(proc, va, bytes), expected.size());
    EXPECT_EQ(hooked, expected);
    EXPECT_EQ(os->frames().buddy().freeBytes(), free_before + leaf_bytes);
    EXPECT_LT(proc.pageTable().tableNodes(), nodes_before);
    for (const auto &[at, size] : expected)
        EXPECT_FALSE(proc.pageTable().translate(at)) << at;
    EXPECT_TRUE(proc.pageTable().translate(expected.front().first - 1));
    EXPECT_TRUE(proc.pageTable().translate(expected.back().first +
                                           pageBytes(
                                               expected.back().second)));
}

TEST_F(GuestOsTest, RegionOverlapPanics)
{
    auto os = makeOs();
    auto &proc = os->createProcess();
    os->defineRegion(proc, "a", 1 * GiB, 2 * MiB, PageSize::Size4K);
    EXPECT_DEATH(os->defineRegion(proc, "b", 1 * GiB + kPage4K,
                                  2 * MiB, PageSize::Size4K),
                 "overlaps");
}

TEST_F(GuestOsTest, ThpSurvivesPartialRemapChurn)
{
    // Regression: churn unmaps part of a THP area; repopulation
    // must not attempt a 2M promotion over surviving 4K pages.
    OsConfig cfg;
    cfg.thp = true;
    cfg.thpCoverage = 1.0;
    auto os = makeOs(cfg);
    auto &proc = os->createProcess();
    os->defineRegion(proc, "heap", 1 * GiB, 16 * MiB,
                     PageSize::Size4K);
    os->populateRange(proc, 1 * GiB, 16 * MiB);
    // Unmap a 256K slice (drops the whole covering 2M leaf).
    os->unmapRange(proc, 1 * GiB + 4 * MiB + 256 * KiB, 256 * KiB);
    // Repopulate just the slice, then fault the rest back in.
    os->populateRange(proc, 1 * GiB + 4 * MiB + 256 * KiB,
                      256 * KiB);
    os->populateRange(proc, 1 * GiB, 16 * MiB);
    for (Addr off = 0; off < 16 * MiB; off += kPage4K)
        ASSERT_TRUE(proc.pageTable().translate(1 * GiB + off));
}

TEST_F(GuestOsTest, PageSizeFallbackAtRegionEdge)
{
    auto os = makeOs();
    auto &proc = os->createProcess();
    // 3M region asked to map at 2M: one 2M leaf + 4K tail.
    os->defineRegion(proc, "heap", 1 * GiB, 3 * MiB,
                     PageSize::Size2M);
    os->populateRange(proc, 1 * GiB, 3 * MiB);
    EXPECT_EQ(proc.pageTable().translate(1 * GiB)->size,
              PageSize::Size2M);
    EXPECT_EQ(proc.pageTable().translate(1 * GiB + 2 * MiB)->size,
              PageSize::Size4K);
}

} // namespace
} // namespace emv::os
