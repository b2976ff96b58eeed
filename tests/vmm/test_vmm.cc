/** @file Unit tests for the VMM: backing, nested paging, segments,
 *  ballooning backend, host compaction and VMM swapping. */

#include <gtest/gtest.h>

#include <optional>
#include <utility>
#include <vector>

#include "common/audit.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "paging/pte.hh"
#include "vmm/vmm.hh"
#include "../test_support.hh"

namespace emv::vmm {
namespace {

class VmmTest : public ::testing::Test
{
  protected:
    // A scaled-down machine: 1.5 GB host, small VM around a small
    // "gap" so tests stay fast.
    static constexpr Addr kHostRam = 1536 * MiB;

    VmmTest() : host(kHostRam), vmm(host, kHostRam) {}

    VmConfig
    smallVmConfig()
    {
        VmConfig cfg;
        cfg.ramBytes = 512 * MiB;
        cfg.lowRamBytes = 96 * MiB;
        cfg.ioGapStart = 96 * MiB;
        cfg.ioGapEnd = 128 * MiB;
        cfg.nestedPageSize = PageSize::Size4K;
        return cfg;
    }

    mem::PhysMemory host;
    Vmm vmm;
};

TEST_F(VmmTest, CheckpointRoundTripRequiresSameVmRoster)
{
    auto &vm = vmm.createVm("a", smallVmConfig());
    vm.guestPhys().write64(50 * MiB, 0x1234'5678u);
    const auto bytes = test::ckptBytes(vmm);

    // Restore follows the fresh-boot path: recreate the same VMs,
    // then deserialize overwrites backing, nested tables and stats.
    // (Frame *contents* live in PhysMemory, which the Machine layer
    // checkpoints separately — only the mappings are checked here.)
    mem::PhysMemory host2(kHostRam);
    Vmm other(host2, kHostRam);
    auto &vm2 = other.createVm("a", smallVmConfig());
    ASSERT_TRUE(test::ckptRestore(bytes, other));
    EXPECT_EQ(test::ckptBytes(other), bytes);
    EXPECT_EQ(vm2.gpaToHpa(50 * MiB), vm.gpaToHpa(50 * MiB));
    EXPECT_EQ(vm2.vmExits(), vm.vmExits());

    // A different VM roster is a structured failure.
    mem::PhysMemory host3(kHostRam);
    Vmm empty(host3, kHostRam);
    EXPECT_FALSE(test::ckptRestore(bytes, empty));
}

TEST_F(VmmTest, EagerBackingCoversAllRam)
{
    auto &vm = vmm.createVm("a", smallVmConfig());
    EXPECT_TRUE(vm.backingMap().covered(0, 96 * MiB));
    EXPECT_TRUE(vm.backingMap().covered(128 * MiB, 416 * MiB));
    EXPECT_FALSE(vm.gpaToHpa(100 * MiB).has_value());  // I/O gap.
}

TEST_F(VmmTest, NestedTableMatchesBackingMap)
{
    auto &vm = vmm.createVm("a", smallVmConfig());
    // Spot-check nested translations against the backing map via a
    // software walk of the real nested table.
    paging::PageTable *nested = nullptr;
    (void)nested;
    for (Addr gpa : {Addr(0), Addr(50 * MiB), Addr(130 * MiB),
                     Addr(500 * MiB)}) {
        auto hpa = vm.gpaToHpa(gpa);
        ASSERT_TRUE(hpa.has_value()) << gpa;
        // Write through the guest accessor and read back from the
        // host at the mapped location.
        vm.guestPhys().write64(alignDown(gpa, 8), 0xabcd0000 + gpa);
        EXPECT_EQ(host.read64(alignDown(*hpa, 8)), 0xabcd0000 + gpa);
    }
}

TEST_F(VmmTest, GuestRamLayoutAndSpan)
{
    auto &vm = vmm.createVm("a", smallVmConfig());
    auto layout = vm.guestRamLayout();
    ASSERT_EQ(layout.size(), 2u);
    EXPECT_EQ(layout[0].start, 0u);
    EXPECT_EQ(layout[0].end, 96 * MiB);
    EXPECT_EQ(layout[1].start, 128 * MiB);
    EXPECT_EQ(vm.gpaSpan(), 128 * MiB + 416 * MiB);
}

TEST_F(VmmTest, OnDemandBackingViaNestedFault)
{
    auto cfg = smallVmConfig();
    cfg.eagerBacking = false;
    auto &vm = vmm.createVm("a", cfg);
    EXPECT_FALSE(vm.gpaToHpa(10 * MiB).has_value());
    EXPECT_TRUE(vm.ensureBacked(10 * MiB));
    EXPECT_TRUE(vm.gpaToHpa(10 * MiB).has_value());
    EXPECT_GT(vm.vmExits(), 0u);
}

TEST_F(VmmTest, EnsureBackedRejectsIoGapAndBeyond)
{
    auto cfg = smallVmConfig();
    cfg.eagerBacking = false;
    auto &vm = vmm.createVm("a", cfg);
    EXPECT_FALSE(vm.ensureBacked(100 * MiB));      // In the gap.
    EXPECT_FALSE(vm.ensureBacked(vm.gpaSpan()));   // Past the end.
}

TEST_F(VmmTest, NestedLargePages)
{
    auto cfg = smallVmConfig();
    cfg.nestedPageSize = PageSize::Size2M;
    auto &vm = vmm.createVm("a", cfg);
    EXPECT_TRUE(vm.backingMap().covered(0, 96 * MiB));
    // 2M-backed VM should produce far fewer extents/maps; check a
    // translation still works.
    vm.guestPhys().write64(64 * MiB, 42);
    auto hpa = vm.gpaToHpa(64 * MiB);
    ASSERT_TRUE(hpa.has_value());
    EXPECT_EQ(host.read64(*hpa), 42u);
}

TEST_F(VmmTest, CreateVmmSegmentOverContiguousBacking)
{
    auto &vm = vmm.createVm("a", smallVmConfig());
    auto info = vm.createVmmSegment(416 * MiB);
    ASSERT_TRUE(info.has_value());
    EXPECT_TRUE(info->regs.enabled());
    EXPECT_GE(info->regs.length(), 416 * MiB);
    EXPECT_TRUE(info->escapedGpas.empty());
    // The segment translation agrees with the backing map.
    const Addr gpa = info->regs.base() + 0x5000;
    EXPECT_EQ(info->regs.translate(gpa), vm.gpaToHpa(gpa).value());
}

TEST_F(VmmTest, VmmSegmentFailsWithoutContiguity)
{
    auto cfg = smallVmConfig();
    cfg.contiguousHostReservation = false;
    // Fragment the host so eager backing is scattered.
    mem::BuddyAllocator &buddy = vmm.frames().buddy();
    for (Addr a = 0; a < kHostRam; a += 8 * MiB)
        ASSERT_TRUE(buddy.allocateRange(a, kPage4K));
    setQuietLogging(true);
    auto &vm = vmm.createVm("a", cfg);
    setQuietLogging(false);
    EXPECT_FALSE(vm.createVmmSegment(416 * MiB).has_value());
}

TEST_F(VmmTest, BadFramesEscapeOnSegmentCreation)
{
    auto &vm = vmm.createVm("a", smallVmConfig());
    auto extent = vm.backingMap().largestExtent();
    ASSERT_TRUE(extent.has_value());
    // Poison two frames inside the future segment.
    const Addr bad1 = extent->hpa + 16 * MiB;
    const Addr bad2 = extent->hpa + 200 * MiB;
    host.write64(bad1, 0x1111);
    host.write64(bad2, 0x2222);
    host.markBad(bad1);
    host.markBad(bad2);

    auto info = vm.createVmmSegment(extent->bytes);
    ASSERT_TRUE(info.has_value());
    ASSERT_EQ(info->escapedGpas.size(), 2u);
    for (Addr gpa : info->escapedGpas) {
        // Escaped pages now map to healthy frames...
        auto hpa = vm.gpaToHpa(gpa);
        ASSERT_TRUE(hpa.has_value());
        EXPECT_FALSE(host.isBad(*hpa));
        // ...with contents preserved...
        EXPECT_TRUE(host.read64(*hpa) == 0x1111 ||
                    host.read64(*hpa) == 0x2222);
        // ...and differ from the segment's linear mapping.
        EXPECT_NE(*hpa, info->regs.translate(gpa));
    }
}

TEST_F(VmmTest, BalloonReclaimFreesHostMemory)
{
    auto &vm = vmm.createVm("a", smallVmConfig());
    const Addr free_before = vmm.frames().buddy().freeBytes();
    std::vector<Addr> pages;
    for (Addr gpa = 8 * MiB; gpa < 9 * MiB; gpa += kPage4K)
        pages.push_back(gpa);
    vm.reclaimGuestPages(pages);
    EXPECT_EQ(vmm.frames().buddy().freeBytes(),
              free_before + 1 * MiB);
    EXPECT_FALSE(vm.gpaToHpa(8 * MiB).has_value());
    // Neighbouring pages are still backed.
    EXPECT_TRUE(vm.gpaToHpa(9 * MiB).has_value());
    EXPECT_GT(vm.vmExits(), 0u);
}

TEST_F(VmmTest, GrantExtensionWithinReserve)
{
    auto cfg = smallVmConfig();
    cfg.extensionReserve = 64 * MiB;
    auto &vm = vmm.createVm("a", cfg);
    auto base1 = vm.grantExtension(32 * MiB);
    ASSERT_TRUE(base1.has_value());
    EXPECT_EQ(*base1, 128 * MiB + 416 * MiB);
    auto base2 = vm.grantExtension(32 * MiB);
    ASSERT_TRUE(base2.has_value());
    EXPECT_EQ(*base2, *base1 + 32 * MiB);
    EXPECT_FALSE(vm.grantExtension(kPage4K).has_value());
}

TEST_F(VmmTest, ContiguousExtensionCoalescesWithHighRam)
{
    auto cfg = smallVmConfig();
    cfg.extensionReserve = 64 * MiB;
    auto &vm = vmm.createVm("a", cfg);
    auto base = vm.grantExtension(64 * MiB);
    ASSERT_TRUE(base.has_value());
    // The whole high range + extension is one extent: a single VMM
    // segment can cover it (the point of §VI.C).
    auto largest = vm.backingMap().largestExtent();
    ASSERT_TRUE(largest.has_value());
    EXPECT_EQ(largest->gpa, 128 * MiB);
    EXPECT_EQ(largest->bytes, 416 * MiB + 64 * MiB);
}

TEST_F(VmmTest, RepointBackingChangesOnePage)
{
    auto &vm = vmm.createVm("a", smallVmConfig());
    const Addr gpa = 20 * MiB;
    const Addr old_hpa = vm.gpaToHpa(gpa).value();
    auto fresh = vmm.frames().allocBlock(PageSize::Size4K);
    ASSERT_TRUE(fresh.has_value());
    vm.repointBacking(gpa, *fresh);
    EXPECT_EQ(vm.gpaToHpa(gpa).value(), *fresh);
    EXPECT_NE(vm.gpaToHpa(gpa).value(), old_hpa);
    EXPECT_EQ(vm.gpaToHpa(gpa + kPage4K).value(),
              old_hpa + kPage4K);
}

TEST_F(VmmTest, HostCompactionMaterializesSegmentBacking)
{
    auto cfg = smallVmConfig();
    cfg.contiguousHostReservation = false;  // Scattered backing.
    // Pre-fragment the host.
    for (Addr a = 256 * MiB; a < kHostRam; a += 8 * MiB)
        ASSERT_TRUE(vmm.frames().buddy().allocateRange(a, kPage4K));
    setQuietLogging(true);
    auto &vm = vmm.createVm("a", cfg);
    setQuietLogging(false);
    ASSERT_FALSE(vm.createVmmSegment(128 * MiB).has_value());

    // Write markers to survive migration.
    vm.guestPhys().write64(130 * MiB, 0xfeed);
    vm.guestPhys().write64(200 * MiB, 0xface);

    auto migrated =
        vm.materializeVmmSegmentBacking(128 * MiB, 128 * MiB);
    ASSERT_TRUE(migrated.has_value());
    EXPECT_GT(*migrated, 0u);

    auto info = vm.createVmmSegment(128 * MiB);
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->regs.base(), 128 * MiB);
    // Contents survived.
    EXPECT_EQ(vm.guestPhys().read64(130 * MiB), 0xfeedu);
    EXPECT_EQ(vm.guestPhys().read64(200 * MiB), 0xfaceu);
    // Backing is genuinely linear now.
    EXPECT_EQ(vm.gpaToHpa(128 * MiB).value() + 10 * MiB,
              vm.gpaToHpa(138 * MiB).value());
}

TEST_F(VmmTest, CompactionBudgetRefuses)
{
    auto cfg = smallVmConfig();
    cfg.contiguousHostReservation = false;
    for (Addr a = 256 * MiB; a < kHostRam; a += 8 * MiB)
        ASSERT_TRUE(vmm.frames().buddy().allocateRange(a, kPage4K));
    setQuietLogging(true);
    auto &vm = vmm.createVm("a", cfg);
    setQuietLogging(false);
    EXPECT_FALSE(
        vm.materializeVmmSegmentBacking(128 * MiB, 128 * MiB, 10)
            .has_value());
}

TEST_F(VmmTest, NestedChangeHookFires)
{
    auto &vm = vmm.createVm("a", smallVmConfig());
    std::vector<Addr> invalidated;
    vm.setNestedChangeHook(
        [&](Addr gpa, PageSize) { invalidated.push_back(gpa); });
    vm.reclaimGuestPages({8 * MiB});
    ASSERT_EQ(invalidated.size(), 1u);
    EXPECT_EQ(invalidated[0], 8 * MiB);
}

TEST_F(VmmTest, ReclaimGuestRangeNotifiesEveryPage)
{
    auto &vm = vmm.createVm("a", smallVmConfig());
    std::vector<Addr> invalidated;
    vm.setNestedChangeHook([&](Addr gpa, PageSize size) {
        EXPECT_EQ(size, PageSize::Size4K);
        invalidated.push_back(gpa);
    });
    const Addr base = 8 * MiB;
    const Addr bytes = 3 * MiB + 5 * kPage4K;
    const Addr free_before = vmm.frames().buddy().freeBytes();
    vm.reclaimGuestRange(base, bytes);

    std::vector<Addr> expected;
    for (Addr gpa = base; gpa < base + bytes; gpa += kPage4K)
        expected.push_back(gpa);
    EXPECT_EQ(invalidated, expected);
    EXPECT_EQ(vmm.frames().buddy().freeBytes(), free_before + bytes);
    EXPECT_FALSE(vm.gpaToHpa(base).has_value());
    EXPECT_FALSE(vm.gpaToHpa(base + bytes - kPage4K).has_value());
    EXPECT_TRUE(vm.gpaToHpa(base + bytes).has_value());
}

/** The nested leaf covering @p gpa (frame base and size), by a
 *  software walk of the nested table in host memory. */
std::optional<std::pair<Addr, PageSize>>
nestedLeaf(const mem::PhysMemory &host, Addr root, Addr gpa)
{
    Addr table = root;
    for (int level = paging::kLevels; level >= 1; --level) {
        const paging::Pte pte{
            host.read64(table + 8ull * paging::tableIndex(gpa, level))};
        if (!pte.present())
            return std::nullopt;
        if (level == 1 || pte.pageSize())
            return std::make_pair(pte.frame(), paging::leafSize(level));
        table = pte.frame();
    }
    return std::nullopt;
}

TEST_F(VmmTest, ReclaimGuestRangeSplitsEveryLargeNestedLeaf)
{
    // 2M nested leaves; the range starts and ends inside a leaf and
    // covers one whole leaf between.  Each of the three leaves is
    // split to 4K, the range's pages lose their nested mapping, and
    // the pages around it keep theirs.
    auto cfg = smallVmConfig();
    cfg.nestedPageSize = PageSize::Size2M;
    auto &vm = vmm.createVm("a", cfg);
    const Addr base = 8 * MiB + 3 * kPage4K;
    const Addr bytes = 5 * MiB;
    const Addr before = base - kPage4K;
    const Addr after = base + bytes;
    const Addr hpa_before = *vm.gpaToHpa(before);
    const Addr hpa_after = *vm.gpaToHpa(after);
    ASSERT_EQ(nestedLeaf(host, vm.nestedRoot(), 14 * MiB)->second,
              PageSize::Size2M);

    vm.reclaimGuestRange(base, bytes);

    EXPECT_EQ(vm.stats().counterValue("nested_leaf_splits"), 3u);
    for (Addr gpa = base; gpa < base + bytes; gpa += kPage4K)
        ASSERT_FALSE(nestedLeaf(host, vm.nestedRoot(), gpa)) << gpa;
    const auto left = nestedLeaf(host, vm.nestedRoot(), before);
    const auto right = nestedLeaf(host, vm.nestedRoot(), after);
    ASSERT_TRUE(left && right);
    EXPECT_EQ(*left, std::make_pair(hpa_before, PageSize::Size4K));
    EXPECT_EQ(*right, std::make_pair(hpa_after, PageSize::Size4K));
    EXPECT_EQ(nestedLeaf(host, vm.nestedRoot(), 14 * MiB)->second,
              PageSize::Size2M);
}

TEST_F(VmmTest, PagedBackingTailIsAllocated)
{
    // 1G nested granules over 1.5 GB of high RAM: the 512 MB tail is
    // backed in 2M blocks.  Every backed byte is a byte the host
    // buddy handed out, and no extent overlaps a free host range.
    mem::PhysMemory big(8 * GiB);
    Vmm big_vmm(big, 8 * GiB);
    VmConfig cfg;
    cfg.ramBytes = 4 * GiB + 512 * MiB;
    cfg.nestedPageSize = PageSize::Size1G;
    cfg.contiguousHostReservation = false;
    auto &vm = big_vmm.createVm("a", cfg);
    const auto &buddy = big_vmm.frames().buddy();
    EXPECT_EQ(vm.backingMap().totalBytes(), cfg.ramBytes);
    EXPECT_EQ(8 * GiB - buddy.freeBytes() -
                  big_vmm.frames().unmovable().totalLength(),
              vm.backingMap().totalBytes());
    for (const Extent &e : vm.backingMap().extents()) {
        EXPECT_FALSE(
            buddy.freeIntervals().intersectsRange(e.hpa, e.hpa + e.bytes))
            << hexAddr(e.gpa);
    }
    const Addr tail = 4 * GiB + 1 * GiB;
    EXPECT_EQ(nestedLeaf(big, vm.nestedRoot(), tail)->second,
              PageSize::Size2M);
    EXPECT_EQ(nestedLeaf(big, vm.nestedRoot(), 0)->second,
              PageSize::Size1G);
}

/** The per-granule loop forEachGranuleRun() computes in O(1) per
 *  run: one granule at a time, each extending the run or starting
 *  one. */
struct GranuleRun
{
    Addr pos;
    Addr bytes;
    PageSize size;
    bool operator==(const GranuleRun &) const = default;
};

std::vector<GranuleRun>
perGranuleRuns(Addr gpa, Addr bytes, Addr hpa, PageSize nested)
{
    const auto granule = [&](Addr pos) {
        PageSize size = nested;
        while (size != PageSize::Size4K &&
               (!isAligned(gpa + pos, pageBytes(size)) ||
                !isAligned(hpa + pos, pageBytes(size)) ||
                pos + pageBytes(size) > bytes)) {
            size = size == PageSize::Size1G ? PageSize::Size2M
                                            : PageSize::Size4K;
        }
        return size;
    };
    std::vector<GranuleRun> runs;
    for (Addr pos = 0; pos < bytes;) {
        const PageSize size = granule(pos);
        Addr end = pos + pageBytes(size);
        while (end < bytes && granule(end) == size)
            end += pageBytes(size);
        runs.push_back({pos, end - pos, size});
        pos = end;
    }
    return runs;
}

TEST(GranuleRunTest, MatchesPerGranuleLoop)
{
    // Seeded ranges for each nested granule: starts on 4K, 2M and 1G
    // boundaries, gpa - hpa aligned to 4K, 2M or 1G, and lengths with
    // ragged 2M and 4K tails.
    constexpr PageSize kSizes[] = {PageSize::Size4K, PageSize::Size2M,
                                   PageSize::Size1G};
    constexpr Addr kAligns[] = {kPage4K, kPage2M, kPage1G};
    Rng rng(34);
    unsigned mixed = 0, gig_runs = 0;
    for (int trial = 0; trial < 400; ++trial) {
        const PageSize nested = kSizes[trial % 3];
        const Addr gpa = rng.nextBelow(64) * kPage1G +
                         (rng.nextBool(0.5) ? rng.nextBelow(512) * kPage2M
                                            : 0) +
                         (rng.nextBool(0.5) ? rng.nextBelow(512) * kPage4K
                                            : 0);
        const Addr co = kAligns[rng.nextBelow(3)];
        const Addr hpa = rng.nextBelow(64) * kPage1G + gpa % co +
                         rng.nextBelow(kPage1G / co) * co;
        Addr bytes = rng.nextBelow(2) * kPage1G +
                     rng.nextBelow(512) * kPage2M +
                     rng.nextBelow(512) * kPage4K;
        if (bytes == 0 || rng.nextBool(0.2))
            bytes = (1 + rng.nextBelow(1024)) * kPage4K;

        std::vector<GranuleRun> runs;
        forEachGranuleRun(gpa, bytes, hpa, nested,
                          [&](Addr pos, Addr run_bytes, PageSize size) {
                              runs.push_back({pos, run_bytes, size});
                          });
        ASSERT_EQ(runs, perGranuleRuns(gpa, bytes, hpa, nested))
            << "trial " << trial << ": gpa " << hexAddr(gpa) << " hpa "
            << hexAddr(hpa) << " bytes " << hexAddr(bytes);
        mixed += runs.size() >= 3;
        for (const GranuleRun &run : runs)
            gig_runs += run.size == PageSize::Size1G;
    }
    EXPECT_GT(mixed, 50u);
    EXPECT_GT(gig_runs, 5u);
}

/**
 * A MemSpace over a VMM's table pool, like its FrameManager, that
 * keeps the default word paths for runs and steps.
 */
class WordTableSpace : public paging::MemSpace
{
  public:
    WordTableSpace(Vmm &vmm, mem::PhysMemory &mem) : vmm(vmm), mem(mem)
    {
    }

    std::uint64_t read64(Addr addr) const override
    { return mem.read64(addr); }

    void write64(Addr addr, std::uint64_t value) override
    { mem.write64(addr, value); }

    Addr allocTableFrame() override
    { return vmm.frames().allocTableFrame(); }

    void freeTableFrame(Addr frame) override
    { vmm.frames().freeTableFrame(frame); }

  private:
    Vmm &vmm;
    mem::PhysMemory &mem;
};

TEST(HostTableSpaceTest, StepPathsMatchWordPaths)
{
    // Seeded maps and unmaps of 4K and 2M runs, whole leaf tables
    // and ragged ones, through the VMM's FrameManager on one host
    // and through word writes on its twin.  After every call the two
    // hosts' checkpoints (every word of every frame, and the
    // physmem read and write counts) and the tables' counts agree.
    // Auditing reads back every leaf and rescans emptied tables.
    setQuietLogging(true);
    audit::setEnabled(true);
    audit::resetCounters();
    constexpr Addr kHost = 64 * MiB;
    mem::PhysMemory step_mem(kHost), word_mem(kHost);
    Vmm step_vmm(step_mem, kHost), word_vmm(word_mem, kHost);
    WordTableSpace word_space(word_vmm, word_mem);
    {
        paging::PageTable step_pt(step_vmm.frames());
        paging::PageTable word_pt(word_space);
        const Addr window = 4 * GiB - 8 * kPage2M;
        const Addr window_bytes = 32 * kPage2M;
        Rng rng(2014);
        unsigned linear_tables = 0;
        for (int step = 0; step < 300; ++step) {
            const PageSize size =
                rng.nextBool(0.8) ? PageSize::Size4K : PageSize::Size2M;
            const Addr page = pageBytes(size);
            // Whole leaf tables half of the time.
            const bool whole = rng.nextBool(0.5);
            const Addr align = whole ? page * 512 : page;
            Addr va = window + rng.nextBelow(window_bytes / align) * align;
            Addr pages = whole ? 512 * (1 + rng.nextBelow(3))
                               : 1 + rng.nextBelow(1200);
            pages = std::min(pages, (window + window_bytes - va) / page);
            if (rng.nextBool(0.5)) {
                // Map the longest prefix of the run that is free.
                Addr free_pages = 0;
                for (; free_pages < pages; ++free_pages) {
                    const Addr at = va + free_pages * page;
                    const bool busy = word_pt.leafRangeOccupied(at, size);
                    ASSERT_EQ(step_pt.leafRangeOccupied(at, size), busy);
                    if (busy)
                        break;
                }
                const Addr pa = rng.nextBelow(4096) * kPage2M;
                step_pt.mapRange(va, pa, free_pages * page, size);
                word_pt.mapRange(va, pa, free_pages * page, size);
            } else {
                ASSERT_EQ(step_pt.unmapRange(va, pages * page, size),
                          word_pt.unmapRange(va, pages * page, size))
                    << "step " << step;
            }
            ASSERT_EQ(test::ckptBytes(step_mem), test::ckptBytes(word_mem))
                << "step " << step;
            ASSERT_EQ(test::ckptBytes(step_pt), test::ckptBytes(word_pt))
                << "step " << step;
            ASSERT_EQ(step_pt.mappedLeaves(), word_pt.mappedLeaves());
            ASSERT_EQ(step_pt.updateCount(), word_pt.updateCount());
            linear_tables = std::max<unsigned>(
                linear_tables,
                word_mem.storedFrames() - step_mem.storedFrames());
        }
        // Whole leaf tables were written by step on one side only.
        EXPECT_GT(linear_tables, 2u);
        EXPECT_GT(step_pt.updateCount(), 10000u);
    }
    EXPECT_EQ(audit::failureCount(), 0u);
    audit::setEnabled(false);
    setQuietLogging(false);
}

TEST(HostTableSpaceTest, LinearTableWithSteppingFlagsClearsEntryByEntry)
{
    // A restored leaf table can be linear with a stride that is not a
    // multiple of 4K, so its flag bits differ from entry to entry:
    // 2M leaves (0x87) step into table entries (0x101) and back.
    // unmapRange() clears its leaves as the word path does.
    constexpr Addr kHost = 64 * MiB;
    mem::PhysMemory step_mem(kHost), word_mem(kHost);
    Vmm step_vmm(step_mem, kHost), word_vmm(word_mem, kHost);
    WordTableSpace word_space(word_vmm, word_mem);
    paging::PageTable step_pt(step_vmm.frames());
    paging::PageTable word_pt(word_space);
    // The level-2 table that maps [0, 1G).
    const auto pd = [](paging::PageTable &pt, mem::PhysMemory &mem) {
        Addr table = pt.root();
        for (int level = paging::kLevels; level > 2; --level)
            table = paging::Pte{mem.read64(table)}.frame();
        return table;
    };
    const std::pair<paging::PageTable *, mem::PhysMemory *> sides[] = {
        {&step_pt, &step_mem}, {&word_pt, &word_mem}};
    std::uint64_t removed[2] = {};
    for (int i = 0; i < 2; ++i) {
        auto &[pt, mem] = sides[i];
        pt->mapRange(0, 0, 1 * GiB, PageSize::Size2M);
        mem->writeStep(pd(*pt, *mem), 0x87, kPage2M + 2);
        removed[i] = pt->unmapRange(0, 1 * GiB, PageSize::Size2M);
    }
    EXPECT_EQ(removed[0], removed[1]);
    EXPECT_GT(removed[0], 0u);
    EXPECT_LT(removed[0], 512u);
    EXPECT_EQ(step_pt.mappedLeaves(), word_pt.mappedLeaves());
    EXPECT_EQ(test::ckptBytes(step_mem), test::ckptBytes(word_mem));
    EXPECT_EQ(test::ckptBytes(step_pt), test::ckptBytes(word_pt));
    // The table entries left point at no table; clear them before the
    // tables' teardown walks them.
    for (const auto &[pt, mem] : sides)
        mem->zeroFrame(pd(*pt, *mem));
}

TEST_F(VmmTest, AllocHostBlockRetiresBadFrames)
{
    // Poison the next frame allocation would return (top-down).
    host.markBad(kHostRam - kPage4K);
    auto block = vmm.frames().allocBlock(PageSize::Size4K);
    ASSERT_TRUE(block.has_value());
    EXPECT_FALSE(host.isBad(*block));
    EXPECT_EQ(vmm.stats().counterValue("bad_frames_retired"), 1u);
}

TEST_F(VmmTest, GuestPhysStepsTranslateOnce)
{
    // Guest page tables write and read whole linear leaf tables as
    // one step on the backing host frame.
    auto &vm = vmm.createVm("a", smallVmConfig());
    mem::PhysAccessor &phys = vm.guestPhys();
    const Addr gpa = 20 * MiB;
    const Addr hpa = vm.gpaToHpa(gpa).value();
    phys.writeStep(gpa, 0x1007, kPage4K);
    std::uint64_t first = 0, stride = 0;
    ASSERT_TRUE(host.readStep(hpa, first, stride));
    EXPECT_EQ(first, 0x1007u);
    EXPECT_EQ(stride, kPage4K);

    const std::uint64_t reads = host.stats().counterValue("reads");
    first = stride = 0;
    ASSERT_TRUE(phys.readStep(gpa, first, stride));
    EXPECT_EQ(first, 0x1007u);
    EXPECT_EQ(stride, kPage4K);
    EXPECT_EQ(host.stats().counterValue("reads"), reads + 512);

    // An unbacked guest frame reads as zeros and loads nothing, as
    // readRun() reads it.
    vm.reclaimGuestPages({gpa});
    ASSERT_FALSE(vm.gpaToHpa(gpa).has_value());
    const std::uint64_t reads_unbacked = host.stats().counterValue("reads");
    first = stride = 1;
    ASSERT_TRUE(phys.readStep(gpa, first, stride));
    EXPECT_EQ(first, 0u);
    EXPECT_EQ(stride, 0u);
    EXPECT_EQ(host.stats().counterValue("reads"), reads_unbacked);
}

/** VMM swapping (a Table II service the segment modes trade away). */
class SwapTest : public ::testing::Test
{
  protected:
    static constexpr Addr kHostRam = 1 * GiB;

    SwapTest() : host(kHostRam), vmm(host, kHostRam) {}

    Vm &
    makeVm(StatName name)
    {
        VmConfig cfg;
        cfg.ramBytes = 128 * MiB;
        cfg.lowRamBytes = 32 * MiB;
        cfg.ioGapStart = 32 * MiB;
        cfg.ioGapEnd = 64 * MiB;
        return vmm.createVm(name, cfg);
    }

    mem::PhysMemory host;
    Vmm vmm;
};

TEST_F(SwapTest, SwapOutDropsBackingAndPreservesContents)
{
    auto &vm = makeVm("vm");
    vm.guestPhys().write64(80 * MiB, 0xabcdef);
    const Addr free_before = vmm.frames().buddy().freeBytes();
    ASSERT_TRUE(vm.swapOutPage(80 * MiB));
    EXPECT_TRUE(vm.isSwappedOut(80 * MiB));
    EXPECT_FALSE(vm.gpaToHpa(80 * MiB).has_value());
    EXPECT_EQ(vmm.frames().buddy().freeBytes(), free_before + kPage4K);

    // The nested fault path swaps it back in with contents intact.
    ASSERT_TRUE(vm.ensureBacked(80 * MiB));
    EXPECT_FALSE(vm.isSwappedOut(80 * MiB));
    EXPECT_EQ(vm.guestPhys().read64(80 * MiB), 0xabcdefu);
    EXPECT_GT(vm.stats().counterValue("pages_swapped_in"), 0u);
}

TEST_F(SwapTest, SwapDeclinedInsideVmmSegment)
{
    auto &vm = makeVm("vm");
    auto info = vm.createVmmSegment(32 * MiB);
    ASSERT_TRUE(info.has_value());
    const Addr inside = info->regs.base() + 4 * MiB;
    EXPECT_FALSE(vm.swapOutPage(inside));
    EXPECT_EQ(vm.stats().counterValue("swap_declined"), 1u);
    // Pages outside the segment still swap.
    Addr outside = 1 * MiB;
    ASSERT_FALSE(info->regs.contains(outside));
    EXPECT_TRUE(vm.swapOutPage(outside));
}

TEST_F(SwapTest, SwapUnbackedFails)
{
    auto &vm = makeVm("vm");
    std::vector<Addr> pages{80 * MiB};
    vm.reclaimGuestPages(pages);
    EXPECT_FALSE(vm.swapOutPage(80 * MiB));
}

} // namespace
} // namespace emv::vmm
