/** @file
 * Unit tests for the MMU's per-mode translation flow (Fig. 5,
 * Table I).  The fixture hand-builds a nested page table, a guest
 * page table whose nodes live in guest-physical memory, and both
 * segment register sets, then checks every mode's paths, costs and
 * category accounting.
 */

#include <gtest/gtest.h>

#include <memory>

#include "core/mmu.hh"
#include "mem/phys_memory.hh"
#include "paging/page_table.hh"
#include "../test_support.hh"

namespace emv::core {
namespace {

using paging::PageTable;
using segment::SegmentRegs;
using tlb::TlbGeometry;

class MmuTest : public ::testing::Test
{
  protected:
    // Layout: gPA [0, 64M) backed at hPA [16M, 80M), linearly.
    static constexpr Addr kGuestBytes = 64 * MiB;
    static constexpr Addr kHostBase = 16 * MiB;
    // Guest segment: gVA [1G, 1G+16M) -> gPA [8M, 24M).
    static constexpr Addr kSegVa = 1 * GiB;
    static constexpr Addr kSegBytes = 16 * MiB;
    static constexpr Addr kSegGpa = 8 * MiB;

    MmuTest()
        : host(512 * MiB), hostSpace(host, 256 * MiB),
          nestedPt(hostSpace)
    {
        for (Addr gpa = 0; gpa < kGuestBytes; gpa += kPage4K)
            nestedPt.map(gpa, kHostBase + gpa, PageSize::Size4K);
        gpaSpace = std::make_unique<test::NestedGpaSpace>(
            host, nestedPt, 40 * MiB);
        guestPt = std::make_unique<PageTable>(*gpaSpace);
        // A paged guest mapping outside the guest segment.
        guestPt->map(0x2000, 0x30000, PageSize::Size4K);
        // Guest PT also maps the segment region (§VI.B emulation).
        for (Addr off = 0; off < 1 * MiB; off += kPage4K) {
            guestPt->map(kSegVa + off, kSegGpa + off,
                         PageSize::Size4K);
        }
    }

    std::unique_ptr<Mmu>
    makeMmu(Mode mode, const MmuConfig &base = {})
    {
        auto mmu = std::make_unique<Mmu>(host, base);
        mmu->setMode(mode);
        mmu->setNestedRoot(nestedPt.root());
        mmu->setGuestRoot(guestPt->root());
        mmu->setNativeRoot(nestedPt.root());  // For native tests.
        if (usesGuestSegment(mode)) {
            mmu->setGuestSegment(SegmentRegs::fromRanges(
                kSegVa, kSegBytes, kSegGpa));
        }
        if (usesVmmSegment(mode)) {
            mmu->setVmmSegment(SegmentRegs::fromRanges(
                0, kGuestBytes, kHostBase));
        }
        return mmu;
    }

    mem::PhysMemory host;
    test::BumpMemSpace hostSpace;
    PageTable nestedPt;
    std::unique_ptr<test::NestedGpaSpace> gpaSpace;
    std::unique_ptr<PageTable> guestPt;
};

TEST_F(MmuTest, NativeWalkThenL1Hit)
{
    // Native mode: walk the "nested" table as a plain 1D table.
    auto mmu = makeMmu(Mode::Native);
    auto first = mmu->translate(0x123456);
    ASSERT_TRUE(first.ok);
    EXPECT_EQ(first.path, TranslatePath::Walk);
    EXPECT_EQ(first.hpa, kHostBase + 0x123456);
    auto second = mmu->translate(0x123458);
    EXPECT_EQ(second.path, TranslatePath::L1Hit);
    EXPECT_EQ(second.cycles, 0u);
    EXPECT_EQ(mmu->stats().counterValue("walks"), 1u);
}

TEST_F(MmuTest, NativeFaultOnUnmapped)
{
    auto mmu = makeMmu(Mode::Native);
    auto result = mmu->translate(kGuestBytes + 0x1000);
    EXPECT_FALSE(result.ok);
    EXPECT_EQ(result.path, TranslatePath::Fault);
    EXPECT_EQ(result.faultSpace, FaultSpace::Guest);
    EXPECT_EQ(mmu->stats().counterValue("faults"), 1u);
}

TEST_F(MmuTest, BaseVirtualizedComposesBothDimensions)
{
    auto mmu = makeMmu(Mode::BaseVirtualized);
    auto result = mmu->translate(0x2abc);
    ASSERT_TRUE(result.ok);
    // gVA 0x2abc -> gPA 0x30abc -> hPA base + 0x30abc.
    EXPECT_EQ(result.hpa, kHostBase + 0x30abc);
    EXPECT_EQ(result.path, TranslatePath::Walk);
    EXPECT_GT(mmu->stats().counterValue("guest_refs"), 0u);
    EXPECT_GT(mmu->stats().counterValue("nested_refs"), 0u);
}

TEST_F(MmuTest, BaseVirtualizedFirstWalkMakes24Refs)
{
    MmuConfig cfg;
    cfg.walkCachesEnabled = false;
    cfg.nestedTlbShared = false;
    auto mmu = makeMmu(Mode::BaseVirtualized, cfg);
    auto result = mmu->translate(0x2abc);
    ASSERT_TRUE(result.ok);
    EXPECT_EQ(mmu->stats().counterValue("guest_refs"), 4u);
    EXPECT_EQ(mmu->stats().counterValue("nested_refs"), 20u);
}

TEST_F(MmuTest, NestedTlbCachesSecondDimension)
{
    MmuConfig cfg;
    cfg.walkCachesEnabled = false;
    auto mmu = makeMmu(Mode::BaseVirtualized, cfg);
    mmu->translate(0x2abc);
    const auto miss_refs = mmu->stats().counterValue("nested_refs");
    // Translate a *different* page whose walk revisits the same
    // guest-table gPAs: nested TLB entries now cover them.
    guestPt->map(0x3000, 0x31000, PageSize::Size4K);
    mmu->translate(0x3abc);
    const auto second_refs =
        mmu->stats().counterValue("nested_refs") - miss_refs;
    EXPECT_LT(second_refs, 20u);
    EXPECT_GT(mmu->stats().counterValue("nested_tlb_hits"), 0u);
}

TEST_F(MmuTest, VmmDirectFlattensToFourRefsAndFiveCalcs)
{
    MmuConfig cfg;
    cfg.walkCachesEnabled = false;
    auto mmu = makeMmu(Mode::VmmDirect, cfg);
    auto result = mmu->translate(0x2abc);
    ASSERT_TRUE(result.ok);
    EXPECT_EQ(result.hpa, kHostBase + 0x30abc);
    // §III.B: 4 memory accesses, 5 base-bound checks.
    EXPECT_EQ(mmu->stats().counterValue("guest_refs"), 4u);
    EXPECT_EQ(mmu->stats().counterValue("nested_refs"), 0u);
    EXPECT_EQ(mmu->stats().counterValue("calculations"), 5u);
    EXPECT_EQ(mmu->stats().counterValue("cat_vmm_only"), 1u);
}

TEST_F(MmuTest, VmmDirectEscapedPageFallsBackToNestedPaging)
{
    MmuConfig cfg;
    cfg.walkCachesEnabled = false;
    auto mmu = makeMmu(Mode::VmmDirect, cfg);
    // Escape the data page's gPA.
    mmu->vmmFilter().insertPage(0x30000);
    auto result = mmu->translate(0x2abc);
    ASSERT_TRUE(result.ok);
    EXPECT_EQ(result.hpa, kHostBase + 0x30abc);
    EXPECT_GT(mmu->stats().counterValue("escape_slow_paths"), 0u);
    EXPECT_GT(mmu->stats().counterValue("nested_refs"), 0u);
    EXPECT_EQ(mmu->stats().counterValue("cat_neither"), 1u);
}

TEST_F(MmuTest, GuestDirectUsesOneCalcAndNestedWalk)
{
    MmuConfig cfg;
    cfg.walkCachesEnabled = false;
    cfg.nestedTlbShared = false;
    auto mmu = makeMmu(Mode::GuestDirect, cfg);
    auto result = mmu->translate(kSegVa + 0x5123);
    ASSERT_TRUE(result.ok);
    // gVA -> gPA by segment, then nested walk of the data gPA.
    EXPECT_EQ(result.hpa, kHostBase + kSegGpa + 0x5123);
    EXPECT_EQ(mmu->stats().counterValue("guest_refs"), 0u);
    EXPECT_EQ(mmu->stats().counterValue("nested_refs"), 4u);
    EXPECT_EQ(mmu->stats().counterValue("calculations"), 1u);
    EXPECT_EQ(mmu->stats().counterValue("cat_guest_only"), 1u);
}

TEST_F(MmuTest, GuestDirectOutsideSegmentDoes2DWalk)
{
    MmuConfig cfg;
    cfg.walkCachesEnabled = false;
    cfg.nestedTlbShared = false;
    auto mmu = makeMmu(Mode::GuestDirect, cfg);
    auto result = mmu->translate(0x2abc);
    ASSERT_TRUE(result.ok);
    EXPECT_EQ(mmu->stats().counterValue("cat_neither"), 1u);
    EXPECT_EQ(mmu->stats().counterValue("guest_refs"), 4u);
}

TEST_F(MmuTest, DualDirectBothIsZeroDWalk)
{
    auto mmu = makeMmu(Mode::DualDirect);
    auto result = mmu->translate(kSegVa + 0x7777);
    ASSERT_TRUE(result.ok);
    EXPECT_EQ(result.path, TranslatePath::DualSegment);
    EXPECT_EQ(result.hpa, kHostBase + kSegGpa + 0x7777);
    // Table II: one base-bound check, zero memory references.
    EXPECT_EQ(result.cycles, mmu->costs().segmentCheckCycles);
    EXPECT_EQ(mmu->stats().counterValue("cat_both"), 1u);
    EXPECT_EQ(mmu->stats().counterValue("walks"), 0u);
    // The 0D path refills the L1.
    auto second = mmu->translate(kSegVa + 0x7778);
    EXPECT_EQ(second.path, TranslatePath::L1Hit);
}

TEST_F(MmuTest, DualDirectGuestOnlyWhenPageEscaped)
{
    MmuConfig cfg;
    cfg.walkCachesEnabled = false;
    cfg.nestedTlbShared = false;
    auto mmu = makeMmu(Mode::DualDirect, cfg);
    const Addr gva = kSegVa + 0x9000;
    mmu->vmmFilter().insertPage(kSegGpa + 0x9000);
    auto result = mmu->translate(gva);
    ASSERT_TRUE(result.ok);
    EXPECT_EQ(result.path, TranslatePath::Walk);
    EXPECT_EQ(result.hpa, kHostBase + kSegGpa + 0x9000);
    EXPECT_EQ(mmu->stats().counterValue("cat_guest_only"), 1u);
}

TEST_F(MmuTest, DualDirectVmmOnlyOutsideGuestSegment)
{
    MmuConfig cfg;
    cfg.walkCachesEnabled = false;
    auto mmu = makeMmu(Mode::DualDirect, cfg);
    auto result = mmu->translate(0x2abc);
    ASSERT_TRUE(result.ok);
    EXPECT_EQ(mmu->stats().counterValue("cat_vmm_only"), 1u);
    EXPECT_EQ(result.hpa, kHostBase + 0x30abc);
}

TEST_F(MmuTest, NativeDirectSegmentHit)
{
    auto mmu = makeMmu(Mode::NativeDirect);
    // In native DS mode the guest segment maps VA->PA directly.
    auto result = mmu->translate(kSegVa + 0x4321);
    ASSERT_TRUE(result.ok);
    EXPECT_EQ(result.path, TranslatePath::NativeSegment);
    EXPECT_EQ(result.hpa, kSegGpa + 0x4321);
    EXPECT_EQ(result.cycles, mmu->costs().segmentCheckCycles);
}

TEST_F(MmuTest, NativeDirectEscapedPageWalksPageTable)
{
    auto mmu = makeMmu(Mode::NativeDirect);
    mmu->setNativeRoot(nestedPt.root());
    mmu->guestFilter().insertPage(kSegVa + 0x4000);
    auto result = mmu->translate(kSegVa + 0x4001);
    // The native table doesn't map kSegVa; expect a fault — proving
    // the escape path really left the segment.
    EXPECT_FALSE(result.ok);
    EXPECT_GT(mmu->stats().counterValue("escape_slow_paths"), 0u);
}

TEST_F(MmuTest, L2HitRefillsL1)
{
    TlbGeometry tiny;
    tiny.l1Sets4K = 1;
    tiny.l1Ways4K = 1;
    MmuConfig cfg;
    cfg.tlbGeometry = tiny;
    auto mmu = makeMmu(Mode::Native, cfg);
    mmu->translate(0x1000);
    mmu->translate(0x200000);  // Evicts the 1-entry L1.
    auto result = mmu->translate(0x1000);
    EXPECT_EQ(result.path, TranslatePath::L2Hit);
    EXPECT_EQ(result.cycles, mmu->costs().l2HitCycles);
}

TEST_F(MmuTest, FlushGuestContextDropsTranslations)
{
    auto mmu = makeMmu(Mode::Native);
    mmu->translate(0x1000);
    mmu->flushGuestContext();
    auto result = mmu->translate(0x1000);
    EXPECT_EQ(result.path, TranslatePath::Walk);
}

TEST_F(MmuTest, InvalidateGuestPageIsTargeted)
{
    auto mmu = makeMmu(Mode::Native);
    mmu->translate(0x1000);
    mmu->translate(0x123000);
    mmu->invalidateGuestPage(0x1000, PageSize::Size4K);
    EXPECT_EQ(mmu->translate(0x1000).path, TranslatePath::Walk);
    EXPECT_EQ(mmu->translate(0x123000).path, TranslatePath::L1Hit);
}

TEST_F(MmuTest, ModeSwitchFlushesEverything)
{
    auto mmu = makeMmu(Mode::Native);
    mmu->translate(0x1000);
    mmu->setMode(Mode::BaseVirtualized);
    auto result = mmu->translate(0x2000);
    EXPECT_EQ(result.path, TranslatePath::Walk);
}

TEST_F(MmuTest, WalkCyclesPriceCacheHitsAndMisses)
{
    MmuConfig cfg;
    cfg.walkCachesEnabled = false;
    auto mmu = makeMmu(Mode::Native, cfg);
    auto first = mmu->translate(0x5000);
    // Cold walk: 4 refs, all missing the PTE-line cache.
    EXPECT_EQ(first.cycles, 4 * cfg.costs.pteMemCycles);
    mmu->flushGuestContext();
    auto second = mmu->translate(0x5000);
    // Warm walk: the same four lines are resident now.
    EXPECT_EQ(second.cycles, 4 * cfg.costs.pteCacheHitCycles);
}

TEST_F(MmuTest, FractionsReflectCategories)
{
    auto mmu = makeMmu(Mode::DualDirect);
    mmu->translate(kSegVa + 0x1000);  // Both.
    mmu->translate(0x2abc);           // VMM only.
    EXPECT_NEAR(mmu->fractionBoth(), 0.5, 1e-9);
    EXPECT_NEAR(mmu->fractionVmmOnly(), 0.5, 1e-9);
    EXPECT_DOUBLE_EQ(mmu->fractionGuestOnly(), 0.0);
}

TEST_F(MmuTest, SegmentGranulePropagation)
{
    // A 2M-aligned VMM segment offset lets nested translations
    // cover 2M granules even from a 4K nested table.
    MmuConfig cfg;
    auto mmu = makeMmu(Mode::VmmDirect, cfg);
    auto result = mmu->translate(0x2abc);
    ASSERT_TRUE(result.ok);
    // Guest leaf is 4K, so the inserted entry granule is 4K: a
    // neighbouring VA in the same 4K page hits, the next page
    // misses.
    EXPECT_EQ(mmu->translate(0x2fff).path, TranslatePath::L1Hit);
    EXPECT_NE(mmu->translate(0x3000).path, TranslatePath::L1Hit);
}

TEST_F(MmuTest, CheckpointRoundTripPreservesTlbsAndMode)
{
    auto a = makeMmu(Mode::BaseVirtualized);
    ASSERT_TRUE(a->translate(0x2abc).ok);
    const auto bytes = test::ckptBytes(*a);

    // Restore into an MMU booted in a different mode: the serialized
    // mode wins, and the warm TLB state comes back with it.
    auto b = makeMmu(Mode::Native);
    ASSERT_TRUE(test::ckptRestore(bytes, *b));
    EXPECT_EQ(test::ckptBytes(*b), bytes);
    EXPECT_EQ(b->mode(), Mode::BaseVirtualized);
    auto warm = b->translate(0x2abd);
    ASSERT_TRUE(warm.ok);
    EXPECT_EQ(warm.path, TranslatePath::L1Hit);
    EXPECT_EQ(b->stats().counterValue("walks"),
              a->stats().counterValue("walks"));
}

TEST_F(MmuTest, CheckpointRejectsTruncatedState)
{
    auto a = makeMmu(Mode::DualDirect);
    auto bytes = test::ckptBytes(*a);
    bytes.resize(bytes.size() / 2);
    auto b = makeMmu(Mode::DualDirect);
    EXPECT_FALSE(test::ckptRestore(bytes, *b));
}

TEST_F(MmuTest, DualDirectDisabledVmmSegmentActsAsGuestDirect)
{
    MmuConfig cfg;
    cfg.walkCachesEnabled = false;
    cfg.nestedTlbShared = false;
    auto mmu = makeMmu(Mode::DualDirect, cfg);
    mmu->setVmmSegment(SegmentRegs());  // BASE == LIMIT.
    auto result = mmu->translate(kSegVa + 0x5000);
    ASSERT_TRUE(result.ok);
    EXPECT_EQ(result.path, TranslatePath::Walk);
    EXPECT_EQ(mmu->stats().counterValue("cat_guest_only"), 1u);
    EXPECT_EQ(mmu->stats().counterValue("nested_refs"), 4u);
}

/**
 * Table I category accounting per mode, pinned over one fixed
 * sequence: a guest-segment hit, a guest-escaped page, a page whose
 * gPA escaped the VMM segment, a paged address outside the guest
 * segment, and then (VMM segment disabled) a segment hit and a paged
 * address again.  Walk caches and the nested TLB stay on, so the
 * ref and calculation counts include their effect.
 */
struct CategoryRow
{
    const char *name;  //!< Test-name suffix.
    Mode mode;
    std::uint64_t both, vmmOnly, guestOnly, neither;
    std::uint64_t calculations, guestRefs, nestedRefs, nativeRefs;
};

std::ostream &
operator<<(std::ostream &os, const CategoryRow &row)
{
    return os << row.mode;
}

class MmuCategoryTest : public MmuTest,
                        public ::testing::WithParamInterface<CategoryRow>
{
};

TEST_P(MmuCategoryTest, FixedSequencePinsCategoriesAndRefs)
{
    const CategoryRow &want = GetParam();
    guestPt->map(0x3000, 0x31000, PageSize::Size4K);
    auto mmu = makeMmu(want.mode);
    mmu->guestFilter().insertPage(kSegVa + 0x9000);
    mmu->vmmFilter().insertPage(kSegGpa + 0xa000);

    mmu->translate(kSegVa + 0x5123);  // Segment hit.
    mmu->translate(kSegVa + 0x9000);  // Guest-escaped page.
    mmu->translate(kSegVa + 0xa000);  // gPA escaped the VMM segment.
    mmu->translate(0x2abc);           // Outside the guest segment.
    mmu->setVmmSegment(SegmentRegs());  // BASE == LIMIT.
    mmu->translate(kSegVa + 0x6000);
    mmu->translate(0x3abc);

    const StatGroup &s = mmu->stats();
    EXPECT_EQ(s.counterValue("cat_both"), want.both);
    EXPECT_EQ(s.counterValue("cat_vmm_only"), want.vmmOnly);
    EXPECT_EQ(s.counterValue("cat_guest_only"), want.guestOnly);
    EXPECT_EQ(s.counterValue("cat_neither"), want.neither);
    EXPECT_EQ(s.counterValue("calculations"), want.calculations);
    EXPECT_EQ(s.counterValue("guest_refs"), want.guestRefs);
    EXPECT_EQ(s.counterValue("nested_refs"), want.nestedRefs);
    EXPECT_EQ(s.counterValue("native_refs"), want.nativeRefs);
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, MmuCategoryTest,
    ::testing::Values(
        // name, mode, cat_both, cat_vmm_only, cat_guest_only,
        // cat_neither, calculations, guest_refs, nested_refs,
        // native_refs.
        CategoryRow{"Native", Mode::Native,
                    0, 0, 0, 0,
                    0, 0, 0, 4},
        CategoryRow{"NativeDirect", Mode::NativeDirect,
                    0, 0, 0, 0,
                    0, 0, 0, 4},
        CategoryRow{"BaseVirtualized", Mode::BaseVirtualized,
                    0, 0, 0, 0,
                    0, 11, 17, 0},
        CategoryRow{"DualDirect", Mode::DualDirect,
                    1, 2, 2, 1,
                    15, 8, 9, 0},
        CategoryRow{"VmmDirect", Mode::VmmDirect,
                    0, 3, 0, 3,
                    13, 11, 10, 0},
        CategoryRow{"GuestDirect", Mode::GuestDirect,
                    0, 0, 3, 3,
                    6, 8, 17, 0}),
    [](const auto &info) { return std::string(info.param.name); });

} // namespace
} // namespace emv::core
