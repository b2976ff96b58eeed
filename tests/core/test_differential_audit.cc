/** @file
 * Tests for the differential auditor (core/differential_auditor.hh):
 * every fast-path translation re-derived through the reference 2D
 * nested walk must agree, and a corrupted translation structure must
 * be flagged as a mismatch.
 */

#include <gtest/gtest.h>

#include <memory>

#include "common/audit.hh"
#include "common/logging.hh"
#include "core/mmu.hh"
#include "mem/phys_memory.hh"
#include "paging/page_table.hh"
#include "../test_support.hh"

namespace emv::core {
namespace {

using paging::PageTable;
using segment::SegmentRegs;

class DifferentialAuditTest : public ::testing::Test
{
  protected:
    // Layout mirrors test_mmu: gPA [0, 64M) backed linearly at
    // hPA [16M, 80M); guest segment gVA [1G, 1G+16M) -> gPA [8M, ..).
    static constexpr Addr kGuestBytes = 64 * MiB;
    static constexpr Addr kHostBase = 16 * MiB;
    static constexpr Addr kSegVa = 1 * GiB;
    static constexpr Addr kSegBytes = 16 * MiB;
    static constexpr Addr kSegGpa = 8 * MiB;

    DifferentialAuditTest()
        : host(512 * MiB), hostSpace(host, 256 * MiB),
          nestedPt(hostSpace)
    {
        setQuietLogging(true);
        for (Addr gpa = 0; gpa < kGuestBytes; gpa += kPage4K)
            nestedPt.map(gpa, kHostBase + gpa, PageSize::Size4K);
        gpaSpace = std::make_unique<test::NestedGpaSpace>(
            host, nestedPt, 40 * MiB);
        guestPt = std::make_unique<PageTable>(*gpaSpace);
        guestPt->map(0x2000, 0x30000, PageSize::Size4K);
        for (Addr off = 0; off < 1 * MiB; off += kPage4K) {
            guestPt->map(kSegVa + off, kSegGpa + off,
                         PageSize::Size4K);
        }
        audit::setFailFast(false);
        audit::setEnabled(true);
        audit::resetCounters();
    }

    ~DifferentialAuditTest() override
    {
        audit::setEnabled(false);
        audit::resetCounters();
    }

    std::unique_ptr<Mmu>
    makeMmu(Mode mode)
    {
        auto mmu = std::make_unique<Mmu>(host, MmuConfig{});
        mmu->setMode(mode);
        mmu->setNestedRoot(nestedPt.root());
        mmu->setGuestRoot(guestPt->root());
        mmu->setNativeRoot(nestedPt.root());
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

TEST_F(DifferentialAuditTest, AllModesAgreeWithTheReferenceWalk)
{
    for (Mode mode :
         {Mode::Native, Mode::NativeDirect, Mode::BaseVirtualized,
          Mode::DualDirect, Mode::VmmDirect, Mode::GuestDirect}) {
        SCOPED_TRACE(modeName(mode));
        audit::resetCounters();
        auto mmu = makeMmu(mode);
        // Paged mapping, segment region, repeat (TLB hits), fault.
        // Plain Native has no mapping at kSegVa (only the paged
        // [0, 64M) table): it must fault there, and the reference
        // walk must agree that it faults.
        const bool seg_mapped = mode != Mode::Native;
        EXPECT_TRUE(mmu->translate(0x2abc).ok);
        EXPECT_EQ(mmu->translate(kSegVa + 0x5123).ok, seg_mapped);
        EXPECT_TRUE(mmu->translate(0x2abc).ok);
        EXPECT_EQ(mmu->translate(kSegVa + 0x5123).ok, seg_mapped);
        EXPECT_FALSE(mmu->translate(0x40000000ull + 2 * GiB).ok);
        EXPECT_GT(audit::checkCount(), 0u);
        EXPECT_EQ(audit::mismatchCount(), 0u)
            << "fast path diverged from the 2D reference";
        EXPECT_EQ(audit::failureCount(), 0u);
    }
}

TEST_F(DifferentialAuditTest, EveryTranslationIsAudited)
{
    auto mmu = makeMmu(Mode::BaseVirtualized);
    for (Addr off = 0; off < 16 * kPage4K; off += 0x100)
        mmu->translate(kSegVa + off);
    EXPECT_EQ(audit::stats().counterValue("mismatches"), 0u);
    EXPECT_GE(audit::checkCount(), 256u);
}

TEST_F(DifferentialAuditTest, StaleTlbAfterPteCorruptionIsCaught)
{
    auto mmu = makeMmu(Mode::BaseVirtualized);
    auto before = mmu->translate(0x2abc);
    ASSERT_TRUE(before.ok);
    ASSERT_EQ(audit::mismatchCount(), 0u);

    // Corrupt the guest PTE behind the MMU's back: the leaf for
    // gVA 0x2000 now points at gPA 0x31000, but no TLB shootdown is
    // performed, so the fast path keeps serving the stale frame.
    guestPt->unmap(0x2000, PageSize::Size4K);
    guestPt->map(0x2000, 0x31000, PageSize::Size4K);

    auto after = mmu->translate(0x2abc);
    EXPECT_TRUE(after.ok);
    EXPECT_EQ(after.hpa, before.hpa);  // Stale result survived.
    EXPECT_GE(audit::mismatchCount(), 1u)
        << "differential auditor missed a stale translation";
}

TEST_F(DifferentialAuditTest, AuditIsSilentWhenDisabled)
{
    audit::setEnabled(false);
    auto mmu = makeMmu(Mode::DualDirect);
    EXPECT_TRUE(mmu->translate(kSegVa + 0x123).ok);
    EXPECT_EQ(audit::checkCount(), 0u);
    EXPECT_EQ(audit::mismatchCount(), 0u);
}

} // namespace
} // namespace emv::core
