/** @file Unit tests for 2D nested walks — the radix walk engine with
 *  a gPA→hPA step — where Fig. 2's reference counts are verified. */

#include <gtest/gtest.h>

#include "paging/page_table.hh"
#include "paging/walker.hh"
#include "../test_support.hh"

namespace emv::paging {
namespace {

class NestedWalkerTest : public ::testing::Test
{
  protected:
    static constexpr Addr kGuestMemBytes = 64 * MiB;
    static constexpr Addr kHostBacking = 16 * MiB;

    NestedWalkerTest()
        : host(512 * MiB), hostSpace(host, 256 * MiB),
          nestedPt(hostSpace)
    {
        // Back guest physical [0, 64M) at host [16M, 80M), 4K pages.
        for (Addr gpa = 0; gpa < kGuestMemBytes; gpa += kPage4K)
            nestedPt.map(gpa, kHostBacking + gpa, PageSize::Size4K);
        guestSpace = std::make_unique<test::NestedGpaSpace>(
            host, nestedPt, /*gpa_bump_base=*/32 * MiB);
        guestPt = std::make_unique<PageTable>(*guestSpace);
    }

    /** 2D walk of @p gva, second dimension through real nested-table
     *  walks. */
    WalkOutcome
    pagedWalk(Addr gva, WalkTrace &trace,
              tlb::WalkCache *guest_psc = nullptr)
    {
        return radixWalk(host, guestPt->root(), gva,
                         RefStage::GuestTable, trace, guest_psc,
                         [&](Addr gpa) {
                             return radixWalk(host, nestedPt.root(), gpa,
                                              RefStage::NestedTable,
                                              trace, nullptr,
                                              hostResident);
                         });
    }

    /** 2D walk of @p gva, second dimension through a linear segment
     *  (VMM Direct style): one calculation, 1G granule. */
    WalkOutcome
    segmentWalk(Addr gva, WalkTrace &trace)
    {
        return radixWalk(host, guestPt->root(), gva,
                         RefStage::GuestTable, trace, nullptr,
                         [&](Addr gpa) {
                             ++trace.calculations;
                             return WalkOutcome{gpa + kHostBacking,
                                                PageSize::Size1G, true};
                         });
    }

    mem::PhysMemory host;
    test::BumpMemSpace hostSpace;
    PageTable nestedPt;
    std::unique_ptr<test::NestedGpaSpace> guestSpace;
    std::unique_ptr<PageTable> guestPt;
};

TEST_F(NestedWalkerTest, TwoDWalkMakes24References)
{
    guestPt->map(0x1000, 0x2000, PageSize::Size4K);
    WalkTrace trace;
    auto out = pagedWalk(0x1234, trace);
    ASSERT_TRUE(out.ok);
    // Fig. 2: 4 guest levels x (4 nested refs + 1 guest read)
    // + 4 nested refs for the final data gPA = 24.
    EXPECT_EQ(trace.refs.size(), 24u);
    EXPECT_EQ(trace.countStage(RefStage::GuestTable), 4u);
    EXPECT_EQ(trace.countStage(RefStage::NestedTable), 20u);
}

TEST_F(NestedWalkerTest, StageTalliesMatchARescanOfRefs)
{
    guestPt->map(0x1000, 0x2000, PageSize::Size4K);
    WalkTrace trace;
    ASSERT_TRUE(pagedWalk(0x1234, trace).ok);
    ASSERT_EQ(trace.refs.size(), WalkRefs::kCapacity);
    for (RefStage stage :
         {RefStage::GuestTable, RefStage::NestedTable,
          RefStage::NativeTable, RefStage::ShadowTable}) {
        std::size_t rescan = 0;
        for (const auto &ref : trace.refs)
            rescan += ref.stage == stage ? 1 : 0;
        EXPECT_EQ(trace.countStage(stage), rescan)
            << refStageName(stage);
    }

    trace.clear();
    EXPECT_TRUE(trace.refs.empty());
    EXPECT_EQ(trace.countStage(RefStage::NestedTable), 0u);
}

TEST(WalkTraceDeathTest, TwentyFifthRefPanics)
{
    WalkTrace trace;
    for (std::size_t i = 0; i < WalkRefs::kCapacity; ++i)
        trace.addRef(0x1000 * i, RefStage::NestedTable, 1);
    EXPECT_EQ(trace.refs.size(), 24u);
    EXPECT_DEATH(trace.addRef(0x99000, RefStage::GuestTable, 1),
                 "walk trace overflow");
}

TEST_F(NestedWalkerTest, TranslationComposesCorrectly)
{
    guestPt->map(0x400000, 0x10000, PageSize::Size4K);
    WalkTrace trace;
    auto out = pagedWalk(0x400abc, trace);
    ASSERT_TRUE(out.ok);
    // gVA 0x400abc -> gPA 0x10abc -> hPA backing + 0x10abc.
    EXPECT_EQ(out.pa, kHostBacking + 0x10abcu);
    EXPECT_EQ(out.size, PageSize::Size4K);
}

TEST_F(NestedWalkerTest, GuestFaultStopsWalk)
{
    WalkTrace trace;
    auto out = pagedWalk(0xdead0000, trace);
    EXPECT_FALSE(out.ok);
    // Root pointer nested-translated (4 refs) + 1 guest read that
    // found a non-present entry.
    EXPECT_EQ(trace.refs.size(), 5u);
}

TEST_F(NestedWalkerTest, SegmentTranslatorFlattensTo4Refs)
{
    guestPt->map(0x1000, 0x2000, PageSize::Size4K);
    WalkTrace trace;
    auto out = segmentWalk(0x1111, trace);
    ASSERT_TRUE(out.ok);
    // VMM Direct (§III.B): 4 memory accesses + 5 calculations.
    EXPECT_EQ(trace.refs.size(), 4u);
    EXPECT_EQ(trace.calculations, 5u);
    EXPECT_EQ(out.pa, kHostBacking + 0x2111u);
}

TEST_F(NestedWalkerTest, GuestLargePageShortensGuestDimension)
{
    guestPt->map(0x40000000, 0x200000, PageSize::Size2M);
    WalkTrace trace;
    auto out = pagedWalk(0x40000010, trace);
    ASSERT_TRUE(out.ok);
    // 3 guest levels x 5 + final 4 = 19 refs.
    EXPECT_EQ(trace.refs.size(), 19u);
    // Combined granule limited by the 4K nested leaves.
    EXPECT_EQ(out.size, PageSize::Size4K);
}

TEST_F(NestedWalkerTest, CombinedSizeIsMinOfDimensions)
{
    guestPt->map(0x40000000, 0x200000, PageSize::Size2M);
    WalkTrace trace;
    auto out = segmentWalk(0x40000010, trace);  // 1G granule.
    ASSERT_TRUE(out.ok);
    EXPECT_EQ(out.size, PageSize::Size2M);
}

TEST_F(NestedWalkerTest, GuestPscSkipsNestedWork)
{
    guestPt->map(0x1000, 0x2000, PageSize::Size4K);
    guestPt->map(0x2000, 0x3000, PageSize::Size4K);
    tlb::WalkCache psc(4, 4);
    WalkTrace first;
    pagedWalk(0x1000, first, &psc);
    EXPECT_EQ(first.refs.size(), 24u);
    WalkTrace second;
    pagedWalk(0x2000, second, &psc);
    // PSC hit at guest level 2: 1 guest level x 5 + final 4 = 9.
    EXPECT_EQ(second.refs.size(), 9u);
}

} // namespace
} // namespace emv::paging
