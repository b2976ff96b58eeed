/** @file Unit tests for the 2D nested walker — Fig. 2's reference
 *  counts are verified here. */

#include <gtest/gtest.h>

#include "paging/nested_walker.hh"
#include "paging/page_table.hh"
#include "paging/walker.hh"
#include "../test_support.hh"

namespace emv::paging {
namespace {

/** gPA space implemented through a real nested page table. */
class NestedMemSpace : public MemSpace
{
  public:
    NestedMemSpace(mem::PhysMemory &host, const PageTable &nested_pt,
                   Addr gpa_bump_base)
        : host(host), nestedPt(nested_pt), next(gpa_bump_base)
    {
    }

    std::uint64_t
    read64(Addr gpa) const override
    {
        auto t = nestedPt.translate(gpa);
        EXPECT_TRUE(t.has_value());
        return host.read64(t->pa);
    }

    void
    write64(Addr gpa, std::uint64_t value) override
    {
        auto t = nestedPt.translate(gpa);
        ASSERT_TRUE(t.has_value());
        host.write64(t->pa, value);
    }

    Addr
    allocTableFrame() override
    {
        const Addr gpa = next;
        next += kPage4K;
        for (unsigned i = 0; i < 512; ++i)
            write64(gpa + 8ull * i, 0);
        return gpa;
    }

    void freeTableFrame(Addr) override {}

  private:
    mem::PhysMemory &host;
    const PageTable &nestedPt;
    Addr next;
};

/** Second dimension through real nested-table walks. */
class PagingGpaTranslator : public GpaTranslator
{
  public:
    PagingGpaTranslator(mem::PhysMemory &host, Addr nested_root)
        : walker(host), nestedRoot(nested_root)
    {
    }

    WalkOutcome
    toHost(Addr gpa, WalkTrace &trace) override
    {
        return walker.walk(nestedRoot, gpa, RefStage::NestedTable,
                           trace);
    }

  private:
    Walker walker;
    Addr nestedRoot;
};

/** Second dimension through a linear segment (VMM Direct style). */
class SegmentGpaTranslator : public GpaTranslator
{
  public:
    explicit SegmentGpaTranslator(Addr offset) : offset(offset) {}

    WalkOutcome
    toHost(Addr gpa, WalkTrace &trace) override
    {
        ++trace.calculations;
        return WalkOutcome{gpa + offset, PageSize::Size1G, true};
    }

  private:
    Addr offset;
};

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
        guestSpace = std::make_unique<NestedMemSpace>(
            host, nestedPt, /*gpa_bump_base=*/32 * MiB);
        guestPt = std::make_unique<PageTable>(*guestSpace);
    }

    mem::PhysMemory host;
    test::BumpMemSpace hostSpace;
    PageTable nestedPt;
    std::unique_ptr<NestedMemSpace> guestSpace;
    std::unique_ptr<PageTable> guestPt;
};

TEST_F(NestedWalkerTest, TwoDWalkMakes24References)
{
    guestPt->map(0x1000, 0x2000, PageSize::Size4K);
    NestedWalker nested_walker(host);
    PagingGpaTranslator tx(host, nestedPt.root());
    WalkTrace trace;
    auto out = nested_walker.walk(guestPt->root(), 0x1234, tx, trace);
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
    NestedWalker nested_walker(host);
    PagingGpaTranslator tx(host, nestedPt.root());
    WalkTrace trace;
    ASSERT_TRUE(
        nested_walker.walk(guestPt->root(), 0x1234, tx, trace).ok);
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
    NestedWalker nested_walker(host);
    PagingGpaTranslator tx(host, nestedPt.root());
    WalkTrace trace;
    auto out = nested_walker.walk(guestPt->root(), 0x400abc, tx,
                                  trace);
    ASSERT_TRUE(out.ok);
    // gVA 0x400abc -> gPA 0x10abc -> hPA backing + 0x10abc.
    EXPECT_EQ(out.pa, kHostBacking + 0x10abcu);
    EXPECT_EQ(out.size, PageSize::Size4K);
}

TEST_F(NestedWalkerTest, GuestFaultStopsWalk)
{
    NestedWalker nested_walker(host);
    PagingGpaTranslator tx(host, nestedPt.root());
    WalkTrace trace;
    auto out =
        nested_walker.walk(guestPt->root(), 0xdead0000, tx, trace);
    EXPECT_FALSE(out.ok);
    // Root pointer nested-translated (4 refs) + 1 guest read that
    // found a non-present entry.
    EXPECT_EQ(trace.refs.size(), 5u);
}

TEST_F(NestedWalkerTest, SegmentTranslatorFlattensTo4Refs)
{
    guestPt->map(0x1000, 0x2000, PageSize::Size4K);
    NestedWalker nested_walker(host);
    SegmentGpaTranslator tx(kHostBacking);
    WalkTrace trace;
    auto out = nested_walker.walk(guestPt->root(), 0x1111, tx, trace);
    ASSERT_TRUE(out.ok);
    // VMM Direct (§III.B): 4 memory accesses + 5 calculations.
    EXPECT_EQ(trace.refs.size(), 4u);
    EXPECT_EQ(trace.calculations, 5u);
    EXPECT_EQ(out.pa, kHostBacking + 0x2111u);
}

TEST_F(NestedWalkerTest, GuestLargePageShortensGuestDimension)
{
    guestPt->map(0x40000000, 0x200000, PageSize::Size2M);
    NestedWalker nested_walker(host);
    PagingGpaTranslator tx(host, nestedPt.root());
    WalkTrace trace;
    auto out = nested_walker.walk(guestPt->root(), 0x40000010, tx,
                                  trace);
    ASSERT_TRUE(out.ok);
    // 3 guest levels x 5 + final 4 = 19 refs.
    EXPECT_EQ(trace.refs.size(), 19u);
    // Combined granule limited by the 4K nested leaves.
    EXPECT_EQ(out.size, PageSize::Size4K);
}

TEST_F(NestedWalkerTest, CombinedSizeIsMinOfDimensions)
{
    guestPt->map(0x40000000, 0x200000, PageSize::Size2M);
    NestedWalker nested_walker(host);
    SegmentGpaTranslator tx(kHostBacking);  // Reports 1G granule.
    WalkTrace trace;
    auto out = nested_walker.walk(guestPt->root(), 0x40000010, tx,
                                  trace);
    ASSERT_TRUE(out.ok);
    EXPECT_EQ(out.size, PageSize::Size2M);
}

TEST_F(NestedWalkerTest, GuestPscSkipsNestedWork)
{
    guestPt->map(0x1000, 0x2000, PageSize::Size4K);
    guestPt->map(0x2000, 0x3000, PageSize::Size4K);
    NestedWalker nested_walker(host);
    PagingGpaTranslator tx(host, nestedPt.root());
    tlb::WalkCache psc(4, 4);
    WalkTrace first;
    nested_walker.walk(guestPt->root(), 0x1000, tx, first, &psc);
    EXPECT_EQ(first.refs.size(), 24u);
    WalkTrace second;
    nested_walker.walk(guestPt->root(), 0x2000, tx, second, &psc);
    // PSC hit at guest level 2: 1 guest level x 5 + final 4 = 9.
    EXPECT_EQ(second.refs.size(), 9u);
}

} // namespace
} // namespace emv::paging
