/** @file Unit tests for 1D walks: the radix walk engine with the
 *  identity (host-resident) step. */

#include <gtest/gtest.h>

#include "paging/page_table.hh"
#include "paging/walker.hh"
#include "../test_support.hh"

namespace emv::paging {
namespace {

class WalkerTest : public ::testing::Test
{
  protected:
    WalkerTest() : mem(256 * MiB), space(mem, 128 * MiB), pt(space) {}

    /** 1D walk of pt for @p va. */
    WalkOutcome
    walk(Addr va, RefStage stage, WalkTrace &trace,
         tlb::WalkCache *cache = nullptr)
    {
        return radixWalk(mem, pt.root(), va, stage, trace, cache,
                         hostResident);
    }

    mem::PhysMemory mem;
    test::BumpMemSpace space;
    PageTable pt;
};

TEST_F(WalkerTest, FourReferencesFor4KPage)
{
    pt.map(0x1000, 0x2000, PageSize::Size4K);
    WalkTrace trace;
    auto out = walk(0x1234, RefStage::NativeTable, trace);
    ASSERT_TRUE(out.ok);
    EXPECT_EQ(out.pa, 0x2234u);
    EXPECT_EQ(out.size, PageSize::Size4K);
    // The paper's native walk: up to 4 memory references.
    EXPECT_EQ(trace.refs.size(), 4u);
    EXPECT_EQ(trace.calculations, 0u);
}

TEST_F(WalkerTest, RefLevelsDescend)
{
    pt.map(0x1000, 0x2000, PageSize::Size4K);
    WalkTrace trace;
    walk(0x1000, RefStage::NativeTable, trace);
    ASSERT_EQ(trace.refs.size(), 4u);
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(trace.refs[i].level, 4 - i);
        EXPECT_EQ(trace.refs[i].stage, RefStage::NativeTable);
    }
}

TEST_F(WalkerTest, ThreeReferencesFor2MPage)
{
    pt.map(0x40000000, 0x200000, PageSize::Size2M);
    WalkTrace trace;
    auto out = walk(0x40012345, RefStage::NativeTable, trace);
    ASSERT_TRUE(out.ok);
    EXPECT_EQ(out.size, PageSize::Size2M);
    EXPECT_EQ(trace.refs.size(), 3u);
}

TEST_F(WalkerTest, TwoReferencesFor1GPage)
{
    pt.map(0x40000000, 0x40000000, PageSize::Size1G);
    WalkTrace trace;
    auto out = walk(0x40000004, RefStage::NativeTable, trace);
    ASSERT_TRUE(out.ok);
    EXPECT_EQ(out.size, PageSize::Size1G);
    EXPECT_EQ(trace.refs.size(), 2u);
}

TEST_F(WalkerTest, UnmappedFaults)
{
    WalkTrace trace;
    auto out = walk(0xdead000, RefStage::NativeTable, trace);
    EXPECT_FALSE(out.ok);
    EXPECT_EQ(trace.refs.size(), 1u);  // Root entry read, absent.
}

TEST_F(WalkerTest, FaultDepthMatchesPopulatedLevels)
{
    pt.map(0x1000, 0x2000, PageSize::Size4K);
    WalkTrace trace;
    // Same L1 table, different entry: walks all 4 levels, faults at
    // the leaf.
    auto out = walk(0x5000, RefStage::NativeTable, trace);
    EXPECT_FALSE(out.ok);
    EXPECT_EQ(trace.refs.size(), 4u);
}

TEST_F(WalkerTest, WalkCacheSkipsUpperLevels)
{
    pt.map(0x1000, 0x2000, PageSize::Size4K);
    pt.map(0x2000, 0x3000, PageSize::Size4K);
    tlb::WalkCache cache(4, 4);
    WalkTrace first;
    walk(0x1000, RefStage::NativeTable, first, &cache);
    EXPECT_EQ(first.refs.size(), 4u);
    WalkTrace second;
    // Neighbouring page shares levels 4..2: only the L1 read left.
    walk(0x2000, RefStage::NativeTable, second, &cache);
    EXPECT_EQ(second.refs.size(), 1u);
    EXPECT_EQ(second.refs[0].level, 1);
}

TEST_F(WalkerTest, WalkCacheMissesAcrossDistantAddresses)
{
    pt.map(0x1000, 0x2000, PageSize::Size4K);
    pt.map(0x40000000000, 0x3000, PageSize::Size4K);
    tlb::WalkCache cache(4, 4);
    WalkTrace first, second;
    walk(0x1000, RefStage::NativeTable, first, &cache);
    // Different PML4 entry: no shared prefix below the root.
    walk(0x40000000000, RefStage::NativeTable, second, &cache);
    EXPECT_EQ(second.refs.size(), 4u);
}

TEST_F(WalkerTest, AgreesWithSoftwareTranslate)
{
    pt.map(0x7f0000000000, 0x12345000, PageSize::Size4K);
    WalkTrace trace;
    auto hw = walk(0x7f00000006a8, RefStage::NativeTable, trace);
    auto sw = pt.translate(0x7f00000006a8);
    ASSERT_TRUE(hw.ok);
    ASSERT_TRUE(sw.has_value());
    EXPECT_EQ(hw.pa, sw->pa);
}

TEST_F(WalkerTest, CountStageHelper)
{
    pt.map(0x1000, 0x2000, PageSize::Size4K);
    WalkTrace trace;
    walk(0x1000, RefStage::ShadowTable, trace);
    EXPECT_EQ(trace.countStage(RefStage::ShadowTable), 4u);
    EXPECT_EQ(trace.countStage(RefStage::NestedTable), 0u);
}

} // namespace
} // namespace emv::paging
