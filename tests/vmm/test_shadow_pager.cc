/** @file Unit tests for shadow paging (§II.A, §IX.D). */

#include <gtest/gtest.h>

#include "os/guest_os.hh"
#include "paging/walker.hh"
#include "vmm/shadow_pager.hh"
#include "vmm/vmm.hh"
#include "../test_support.hh"

namespace emv::vmm {
namespace {

class ShadowPagerTest : public ::testing::Test
{
  protected:
    static constexpr Addr kHostRam = 1 * GiB;

    ShadowPagerTest()
        : host(kHostRam), vmm(host, kHostRam)
    {
        VmConfig cfg;
        cfg.ramBytes = 256 * MiB;
        cfg.lowRamBytes = 64 * MiB;
        cfg.ioGapStart = 64 * MiB;
        cfg.ioGapEnd = 96 * MiB;
        vm = &vmm.createVm("a", cfg);
        os = std::make_unique<os::GuestOs>(
            vm->guestPhys(), vm->gpaSpan(), vm->guestRamLayout());
        proc = &os->createProcess();
        os->defineRegion(*proc, "heap", 1 * GiB, 16 * MiB,
                         PageSize::Size4K);
    }

    /** Walk the shadow table rooted at @p root (it lives in host
     *  memory, so the walk is 1D). */
    paging::WalkOutcome
    shadowWalk(Addr root, Addr gva, paging::WalkTrace &trace)
    {
        return paging::radixWalk(host, root, gva,
                                 paging::RefStage::ShadowTable, trace,
                                 nullptr, paging::hostResident);
    }

    mem::PhysMemory host;
    Vmm vmm;
    Vm *vm;
    std::unique_ptr<os::GuestOs> os;
    os::Process *proc;
};

TEST_F(ShadowPagerTest, CheckpointRoundTripPreservesShadowTable)
{
    os->populateRange(*proc, 1 * GiB, 1 * MiB);
    ShadowPager a(*vm, *proc);
    a.rebuildAll();
    const auto bytes = test::ckptBytes(a);

    ShadowPager b(*vm, *proc);
    ASSERT_TRUE(test::ckptRestore(bytes, b));
    EXPECT_EQ(test::ckptBytes(b), bytes);
    EXPECT_EQ(b.shadowRoot(), a.shadowRoot());
    EXPECT_EQ(b.syncExits(), a.syncExits());

    // The restored shadow table still composes both dimensions.
    paging::WalkTrace trace;
    auto out = shadowWalk(b.shadowRoot(), 1 * GiB, trace);
    ASSERT_TRUE(out.ok);
    auto guest = proc->pageTable().translate(1 * GiB);
    ASSERT_TRUE(guest.has_value());
    EXPECT_EQ(out.pa, vm->gpaToHpa(guest->pa).value());
}

TEST_F(ShadowPagerTest, RebuildComposesGuestAndNested)
{
    os->populateRange(*proc, 1 * GiB, 1 * MiB);
    ShadowPager pager(*vm, *proc);
    pager.rebuildAll();

    // Shadow translation == guest translation composed with gPA→hPA.
    for (Addr off = 0; off < 1 * MiB; off += 64 * kPage4K) {
        const Addr gva = 1 * GiB + off;
        auto guest = proc->pageTable().translate(gva);
        ASSERT_TRUE(guest.has_value());
        auto expect_hpa = vm->gpaToHpa(guest->pa);
        ASSERT_TRUE(expect_hpa.has_value());
        paging::WalkTrace trace;
        auto out = shadowWalk(pager.shadowRoot(), gva, trace);
        ASSERT_TRUE(out.ok);
        EXPECT_EQ(out.pa, *expect_hpa);
        // A shadow walk is 1D: at most 4 references.
        EXPECT_LE(trace.refs.size(), 4u);
    }
}

TEST_F(ShadowPagerTest, SyncExitsChargedPerLeaf)
{
    ShadowPager pager(*vm, *proc);
    os->populateRange(*proc, 1 * GiB, 1 * MiB);
    pager.onGuestMapped(1 * GiB, 1 * MiB);
    EXPECT_EQ(pager.syncExits(), 256u);  // One per 4K leaf.
}

TEST_F(ShadowPagerTest, UnmapDropsShadowEntries)
{
    os->populateRange(*proc, 1 * GiB, 1 * MiB);
    ShadowPager pager(*vm, *proc);
    pager.rebuildAll();
    os->unmapRange(*proc, 1 * GiB, 1 * MiB);
    pager.onGuestUnmapped(1 * GiB, 1 * MiB);

    paging::WalkTrace trace;
    auto out = shadowWalk(pager.shadowRoot(), 1 * GiB, trace);
    EXPECT_FALSE(out.ok);
}

TEST_F(ShadowPagerTest, ShadowKeeps2MGranuleWhenBackingContiguous)
{
    // Guest maps 2M pages; eager contiguous backing keeps gPA→hPA
    // linear, so the shadow can use 2M leaves too.
    os->defineRegion(*proc, "big", 2 * GiB, 8 * MiB,
                     PageSize::Size2M);
    os->populateRange(*proc, 2 * GiB, 8 * MiB);
    ShadowPager pager(*vm, *proc);
    pager.rebuildAll();

    paging::WalkTrace trace;
    auto out = shadowWalk(pager.shadowRoot(), 2 * GiB, trace);
    ASSERT_TRUE(out.ok);
    EXPECT_EQ(out.size, PageSize::Size2M);
}

TEST_F(ShadowPagerTest, ShadowSplitsWhenBackingPunctured)
{
    os->defineRegion(*proc, "big", 2 * GiB, 2 * MiB,
                     PageSize::Size2M);
    os->populateRange(*proc, 2 * GiB, 2 * MiB);
    // Punch a hole in the backing under the 2M guest page.
    auto guest = proc->pageTable().translate(2 * GiB);
    ASSERT_TRUE(guest.has_value());
    auto fresh = vmm.frames().allocBlock(PageSize::Size4K);
    ASSERT_TRUE(fresh.has_value());
    vm->repointBacking(guest->pa + 4 * kPage4K, *fresh);

    ShadowPager pager(*vm, *proc);
    pager.rebuildAll();
    paging::WalkTrace trace;
    auto out = shadowWalk(pager.shadowRoot(), 2 * GiB, trace);
    ASSERT_TRUE(out.ok);
    EXPECT_EQ(out.size, PageSize::Size4K);
    // The punctured page still translates correctly.
    paging::WalkTrace trace2;
    auto hole =
        shadowWalk(pager.shadowRoot(), 2 * GiB + 4 * kPage4K, trace2);
    ASSERT_TRUE(hole.ok);
    EXPECT_EQ(alignDown(hole.pa, kPage4K), *fresh);
}

TEST_F(ShadowPagerTest, BackingChangeTriggersRebuild)
{
    os->populateRange(*proc, 1 * GiB, 1 * MiB);
    ShadowPager pager(*vm, *proc);
    pager.rebuildAll();
    const auto rebuilds =
        pager.stats().counterValue("rebuilds");
    pager.onBackingChanged(0, kPage4K);
    EXPECT_EQ(pager.stats().counterValue("rebuilds"), rebuilds + 1);
}

} // namespace
} // namespace emv::vmm
