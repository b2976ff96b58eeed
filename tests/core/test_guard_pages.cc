/** @file
 * §V extension: escape filters at both levels — guard pages inside
 * a guest segment escape to conventional guest paging.
 */

#include <gtest/gtest.h>

#include "core/mmu.hh"
#include "os/guest_os.hh"
#include "vmm/vmm.hh"

namespace emv::core {
namespace {

class GuardPageTest : public ::testing::Test
{
  protected:
    GuardPageTest()
        : host(1 * GiB), vmm(host, 1 * GiB)
    {
        vmm::VmConfig cfg;
        cfg.ramBytes = 256 * MiB;
        cfg.lowRamBytes = 32 * MiB;
        cfg.ioGapStart = 32 * MiB;
        cfg.ioGapEnd = 64 * MiB;
        vm = &vmm.createVm("vm", cfg);
        os = std::make_unique<os::GuestOs>(
            vm->guestPhys(), vm->gpaSpan(), vm->guestRamLayout());
        proc = &os->createProcess();
        os->defineRegion(*proc, "heap", 1 * GiB, 16 * MiB,
                         PageSize::Size4K, /*primary=*/true);
        auto seg = os->createGuestSegment(*proc);
        EXPECT_TRUE(seg.has_value());

        MmuConfig mcfg;
        mcfg.walkCachesEnabled = false;
        mcfg.nestedTlbShared = false;
        mmu = std::make_unique<Mmu>(host, mcfg);
        mmu->setMode(Mode::GuestDirect);
        mmu->setNestedRoot(vm->nestedRoot());
        mmu->setGuestRoot(proc->pageTable().root());
        mmu->setGuestSegment(proc->guestSegment());
    }

    mem::PhysMemory host;
    vmm::Vmm vmm;
    vmm::Vm *vm;
    std::unique_ptr<os::GuestOs> os;
    os::Process *proc;
    std::unique_ptr<Mmu> mmu;
};

TEST_F(GuardPageTest, GuardPageEscapesToGuestPaging)
{
    const Addr guard = 1 * GiB + 64 * kPage4K;
    // The guest OS escapes the guard page and maps it via its page
    // table to a *different* gPA (e.g. read-only zero page).
    mmu->guestFilter().insertPage(guard);
    auto alt = os->frames().allocBlock(PageSize::Size4K);
    ASSERT_TRUE(alt.has_value());
    proc->pageTable().map(guard, *alt, PageSize::Size4K,
                          /*writable=*/false);

    // Non-guard pages still ride the segment.
    auto normal = mmu->translate(1 * GiB + 0x3000);
    ASSERT_TRUE(normal.ok);
    EXPECT_EQ(mmu->stats().counterValue("cat_guest_only"), 1u);

    // The guard page walks the guest page table instead.
    auto escaped = mmu->translate(guard + 0x10);
    ASSERT_TRUE(escaped.ok);
    EXPECT_EQ(mmu->stats().counterValue("cat_neither"), 1u);
    EXPECT_EQ(escaped.hpa, vm->gpaToHpa(*alt + 0x10).value());
    // And lands somewhere other than the segment's linear target.
    const Addr seg_gpa = proc->guestSegment().translate(guard);
    EXPECT_NE(escaped.hpa, vm->gpaToHpa(seg_gpa).value() + 0x10);
}

TEST_F(GuardPageTest, DualDirectGuardPageAlsoEscapes)
{
    auto info = vm->createVmmSegment(64 * MiB);
    ASSERT_TRUE(info.has_value());
    mmu->setMode(Mode::DualDirect);
    mmu->setGuestRoot(proc->pageTable().root());
    mmu->setGuestSegment(proc->guestSegment());
    mmu->setVmmSegment(info->regs);

    const Addr guard = 1 * GiB + 80 * kPage4K;
    mmu->guestFilter().insertPage(guard);
    auto alt = os->frames().allocBlock(PageSize::Size4K);
    ASSERT_TRUE(alt.has_value());
    proc->pageTable().map(guard, *alt, PageSize::Size4K, false);

    // Normal page: 0D fast path.
    auto normal = mmu->translate(1 * GiB + 0x5000);
    ASSERT_TRUE(normal.ok);
    EXPECT_EQ(normal.path, TranslatePath::DualSegment);

    // Guard page: full walk through the guest table.
    auto escaped = mmu->translate(guard);
    ASSERT_TRUE(escaped.ok);
    EXPECT_NE(escaped.path, TranslatePath::DualSegment);
    EXPECT_EQ(escaped.hpa, vm->gpaToHpa(*alt).value());
}

} // namespace
} // namespace emv::core
