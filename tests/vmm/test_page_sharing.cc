/** @file Unit tests for content-based page sharing (§IX.E). */

#include <gtest/gtest.h>

#include "vmm/page_sharing.hh"
#include "vmm/vmm.hh"

namespace emv::vmm {
namespace {

class PageSharingTest : public ::testing::Test
{
  protected:
    static constexpr Addr kHostRam = 1 * GiB;

    PageSharingTest() : host(kHostRam), vmm(host, kHostRam) {}

    Vm &
    makeVm(StatName name)
    {
        VmConfig cfg;
        cfg.ramBytes = 64 * MiB;
        cfg.lowRamBytes = 16 * MiB;
        cfg.ioGapStart = 16 * MiB;
        cfg.ioGapEnd = 32 * MiB;
        return vmm.createVm(name, cfg);
    }

    /** Write distinct content to every 4K page in a gPA range. */
    static void
    fillUnique(Vm &vm, Addr gpa, Addr bytes, std::uint64_t tag)
    {
        for (Addr off = 0; off < bytes; off += kPage4K)
            vm.guestPhys().write64(gpa + off, tag ^ (gpa + off));
    }

    mem::PhysMemory host;
    Vmm vmm;
};

TEST_F(PageSharingTest, ScanCountsFrames)
{
    auto &a = makeVm("a");
    PageSharing sharing(vmm);
    auto report = sharing.scan({&a});
    EXPECT_EQ(report.scannedFrames, 64 * MiB / kPage4K);
}

TEST_F(PageSharingTest, UntouchedMemoryIsFullyShareable)
{
    // All-zero frames dedupe to one copy: the trivial upper bound.
    auto &a = makeVm("a");
    PageSharing sharing(vmm);
    auto report = sharing.scan({&a});
    EXPECT_EQ(report.duplicateFrames, report.scannedFrames - 1);
}

TEST_F(PageSharingTest, UniqueContentIsNotShareable)
{
    // §IX.E: big-memory data is workload-unique — little sharing.
    auto &a = makeVm("a");
    auto &b = makeVm("b");
    fillUnique(a, 0, 16 * MiB, 0x1111);
    fillUnique(a, 32 * MiB, 48 * MiB, 0x1111);
    fillUnique(b, 0, 16 * MiB, 0x2222);
    fillUnique(b, 32 * MiB, 48 * MiB, 0x2222);
    PageSharing sharing(vmm);
    auto report = sharing.scan({&a, &b});
    EXPECT_EQ(report.duplicateFrames, 0u);
    EXPECT_DOUBLE_EQ(report.savedFraction, 0.0);
}

TEST_F(PageSharingTest, IdenticalOsPagesShareAcrossVms)
{
    // "OS code pages can be easily shared": same kernel image in
    // both VMs' low memory.
    auto &a = makeVm("a");
    auto &b = makeVm("b");
    for (Addr off = 0; off < 4 * MiB; off += kPage4K) {
        a.guestPhys().write64(off, 0xc0de ^ off);
        b.guestPhys().write64(off, 0xc0de ^ off);
    }
    fillUnique(a, 32 * MiB, 48 * MiB, 0xaaaa);
    fillUnique(b, 32 * MiB, 48 * MiB, 0xbbbb);
    fillUnique(a, 4 * MiB, 12 * MiB, 0xaaaa);
    fillUnique(b, 4 * MiB, 12 * MiB, 0xbbbb);

    PageSharing sharing(vmm);
    auto report = sharing.scan({&a, &b});
    EXPECT_EQ(report.duplicateFrames, 4 * MiB / kPage4K);
    EXPECT_LT(report.savedFraction, 0.05);  // <3%-ish of total.
}

TEST_F(PageSharingTest, MergeFreesDuplicates)
{
    auto &a = makeVm("a");
    auto &b = makeVm("b");
    // Make everything unique except one 1 MB identical stretch.
    fillUnique(a, 0, 16 * MiB, 0x1);
    fillUnique(b, 0, 16 * MiB, 0x2);
    fillUnique(a, 32 * MiB, 48 * MiB, 0x1);
    fillUnique(b, 32 * MiB, 48 * MiB, 0x2);
    for (Addr off = 0; off < 1 * MiB; off += kPage4K) {
        // Unique per page, but identical across the two VMs.
        a.guestPhys().write64(40 * MiB + off, 0x5a3e0000 + off);
        b.guestPhys().write64(40 * MiB + off, 0x5a3e0000 + off);
    }

    PageSharing sharing(vmm);
    const Addr free_before = vmm.frames().buddy().freeBytes();
    const auto freed = sharing.mergeDuplicates({&a, &b});
    EXPECT_EQ(freed, 1 * MiB / kPage4K);
    EXPECT_EQ(vmm.frames().buddy().freeBytes(), free_before + 1 * MiB);

    // Both VMs still read their (shared) content.
    EXPECT_EQ(a.guestPhys().read64(40 * MiB), 0x5a3e0000u);
    EXPECT_EQ(b.guestPhys().read64(40 * MiB), 0x5a3e0000u);
    EXPECT_EQ(a.gpaToHpa(40 * MiB).value(),
              b.gpaToHpa(40 * MiB).value());
    EXPECT_TRUE(sharing.isShared(a.gpaToHpa(40 * MiB).value()));
}

TEST_F(PageSharingTest, CowBreaksOnWrite)
{
    auto &a = makeVm("a");
    auto &b = makeVm("b");
    fillUnique(a, 0, 16 * MiB, 0x1);
    fillUnique(b, 0, 16 * MiB, 0x2);
    fillUnique(a, 32 * MiB, 48 * MiB, 0x1);
    fillUnique(b, 32 * MiB, 48 * MiB, 0x2);
    a.guestPhys().write64(40 * MiB, 0x77);
    b.guestPhys().write64(40 * MiB, 0x77);

    PageSharing sharing(vmm);
    sharing.mergeDuplicates({&a, &b});
    ASSERT_EQ(a.gpaToHpa(40 * MiB).value(),
              b.gpaToHpa(40 * MiB).value());

    // VM b writes: COW break gives it a private copy.
    sharing.onGuestWrite(b, 40 * MiB);
    b.guestPhys().write64(40 * MiB, 0x99);
    EXPECT_NE(a.gpaToHpa(40 * MiB).value(),
              b.gpaToHpa(40 * MiB).value());
    EXPECT_EQ(a.guestPhys().read64(40 * MiB), 0x77u);
    EXPECT_EQ(b.guestPhys().read64(40 * MiB), 0x99u);
}

} // namespace
} // namespace emv::vmm
