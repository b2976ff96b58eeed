/**
 * @file
 * Shadow run sync against its one-page reference.
 *
 * The guest OS tells the shadow pager about a populated window or an
 * unmapped stretch as one range; the pager syncs a leaf table's worth
 * of guest leaves with one mapIfUnmapped() and falls back to leaf by
 * leaf when the span already holds a shadow mapping.  The reference
 * twin hears the same changes one leaf at a time.  A seeded mix of
 * populates, unmaps (some hidden from the pager, leaving stale shadow
 * entries), swap-outs (unbacked gPAs) and rebuilds runs on two
 * identical VMs under audit, and after every step every resident host
 * frame, the shadow table's node addresses and live counts, and the
 * sync exits must agree.  The regions cover 4K windows, 2M pages and
 * (in the THP instance) THP leaves, and ranges that straddle leaves
 * at both ends.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/audit.hh"
#include "common/ckpt.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "os/guest_os.hh"
#include "vmm/shadow_pager.hh"
#include "vmm/vmm.hh"
#include "../test_support.hh"

namespace emv::vmm {
namespace {

constexpr Addr kHostRam = 1 * GiB;

/** One VM: host memory, VMM, guest OS, process and shadow pager. */
struct Side
{
    /** @param per_leaf Split each hook run into one call per leaf. */
    Side(const os::OsConfig &os_cfg, bool per_leaf)
        : host(kHostRam), vmm(host, kHostRam)
    {
        VmConfig cfg;
        cfg.ramBytes = 256 * MiB;
        cfg.lowRamBytes = 64 * MiB;
        cfg.ioGapStart = 64 * MiB;
        cfg.ioGapEnd = 96 * MiB;
        vm = &vmm.createVm("a", cfg);
        os = std::make_unique<os::GuestOs>(vm->guestPhys(), vm->gpaSpan(),
                                           vm->guestRamLayout(), os_cfg);
        proc = &os->createProcess();
        pager = std::make_unique<ShadowPager>(*vm, *proc);
        os->setMappingHook([this, per_leaf](os::Process &, Addr va,
                                            Addr bytes, PageSize size,
                                            bool mapped) {
            if (muted)
                return;
            if (bytes > pageBytes(size))
                ++runCalls;
            const Addr step = per_leaf ? pageBytes(size) : bytes;
            for (Addr off = 0; off < bytes; off += step) {
                if (mapped)
                    pager->onGuestMapped(va + off, step);
                else
                    pager->onGuestUnmapped(va + off, step);
            }
        });
    }

    mem::PhysMemory host;
    Vmm vmm;
    Vm *vm;
    std::unique_ptr<os::GuestOs> os;
    os::Process *proc;
    std::unique_ptr<ShadowPager> pager;
    bool muted = false;      //!< Hide changes from the pager.
    std::uint64_t runCalls = 0;  //!< Hook calls of more than a leaf.
};

/** Every resident frame's address, read off the checkpoint bytes. */
std::vector<Addr>
residentFrames(const mem::PhysMemory &mem)
{
    const auto bytes = test::ckptBytes(mem);
    ckpt::Decoder dec(bytes.data(), bytes.size());
    dec.u64();  // Memory size.
    const std::uint64_t count = dec.u64();
    std::vector<Addr> frames;
    frames.reserve(count);
    for (std::uint64_t f = 0; f < count && dec.ok(); ++f) {
        frames.push_back(dec.u64() << 12);
        for (int w = 0; w < paging::kEntriesPerTable; ++w)
            dec.u64();
    }
    EXPECT_TRUE(dec.ok());
    return frames;
}

void
expectSame(Side &range, Side &paged)
{
    const auto frames = residentFrames(range.host);
    ASSERT_EQ(frames, residentFrames(paged.host));
    for (Addr frame : frames) {
        ASSERT_EQ(range.host.hashFrame(frame), paged.host.hashFrame(frame))
            << "host frame " << hexAddr(frame);
    }
    // Shadow root, leaf and update counts, every node address and
    // live count, and the pager's stats.
    EXPECT_EQ(test::ckptBytes(*range.pager), test::ckptBytes(*paged.pager));
    EXPECT_EQ(range.pager->syncExits(), paged.pager->syncExits());
}

/** A random 4K-aligned sub-range of [@p base, @p base + @p bytes)
 *  of up to @p max_bytes. */
std::pair<Addr, Addr>
pickRange(Rng &rng, Addr base, Addr bytes, Addr max_bytes)
{
    const Addr start = base + rng.nextBelow(bytes / kPage4K) * kPage4K;
    const Addr len = std::min<Addr>(
        (1 + rng.nextBelow(max_bytes / kPage4K)) * kPage4K,
        base + bytes - start);
    return {start, len};
}

class ShadowTwinTest : public ::testing::TestWithParam<bool>
{
};

TEST_P(ShadowTwinTest, RangeSyncMatchesPerLeafSync)
{
    setQuietLogging(true);
    audit::setEnabled(true);
    audit::resetCounters();

    os::OsConfig cfg;
    cfg.thp = GetParam();
    cfg.thpCoverage = 0.5;
    Side range(cfg, false), paged(cfg, true);
    Side *const sides[] = {&range, &paged};

    // "heap" starts and ends off a 2M boundary.
    const Addr heap = 1 * GiB + 3 * kPage4K;
    const Addr heap_bytes = 40 * MiB + 5 * kPage4K;
    const Addr huge = 2 * GiB;
    const Addr huge_bytes = 16 * MiB;
    for (Side *side : sides) {
        side->os->defineRegion(*side->proc, "heap", heap, heap_bytes,
                               PageSize::Size4K);
        side->os->defineRegion(*side->proc, "huge", huge, huge_bytes,
                               PageSize::Size2M);
        side->pager->rebuildAll();
    }
    expectSame(range, paged);

    std::uint64_t hidden_unmaps = 0;
    std::uint64_t swapped = 0;
    const auto populate = [&](Addr va, Addr bytes) {
        for (Side *side : sides)
            side->os->populateRange(*side->proc, va, bytes);
    };
    const auto unmap = [&](Addr va, Addr bytes, bool hidden) {
        for (Side *side : sides) {
            side->muted = hidden;
            side->os->unmapRange(*side->proc, va, bytes);
            side->muted = false;
        }
        hidden_unmaps += hidden;
    };
    // Swap out the gPA behind @p va, if mapped: its shadow entry
    // goes stale, and a later sync of it leaves a hole.
    const auto swap_out = [&](Addr va) {
        auto guest = range.proc->pageTable().translate(va);
        if (!guest)
            return;
        const Addr gpa = alignDown(guest->pa, kPage4K);
        const bool a = range.vm->swapOutPage(gpa);
        ASSERT_EQ(a, paged.vm->swapOutPage(gpa));
        swapped += a;
    };

    // A fixed prologue reaches every case once.  Whole windows are
    // synced as runs.
    populate(heap, 12 * MiB);
    populate(huge, 8 * MiB);
    expectSame(range, paged);
    // A window repopulated while part of it still holds stale shadow
    // entries: without THP it is one run, which the shadow declines
    // and syncs page by page.
    const Addr stale = 1 * GiB + 2 * MiB;
    unmap(stale + 100 * kPage4K, 50 * kPage4K, true);
    unmap(stale, 2 * MiB, false);
    populate(stale, 2 * MiB);
    expectSame(range, paged);
    // A window repopulated with the data frame of a swapped-out gPA:
    // the run ends at it and its page stays a shadow hole.
    const Addr hole = 1 * GiB + 6 * MiB;
    swap_out(hole + 9 * kPage4K);
    unmap(hole, 2 * MiB, false);
    populate(hole, 2 * MiB);
    unsigned unbacked = 0;
    range.proc->pageTable().forEachLeafIn(
        hole, 2 * MiB, [&](const paging::PageTable::Leaf &leaf) {
            unbacked += !range.vm->gpaToHpa(leaf.pa);
        });
    EXPECT_EQ(unbacked, 1u);
    expectSame(range, paged);
    // A range that straddles a 2M leaf at both ends drops both.
    unmap(huge + 1 * MiB, 4 * MiB, false);
    EXPECT_FALSE(range.proc->pageTable().translate(huge));
    EXPECT_FALSE(range.proc->pageTable().translate(huge + 5 * MiB));
    EXPECT_TRUE(range.proc->pageTable().translate(huge + 6 * MiB));
    expectSame(range, paged);

    Rng rng(GetParam() ? 93 : 92);
    for (int step = 0; step < 120; ++step) {
        SCOPED_TRACE("step " + std::to_string(step));
        const unsigned op = static_cast<unsigned>(rng.nextBelow(8));
        const bool in_heap = rng.nextBelow(3) != 0;
        const Addr base = in_heap ? heap : huge;
        const Addr bytes = in_heap ? heap_bytes : huge_bytes;
        const auto [va, len] = pickRange(rng, base, bytes, 6 * MiB);
        if (op <= 2) {
            populate(va, len);
        } else if (op <= 4) {
            unmap(va, len, false);
        } else if (op == 5) {
            unmap(va, len, true);
        } else if (op == 6) {
            swap_out(va);
        } else {
            for (Side *side : sides)
                side->pager->rebuildAll();
        }
        expectSame(range, paged);
        if (::testing::Test::HasFailure())
            break;
    }

    // Every case showed up.
    EXPECT_GT(range.runCalls, 0u);
    EXPECT_EQ(paged.runCalls, range.runCalls);
    EXPECT_GT(hidden_unmaps, 1u);
    EXPECT_GT(swapped, 1u);
    if (GetParam()) {
        EXPECT_GT(range.os->stats().counterValue("thp_promotions"), 0u);
    } else {
        // Runs write a shadow leaf table in one go: far fewer reads.
        EXPECT_LT(range.host.stats().counterValue("reads"),
                  paged.host.stats().counterValue("reads"));
    }
    EXPECT_GT(audit::checkCount(), 0u);
    EXPECT_EQ(audit::failureCount(), 0u);
    audit::setEnabled(false);
    setQuietLogging(false);
}

INSTANTIATE_TEST_SUITE_P(Thp, ShadowTwinTest, ::testing::Bool());

} // namespace
} // namespace emv::vmm
