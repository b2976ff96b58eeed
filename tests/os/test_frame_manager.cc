/** @file Unit tests for the frame manager shared by the guest OS and
 *  the VMM: the table pool, bad-frame retirement, the word interface
 *  and the compaction window search. */

#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "mem/phys_accessor.hh"
#include "os/frame_manager.hh"
#include "os/guest_os.hh"
#include "vmm/vmm.hh"

namespace emv::os {
namespace {

/** One owner's frame manager, as the owner configures it. */
struct Owner
{
    FrameManager &frames;
    StatGroup &stats;
    Addr poolBase;
    const char *chunkCounter;
    const char *badCounter;
};

class KernelPoolTest : public ::testing::Test
{
  protected:
    static constexpr Addr kSpan = 256 * MiB;

    KernelPoolTest() : mem(kSpan), accessor(mem) {}

    /**
     * Run @p fn on a guest OS's frame manager (all of the span RAM,
     * kernel pool at @p guest_base) and then on a VMM's (host RAM
     * the span, table pool at 0), each over this memory.
     */
    void
    forEachOwner(Addr guest_base, const std::function<void(Owner)> &fn)
    {
        {
            OsConfig cfg;
            cfg.kernelAllocBase = guest_base;
            GuestOs os(accessor, kSpan, {{0, kSpan}}, cfg);
            SCOPED_TRACE("guest OS");
            fn({os.frames(), os.stats(), guest_base, "kernel_chunks",
                "bad_pages_retired"});
        }
        vmm::Vmm vmm(mem, kSpan);
        SCOPED_TRACE("VMM");
        fn({vmm.frames(), vmm.stats(), 0, "table_chunks",
            "bad_frames_retired"});
    }

    mem::PhysMemory mem;
    mem::HostPhysAccessor accessor;
};

TEST_F(KernelPoolTest, FramesClusterAtConfiguredBase)
{
    forEachOwner(128 * MiB, [](Owner owner) {
        for (int i = 0; i < 64; ++i) {
            std::optional<Addr> frame = owner.frames.allocTableFrame();
            ASSERT_TRUE(frame.has_value());
            EXPECT_GE(*frame, owner.poolBase);
            EXPECT_LT(*frame,
                      owner.poolBase + FrameManager::kPoolChunkBytes);
        }
    });
}

TEST_F(KernelPoolTest, DefaultBaseClustersLow)
{
    forEachOwner(0, [](Owner owner) {
        std::optional<Addr> frame = owner.frames.allocTableFrame();
        ASSERT_TRUE(frame.has_value());
        EXPECT_LT(*frame, 8 * MiB);
    });
}

TEST_F(KernelPoolTest, PoolIsUnmovable)
{
    forEachOwner(0, [](Owner owner) {
        std::optional<Addr> frame = owner.frames.allocTableFrame();
        ASSERT_TRUE(frame.has_value());
        EXPECT_TRUE(owner.frames.unmovable().contains(*frame));
    });
}

TEST_F(KernelPoolTest, FreedFramesAreRecycled)
{
    forEachOwner(0, [](Owner owner) {
        std::optional<Addr> a = owner.frames.allocTableFrame();
        ASSERT_TRUE(a.has_value());
        owner.frames.freeTableFrame(*a);
        std::optional<Addr> b = owner.frames.allocTableFrame();
        ASSERT_TRUE(b.has_value());
        EXPECT_EQ(*a, *b);
    });
}

TEST_F(KernelPoolTest, PoolGrowsByChunks)
{
    forEachOwner(0, [](Owner owner) {
        const Addr free_before = owner.frames.buddy().freeBytes();
        // Drain one chunk's worth of frames and 8 more.
        const int frames = static_cast<int>(
                               FrameManager::kPoolChunkBytes / kPage4K) +
                           8;
        for (int i = 0; i < frames; ++i) {
            std::optional<Addr> frame = owner.frames.allocTableFrame();
            ASSERT_TRUE(frame.has_value());
        }
        EXPECT_EQ(owner.frames.buddy().freeBytes(),
                  free_before - 2 * FrameManager::kPoolChunkBytes);
        EXPECT_EQ(owner.stats.counterValue(owner.chunkCounter), 2u);
    });
}

TEST_F(KernelPoolTest, SkipsBadFramesInChunk)
{
    forEachOwner(64 * MiB, [this](Owner owner) {
        mem.markBad(owner.poolBase + 3 * kPage4K);
        for (int i = 0; i < 200; ++i) {
            std::optional<Addr> frame = owner.frames.allocTableFrame();
            ASSERT_TRUE(frame.has_value());
            EXPECT_NE(*frame, owner.poolBase + 3 * kPage4K);
        }
        mem.clearBad(owner.poolBase + 3 * kPage4K);
    });
}

TEST_F(KernelPoolTest, AllocBlockRetiresBadFrames)
{
    forEachOwner(0, [this](Owner owner) {
        auto &frames = owner.frames;
        // Blocks come top-down: poison the top 4K frame, then a frame
        // of the 2M block below it.
        const Addr bad4k = kSpan - kPage4K;
        const Addr bad2m = kSpan - kPage2M - 5 * kPage4K;
        mem.markBad(bad4k);
        mem.markBad(bad2m);
        const Addr free_before = frames.buddy().freeBytes();
        auto frame = frames.allocBlock(PageSize::Size4K);
        ASSERT_TRUE(frame.has_value());
        EXPECT_FALSE(mem.isBad(*frame));
        auto block = frames.allocBlock(PageSize::Size2M);
        ASSERT_TRUE(block.has_value());
        EXPECT_FALSE(mem.anyBadInRange(*block, kPage2M));
        // Both bad frames are retired, unmovable and counted; the 2M
        // block's healthy frames went back to the allocator.
        EXPECT_EQ(frames.badFrames(), (std::vector<Addr>{bad4k, bad2m}));
        EXPECT_TRUE(frames.unmovable().contains(bad4k));
        EXPECT_TRUE(frames.unmovable().contains(bad2m));
        EXPECT_EQ(owner.stats.counterValue(owner.badCounter), 2u);
        EXPECT_EQ(frames.buddy().freeBytes(),
                  free_before - 3 * kPage4K - kPage2M);
        mem.clearBad(bad4k);
        mem.clearBad(bad2m);
    });
}

/** Counters a frame manager built on its own bumps. */
struct PoolStats : StatGroup
{
    PoolStats() : StatGroup("frames") {}
    Counter badRetired{*this, "bad_retired"};
    Counter chunks{*this, "chunks"};
};

/** Records every call, one line each; loads read word i as i. */
class LoggingAccessor final : public mem::PhysAccessor
{
  public:
    std::uint64_t
    read64(Addr pa) const override
    {
        note("read64 " + hexAddr(pa));
        return 1;
    }
    void
    write64(Addr pa, std::uint64_t value) override
    {
        note("write64 " + hexAddr(pa) + " " + std::to_string(value));
    }
    void
    readRun(Addr pa, unsigned n, std::uint64_t *out) const override
    {
        note("readRun " + hexAddr(pa) + " " + std::to_string(n));
        for (unsigned i = 0; i < n; ++i)
            out[i] = i;
    }
    void
    writeRun(Addr pa, unsigned n, const std::uint64_t *) override
    {
        note("writeRun " + hexAddr(pa) + " " + std::to_string(n));
    }
    void
    writeStep(Addr frame_base, std::uint64_t first,
              std::uint64_t stride) override
    {
        note("writeStep " + hexAddr(frame_base) + " " +
             std::to_string(first) + " " + std::to_string(stride));
    }
    bool
    readStep(Addr frame_base, std::uint64_t &first,
             std::uint64_t &stride) const override
    {
        note("readStep " + hexAddr(frame_base));
        first = 7;
        stride = 8;
        return true;
    }
    void
    zeroFrame(Addr frame_base) override
    {
        note("zeroFrame " + hexAddr(frame_base));
    }
    void
    copyFrame(Addr dst_base, Addr src_base) override
    {
        note("copyFrame " + hexAddr(dst_base) + " " + hexAddr(src_base));
    }
    bool
    isBad(Addr pa) const override
    {
        note("isBad " + hexAddr(pa));
        return true;
    }
    bool
    anyBadInRange(Addr base, Addr len) const override
    {
        note("anyBadInRange " + hexAddr(base) + " " + hexAddr(len));
        return true;
    }

    mutable std::vector<std::string> log;

  private:
    void note(std::string line) const { log.push_back(std::move(line)); }
};

TEST(FrameManagerTest, EveryOperationReachesTheAccessorAsOneCall)
{
    LoggingAccessor phys;
    PoolStats stats;
    FrameManager frames(phys, 64 * MiB, 0, stats.badRetired,
                        stats.chunks);
    std::uint64_t words[3] = {4, 5, 6};
    std::uint64_t first = 0, stride = 0;
    const std::pair<std::function<void()>, std::string> ops[] = {
        {[&] { EXPECT_EQ(frames.read64(0x1008), 1u); },
         "read64 0x1008"},
        {[&] { frames.write64(0x1010, 9); }, "write64 0x1010 9"},
        {[&] {
             frames.readRun(0x2000, 3, words);
             EXPECT_EQ(words[2], 2u);
         },
         "readRun 0x2000 3"},
        {[&] { frames.writeRun(0x2018, 3, words); },
         "writeRun 0x2018 3"},
        {[&] { frames.writeStep(0x3000, 0x87, kPage4K); },
         "writeStep 0x3000 135 4096"},
        {[&] {
             EXPECT_TRUE(frames.readStep(0x3000, first, stride));
             EXPECT_EQ(first, 7u);
             EXPECT_EQ(stride, 8u);
         },
         "readStep 0x3000"},
        {[&] { frames.zeroFrame(0x4000); }, "zeroFrame 0x4000"},
        {[&] { frames.copyFrame(0x5000, 0x6000); },
         "copyFrame 0x5000 0x6000"},
        {[&] { EXPECT_TRUE(frames.isBad(0x7000)); }, "isBad 0x7000"},
        {[&] { EXPECT_TRUE(frames.anyBadInRange(0x8000, kPage2M)); },
         "anyBadInRange 0x8000 0x200000"},
        // A pool that holds a frame hands it out zeroed.
        {[&] {
             frames.freeTableFrame(0x9000);
             EXPECT_EQ(frames.allocTableFrame(), 0x9000u);
         },
         "zeroFrame 0x9000"},
    };
    for (const auto &[op, expected] : ops) {
        phys.log.clear();
        op();
        EXPECT_EQ(phys.log, std::vector<std::string>{expected});
    }
}

/** A window as the owner loops below report it: base, allocated. */
using Found = std::optional<std::pair<Addr, Addr>>;

/** The guest compaction daemon's window loop before the merge. */
Found
guestLoop(const IntervalSet &free_set, const IntervalSet &unmovable,
          const std::vector<Interval> &ram_ranges, Addr bytes)
{
    Found best;
    for (const auto &ram : ram_ranges) {
        if (ram.length() < bytes)
            continue;
        for (Addr w = alignUp(ram.start, kPage2M);
             w + bytes <= ram.end; w += kPage2M) {
            if (unmovable.intersectsRange(w, w + bytes))
                continue;
            const Addr free_in =
                free_set.coveredBytesInRange(w, w + bytes);
            const Addr allocated = bytes - free_in;
            if (!best || allocated < best->second)
                best = std::make_pair(w, allocated);
            if (best->second == 0)
                return best;
        }
    }
    return best;
}

/** The VMM's host-compaction window loop before the merge. */
Found
hostLoop(const IntervalSet &free_set, const IntervalSet &unmovable,
         Addr size, Addr bytes, Addr align)
{
    std::optional<Addr> best;
    Addr best_alloc = 0;
    for (Addr w = 0; w + bytes <= size; w += kPage2M) {
        if (!isAligned(w, align))
            continue;
        if (unmovable.intersectsRange(w, w + bytes))
            continue;
        const Addr alloc =
            bytes - free_set.coveredBytesInRange(w, w + bytes);
        if (!best || alloc < best_alloc) {
            best = w;
            best_alloc = alloc;
        }
        if (best_alloc == 0)
            break;
    }
    if (!best)
        return std::nullopt;
    return std::make_pair(*best, best_alloc);
}

Found
found(const std::optional<FrameManager::Window> &window)
{
    if (!window)
        return std::nullopt;
    return std::make_pair(window->base, window->allocatedBytes);
}

TEST(FrameManagerTest, WindowSearchMatchesBothOwnersLoops)
{
    // Seeded buddy and unmovable states; the shared search must pick
    // what the guest loop picks over RAM ranges and what the host
    // loop picks over [0, size) at each nested alignment.
    constexpr Addr kSpan = 2 * GiB;
    mem::PhysMemory mem(kSpan);
    mem::HostPhysAccessor accessor(mem);
    Rng rng(35);
    unsigned busy_best = 0, inner_best = 0, none = 0;
    for (int trial = 0; trial < 40; ++trial) {
        PoolStats stats;
        FrameManager frames(accessor, kSpan, 0, stats.badRetired,
                            stats.chunks);
        const unsigned pins = 8 + rng.nextBelow(200);
        for (unsigned i = 0; i < pins; ++i) {
            const Addr base = rng.nextBelow(kSpan / kPage4K) * kPage4K;
            const Addr len = (1 + rng.nextBelow(1024)) * kPage4K;
            if (base + len <= kSpan)
                frames.buddy().allocateRange(base, len);
        }
        const unsigned walls = rng.nextBelow(6);
        for (unsigned i = 0; i < walls; ++i) {
            const Addr base = rng.nextBelow(kSpan / kPage4K) * kPage4K;
            frames.markUnmovable(
                base, std::min((1 + rng.nextBelow(512)) * kPage4K,
                               kSpan - base));
        }
        // Up to three RAM ranges with 4K-aligned, ragged edges.
        std::vector<Interval> ram;
        Addr cursor = 0;
        const unsigned nranges = 1 + rng.nextBelow(3);
        for (unsigned i = 0; i < nranges && cursor < kSpan; ++i) {
            const Addr start =
                cursor + rng.nextBelow(64 * MiB / kPage4K) * kPage4K;
            const Addr end = std::min(
                kSpan, start + (1 + rng.nextBelow(kSpan / kPage4K / 2)) *
                                   kPage4K);
            if (start < end)
                ram.push_back({start, end});
            cursor = end;
        }
        const Addr bytes =
            rng.nextBool(0.5)
                ? (1 + rng.nextBelow(16 * MiB / kPage4K)) * kPage4K
                : (1 + rng.nextBelow(512)) * kPage2M;

        const IntervalSet &free_set = frames.buddy().freeIntervals();
        const IntervalSet &unmovable = frames.unmovable();
        const Found guest = guestLoop(free_set, unmovable, ram, bytes);
        ASSERT_EQ(found(frames.bestWindow(ram, bytes, kPage2M)), guest)
            << "trial " << trial;
        for (const Addr align : {kPage4K, kPage2M, kPage1G}) {
            const Found host =
                hostLoop(free_set, unmovable, kSpan, bytes, align);
            ASSERT_EQ(found(frames.bestWindow({Interval{0, kSpan}}, bytes,
                                              align)),
                      host)
                << "trial " << trial << " align " << hexAddr(align);
            none += !host;
            busy_best += host && host->second > 0;
            inner_best += host && host->first > 0;
        }
        busy_best += guest && guest->second > 0;
    }
    // The states exercise full scans, interior picks and no fit.
    EXPECT_GT(busy_best, 10u);
    EXPECT_GT(inner_best, 10u);
    EXPECT_GT(none, 0u);
}

TEST(FrameManagerTest, ReservedPiecesReleaseToTheSameFreeSet)
{
    mem::PhysMemory mem(64 * MiB);
    mem::HostPhysAccessor accessor(mem);
    PoolStats stats;
    FrameManager frames(accessor, 64 * MiB, 0, stats.badRetired,
                        stats.chunks);
    for (Addr a = 0; a < 64 * MiB; a += 3 * MiB)
        ASSERT_TRUE(frames.buddy().allocateRange(a, 5 * kPage4K));
    const auto before = frames.buddy().freeIntervals().intervals();
    const Addr free_before = frames.buddy().freeBytes();
    const auto pieces = frames.reserveFree(8 * MiB, 16 * MiB);
    Addr held = 0;
    for (const Interval &piece : pieces) {
        EXPECT_GE(piece.start, 8 * MiB);
        EXPECT_LE(piece.end, 24 * MiB);
        held += piece.length();
    }
    // Pins at 9, 12, 15, 18 and 21 MiB.
    EXPECT_EQ(held, 16 * MiB - 5 * 5 * kPage4K);
    EXPECT_FALSE(frames.buddy().freeIntervals().intersectsRange(
        8 * MiB, 24 * MiB));
    EXPECT_EQ(frames.buddy().freeBytes(), free_before - held);
    frames.release(pieces);
    EXPECT_EQ(frames.buddy().freeIntervals().intervals(), before);
}

} // namespace
} // namespace emv::os
