/** @file Unit tests for ballooning, self-ballooning and I/O-gap
 *  reclamation (§IV, §VI.C). */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "mem/phys_accessor.hh"
#include "os/balloon.hh"
#include "os/guest_os.hh"
#include "os/hotplug.hh"
#include "../test_support.hh"

namespace emv::os {
namespace {

/** Scripted VMM backend for guest-side tests. */
class FakeBackend : public BalloonBackend
{
  public:
    explicit FakeBackend(Addr extension_base, Addr reserve)
        : cursor(extension_base), remaining(reserve)
    {
    }

    void
    reclaimGuestPages(const std::vector<Addr> &gpas) override
    {
        reclaimed.insert(reclaimed.end(), gpas.begin(), gpas.end());
    }

    void
    reclaimGuestRange(Addr base, Addr bytes) override
    {
        rangeReclaims.push_back({base, base + bytes});
    }

    std::optional<Addr>
    grantExtension(Addr bytes) override
    {
        if (bytes > remaining)
            return std::nullopt;
        const Addr base = cursor;
        cursor += bytes;
        remaining -= bytes;
        return base;
    }

    std::vector<Addr> reclaimed;
    std::vector<Interval> rangeReclaims;
    Addr cursor;
    Addr remaining;
};

class BalloonTest : public ::testing::Test
{
  protected:
    static constexpr Addr kRam = 128 * MiB;
    static constexpr Addr kSpan = 512 * MiB;

    BalloonTest()
        : mem(kSpan), accessor(mem),
          os(accessor, kSpan, {{0, kRam}}),
          backend(kRam, 256 * MiB)
    {
    }

    mem::PhysMemory mem;
    mem::HostPhysAccessor accessor;
    GuestOs os;
    FakeBackend backend;
};

TEST_F(BalloonTest, CheckpointRoundTripPreservesPinnedPages)
{
    BalloonDriver a(os, backend);
    a.inflate(2 * MiB);
    const auto bytes = emv::test::ckptBytes(a);

    BalloonDriver b(os, backend);
    ASSERT_TRUE(emv::test::ckptRestore(bytes, b));
    EXPECT_EQ(emv::test::ckptBytes(b), bytes);
    EXPECT_EQ(b.inflatedBytes(), 2 * MiB);
    EXPECT_EQ(b.pinnedPages(), a.pinnedPages());
}

TEST_F(BalloonTest, InflateHandsPagesToVmm)
{
    BalloonDriver driver(os, backend);
    const Addr got = driver.inflate(8 * MiB);
    EXPECT_EQ(got, 8 * MiB);
    EXPECT_EQ(backend.reclaimed.size(), 2048u);
    EXPECT_EQ(driver.inflatedBytes(), 8 * MiB);
    EXPECT_EQ(os.frames().buddy().freeBytes(), kRam - 8 * MiB);
}

TEST_F(BalloonTest, InflatedPagesArePinnedUnmovable)
{
    BalloonDriver driver(os, backend);
    driver.inflate(1 * MiB);
    for (Addr page : driver.pinnedPages())
        EXPECT_TRUE(os.frames().unmovable().contains(page));
}

TEST_F(BalloonTest, InflateStopsAtExhaustion)
{
    BalloonDriver driver(os, backend);
    setQuietLogging(true);
    const Addr got = driver.inflate(kRam + 64 * MiB);
    setQuietLogging(false);
    EXPECT_EQ(got, kRam);
    EXPECT_EQ(os.frames().buddy().freeBytes(), 0u);
}

TEST_F(BalloonTest, SelfBalloonCreatesContiguousRange)
{
    // Fragment guest memory so no 32M run exists.
    for (Addr a = 0; a < kRam; a += 2 * MiB)
        ASSERT_TRUE(os.frames().buddy().allocateRange(a, kPage4K));
    ASSERT_LT(os.frames().buddy().largestFreeRun(), 32 * MiB);

    BalloonDriver driver(os, backend);
    auto ext = driver.selfBalloon(32 * MiB);
    ASSERT_TRUE(ext.has_value());
    EXPECT_EQ(ext->length(), 32 * MiB);
    // The new range is allocatable, contiguous guest memory.
    EXPECT_TRUE(os.ram().containsRange(ext->start, ext->end));
    EXPECT_TRUE(os.frames().buddy().rangeFree(ext->start, 32 * MiB));
    EXPECT_GE(os.frames().buddy().largestFreeRun(), 32 * MiB);
    // And the VMM got the fragmented pages back.
    EXPECT_EQ(backend.reclaimed.size(), 32 * MiB / kPage4K);
}

TEST_F(BalloonTest, SelfBalloonFailsWhenVmmCannotExtend)
{
    FakeBackend stingy(kRam, 0);
    BalloonDriver driver(os, stingy);
    EXPECT_FALSE(driver.selfBalloon(16 * MiB).has_value());
}

TEST_F(BalloonTest, SelfBalloonNetGuestMemoryIsUnchanged)
{
    BalloonDriver driver(os, backend);
    const Addr before = os.frames().buddy().freeBytes();
    auto ext = driver.selfBalloon(16 * MiB);
    ASSERT_TRUE(ext.has_value());
    // Ballooned out 16M, hot-added 16M.
    EXPECT_EQ(os.frames().buddy().freeBytes(), before);
}

class IoGapTest : public ::testing::Test
{
  protected:
    static constexpr Addr kGapStart = 96 * MiB;   // Scaled-down gap.
    static constexpr Addr kGapEnd = 128 * MiB;
    static constexpr Addr kHigh = 128 * MiB;      // RAM above gap.
    static constexpr Addr kSpan = 1 * GiB;

    IoGapTest()
        : mem(kSpan), accessor(mem),
          os(accessor, kSpan,
             {{0, kGapStart}, {kGapEnd, kGapEnd + kHigh}}),
          backend(kGapEnd + kHigh, 512 * MiB)
    {
    }

    mem::PhysMemory mem;
    mem::HostPhysAccessor accessor;
    GuestOs os;
    FakeBackend backend;
};

TEST_F(IoGapTest, ReclaimMovesBelowGapMemoryUp)
{
    const Addr keep = 16 * MiB;
    auto result = reclaimIoGap(os, backend, kGapStart, keep);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->movedBytes, kGapStart - keep);
    // Below-gap memory shrank to the kernel keep.
    EXPECT_TRUE(os.ram().containsRange(0, keep));
    EXPECT_FALSE(os.ram().contains(keep));
    // The extension appears at the top and is contiguous with the
    // high range.
    EXPECT_TRUE(os.ram().containsRange(kGapEnd,
                                       kGapEnd + kHigh +
                                           result->movedBytes));
    // One guest segment could now cover everything above the gap.
    auto largest = os.frames().buddy().freeIntervals().largest();
    ASSERT_TRUE(largest.has_value());
    EXPECT_GE(largest->length(), kHigh + result->movedBytes);
    // The VMM was told to drop the unplugged range's backing.
    ASSERT_EQ(backend.rangeReclaims.size(), 1u);
    EXPECT_EQ(backend.rangeReclaims[0].start, keep);
}

TEST_F(IoGapTest, ReclaimFailsWhenBelowGapBusy)
{
    ASSERT_TRUE(os.frames().buddy().allocateRange(32 * MiB, kPage4K));
    setQuietLogging(true);
    auto result = reclaimIoGap(os, backend, kGapStart, 16 * MiB);
    setQuietLogging(false);
    EXPECT_FALSE(result.has_value());
}

TEST_F(IoGapTest, ReclaimRollsBackWhenVmmCannotExtend)
{
    FakeBackend stingy(kGapEnd + kHigh, 0);
    auto result = reclaimIoGap(os, stingy, kGapStart, 16 * MiB);
    EXPECT_FALSE(result.has_value());
    // Memory is back where it started.
    EXPECT_TRUE(os.ram().containsRange(0, kGapStart));
    EXPECT_EQ(os.frames().buddy().freeBytes(), kGapStart + kHigh);
}

TEST_F(IoGapTest, KeepLargerThanGapFails)
{
    EXPECT_FALSE(
        reclaimIoGap(os, backend, kGapStart, kGapStart).has_value());
}

} // namespace
} // namespace emv::os
