/** @file Unit tests for the set-associative TLB. */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/audit.hh"
#include "common/rng.hh"
#include "tlb/tlb.hh"
#include "../test_support.hh"

namespace emv::tlb {
namespace {

TEST(TlbTest, MissOnEmpty)
{
    Tlb tlb("t", 16, 4);
    EXPECT_FALSE(tlb.lookup(EntryKind::Guest, 0x1000,
                            PageSize::Size4K));
}

TEST(TlbTest, HitAfterInsert)
{
    Tlb tlb("t", 16, 4);
    tlb.insert(EntryKind::Guest, 0x1000, 0xa000, PageSize::Size4K);
    auto hit = tlb.lookup(EntryKind::Guest, 0x1abc,
                          PageSize::Size4K);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->frame, 0xa000u);
    EXPECT_EQ(hit->size, PageSize::Size4K);
}

TEST(TlbTest, KindsAreIsolated)
{
    Tlb tlb("t", 16, 4);
    tlb.insert(EntryKind::Guest, 0x1000, 0xa000, PageSize::Size4K);
    EXPECT_FALSE(tlb.lookup(EntryKind::Nested, 0x1000,
                            PageSize::Size4K));
    tlb.insert(EntryKind::Nested, 0x1000, 0xb000, PageSize::Size4K);
    EXPECT_EQ(tlb.lookup(EntryKind::Guest, 0x1000,
                         PageSize::Size4K)->frame, 0xa000u);
    EXPECT_EQ(tlb.lookup(EntryKind::Nested, 0x1000,
                         PageSize::Size4K)->frame, 0xb000u);
}

TEST(TlbTest, SizesAreIsolated)
{
    Tlb tlb("t", 16, 4);
    tlb.insert(EntryKind::Guest, 0x200000, 0x400000,
               PageSize::Size2M);
    EXPECT_FALSE(tlb.lookup(EntryKind::Guest, 0x200000,
                            PageSize::Size4K));
    auto hit = tlb.lookup(EntryKind::Guest, 0x3fffff,
                          PageSize::Size2M);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->frame, 0x400000u);
}

TEST(TlbTest, LruEvictionWithinSet)
{
    Tlb tlb("t", 1, 2);  // Single set, 2 ways.
    tlb.insert(EntryKind::Guest, 0x1000, 0xa000, PageSize::Size4K);
    tlb.insert(EntryKind::Guest, 0x2000, 0xb000, PageSize::Size4K);
    // Touch the first so the second becomes LRU.
    tlb.lookup(EntryKind::Guest, 0x1000, PageSize::Size4K);
    tlb.insert(EntryKind::Guest, 0x3000, 0xc000, PageSize::Size4K);
    EXPECT_TRUE(tlb.lookup(EntryKind::Guest, 0x1000,
                           PageSize::Size4K));
    EXPECT_FALSE(tlb.lookup(EntryKind::Guest, 0x2000,
                            PageSize::Size4K));
    EXPECT_TRUE(tlb.lookup(EntryKind::Guest, 0x3000,
                           PageSize::Size4K));
}

TEST(TlbTest, ReinsertUpdatesFrame)
{
    Tlb tlb("t", 16, 4);
    tlb.insert(EntryKind::Guest, 0x1000, 0xa000, PageSize::Size4K);
    tlb.insert(EntryKind::Guest, 0x1000, 0xb000, PageSize::Size4K);
    EXPECT_EQ(tlb.lookup(EntryKind::Guest, 0x1000,
                         PageSize::Size4K)->frame, 0xb000u);
    EXPECT_EQ(tlb.occupancy(EntryKind::Guest), 1u);
}

TEST(TlbTest, FlushPage)
{
    Tlb tlb("t", 16, 4);
    tlb.insert(EntryKind::Guest, 0x1000, 0xa000, PageSize::Size4K);
    tlb.insert(EntryKind::Guest, 0x2000, 0xb000, PageSize::Size4K);
    tlb.flushPage(EntryKind::Guest, 0x1000, PageSize::Size4K);
    EXPECT_FALSE(tlb.lookup(EntryKind::Guest, 0x1000,
                            PageSize::Size4K));
    EXPECT_TRUE(tlb.lookup(EntryKind::Guest, 0x2000,
                           PageSize::Size4K));
}

TEST(TlbTest, FlushKindLeavesOtherKind)
{
    Tlb tlb("t", 16, 4);
    tlb.insert(EntryKind::Guest, 0x1000, 0xa000, PageSize::Size4K);
    tlb.insert(EntryKind::Nested, 0x1000, 0xb000, PageSize::Size4K);
    tlb.flushKind(EntryKind::Guest);
    EXPECT_EQ(tlb.occupancy(EntryKind::Guest), 0u);
    EXPECT_EQ(tlb.occupancy(EntryKind::Nested), 1u);
}

TEST(TlbTest, FlushAll)
{
    Tlb tlb("t", 16, 4);
    tlb.insert(EntryKind::Guest, 0x1000, 0xa000, PageSize::Size4K);
    tlb.insert(EntryKind::Nested, 0x2000, 0xb000, PageSize::Size4K);
    tlb.flushAll();
    EXPECT_EQ(tlb.occupancy(EntryKind::Guest), 0u);
    EXPECT_EQ(tlb.occupancy(EntryKind::Nested), 0u);
}

TEST(TlbTest, CapacityIsSetsTimesWays)
{
    Tlb tlb("t", 4, 4);
    for (Addr page = 0; page < 64; ++page) {
        tlb.insert(EntryKind::Guest, page * kPage4K, page * kPage4K,
                   PageSize::Size4K);
    }
    EXPECT_EQ(tlb.occupancy(EntryKind::Guest), 16u);
}

TEST(TlbTest, SharedCapacityPressure)
{
    // Nested entries evict guest entries in a shared structure —
    // the miss-inflation mechanism of §IX.A.
    Tlb tlb("t", 1, 4);
    for (int i = 0; i < 4; ++i) {
        tlb.insert(EntryKind::Guest, static_cast<Addr>(i) * kPage4K,
                   0, PageSize::Size4K);
    }
    EXPECT_EQ(tlb.occupancy(EntryKind::Guest), 4u);
    for (int i = 0; i < 3; ++i) {
        tlb.insert(EntryKind::Nested,
                   static_cast<Addr>(i + 100) * kPage4K, 0,
                   PageSize::Size4K);
    }
    EXPECT_EQ(tlb.occupancy(EntryKind::Guest), 1u);
    EXPECT_EQ(tlb.occupancy(EntryKind::Nested), 3u);
}

TEST(TlbTest, StatsCountHitsAndMisses)
{
    Tlb tlb("t", 16, 4);
    tlb.lookup(EntryKind::Guest, 0x1000, PageSize::Size4K);
    tlb.insert(EntryKind::Guest, 0x1000, 0xa000, PageSize::Size4K);
    tlb.lookup(EntryKind::Guest, 0x1000, PageSize::Size4K);
    EXPECT_EQ(tlb.stats().counterValue("misses"), 1u);
    EXPECT_EQ(tlb.stats().counterValue("hits"), 1u);
    EXPECT_EQ(tlb.stats().counterValue("inserts"), 1u);
}

TEST(TlbDeathTest, MisalignedFramePanics)
{
    Tlb tlb("t", 16, 4);
    EXPECT_DEATH(tlb.insert(EntryKind::Guest, 0x200000, 0x1000,
                            PageSize::Size2M),
                 "not aligned");
}

TEST(TlbTest, CheckpointRoundTripPreservesEntriesAndLru)
{
    Tlb a("t", 1, 2);  // Single set so LRU order is observable.
    a.insert(EntryKind::Guest, 0x1000, 0xa000, PageSize::Size4K);
    a.insert(EntryKind::Guest, 0x2000, 0xb000, PageSize::Size4K);
    a.lookup(EntryKind::Guest, 0x1000, PageSize::Size4K);
    const auto bytes = test::ckptBytes(a);

    Tlb b("t", 1, 2);
    ASSERT_TRUE(test::ckptRestore(bytes, b));
    EXPECT_EQ(test::ckptBytes(b), bytes);
    // The restored LRU clock must evict the same victim the saved
    // TLB would: 0x2000 is least recently used.
    b.insert(EntryKind::Guest, 0x3000, 0xc000, PageSize::Size4K);
    EXPECT_TRUE(b.lookup(EntryKind::Guest, 0x1000,
                         PageSize::Size4K).has_value());
    EXPECT_FALSE(b.lookup(EntryKind::Guest, 0x2000,
                          PageSize::Size4K).has_value());
}

TEST(TlbTest, CheckpointRejectsGeometryMismatch)
{
    Tlb a("t", 16, 4);
    Tlb b("t", 8, 4);
    EXPECT_FALSE(test::ckptRestore(test::ckptBytes(a), b));
}

/** The array's part of @p tlb's checkpoint: clock and every way. */
std::vector<std::uint8_t>
arrayBytes(const Tlb &tlb)
{
    auto bytes = test::ckptBytes(tlb);
    // Geometry (2 x u32), clock and count (2 x u64), then per way
    // tag, value and stamp (3 x u64) and a valid byte; stats follow.
    bytes.resize(24 + std::size_t{tlb.sets()} * tlb.ways() * 25);
    return bytes;
}

TEST(TlbTest, EmptyClassProbeIsACountedMiss)
{
    Tlb tlb("t", 1, 2);
    tlb.insert(EntryKind::Guest, 0x1000, 0xa000, PageSize::Size4K);
    tlb.insert(EntryKind::Nested, 0x2000, 0xb000, PageSize::Size4K);
    const auto before = arrayBytes(tlb);

    // Guest 2M and nested 1G hold nothing: each probe is a miss that
    // leaves the LRU clock and every way as they were.
    EXPECT_FALSE(tlb.lookup(EntryKind::Guest, 0x1000,
                            PageSize::Size2M));
    EXPECT_FALSE(tlb.lookup(EntryKind::Nested, 0x2000,
                            PageSize::Size1G));
    EXPECT_EQ(tlb.stats().counterValue("misses"), 2u);
    EXPECT_EQ(tlb.stats().counterValue("hits"), 0u);
    EXPECT_EQ(arrayBytes(tlb), before);

    // A probe of a live class still hits and refreshes its way.
    EXPECT_TRUE(tlb.lookup(EntryKind::Guest, 0x1000,
                           PageSize::Size4K));
    EXPECT_NE(arrayBytes(tlb), before);
}

TEST(TlbTest, RestoredClassesStillHit)
{
    Tlb a("t", 16, 4);
    a.insert(EntryKind::Guest, 0x40000000, 0x80000000,
             PageSize::Size2M);
    a.insert(EntryKind::Nested, 0x5000, 0xc000, PageSize::Size4K);
    const auto bytes = test::ckptBytes(a);

    Tlb b("t", 16, 4);
    ASSERT_TRUE(test::ckptRestore(bytes, b));
    auto guest = b.lookup(EntryKind::Guest, 0x40012345,
                          PageSize::Size2M);
    ASSERT_TRUE(guest.has_value());
    EXPECT_EQ(guest->frame, 0x80000000u);
    auto nested = b.lookup(EntryKind::Nested, 0x5abc,
                           PageSize::Size4K);
    ASSERT_TRUE(nested.has_value());
    EXPECT_EQ(nested->frame, 0xc000u);
}

TEST(TlbTest, ClassCountsHoldUnderAudit)
{
    // Inserts, evictions and page flushes keep the live counts;
    // every kind or full flush checks them against the array.
    const PageSize sizes[] = {PageSize::Size4K, PageSize::Size2M,
                              PageSize::Size1G};
    Tlb tlb("t", 4, 2);
    Rng rng(7);
    audit::setEnabled(true);
    audit::resetCounters();
    for (int i = 0; i < 20000; ++i) {
        const auto kind = rng.nextBool(0.5) ? EntryKind::Nested
                                            : EntryKind::Guest;
        const PageSize size = sizes[rng.nextBelow(3)];
        const Addr addr = rng.nextBelow(32) * pageBytes(size);
        const std::uint64_t op = rng.nextBelow(1000);
        if (op < 400)
            tlb.lookup(kind, addr, size);
        else if (op < 800)
            tlb.insert(kind, addr, addr, size);
        else if (op < 990)
            tlb.flushPage(kind, addr, size);
        else if (op < 998)
            tlb.flushKind(kind);
        else
            tlb.flushAll();
    }
    EXPECT_GT(audit::checkCount(), 0u);
    EXPECT_EQ(audit::failureCount(), 0u);
    audit::setEnabled(false);
}

} // namespace
} // namespace emv::tlb
