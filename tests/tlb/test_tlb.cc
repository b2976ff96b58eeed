/** @file Unit tests for the set-associative TLB. */

#include <gtest/gtest.h>

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

} // namespace
} // namespace emv::tlb
