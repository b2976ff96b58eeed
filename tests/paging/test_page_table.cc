/** @file Unit tests for the x86-64 page-table builder. */

#include <gtest/gtest.h>

#include <map>

#include "common/audit.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "paging/page_table.hh"
#include "paging/pte.hh"
#include "../test_support.hh"

namespace emv::paging {
namespace {

class PageTableTest : public ::testing::Test
{
  protected:
    PageTableTest()
        : mem(256 * MiB), space(mem, 128 * MiB), pt(space)
    {
    }

    /**
     * Rescan-based reference: every node reachable from the root,
     * with the number of present entries read from it.
     */
    std::map<Addr, unsigned>
    rescan() const
    {
        std::map<Addr, unsigned> present;
        scanNode(pt.root(), kLevels, present);
        return present;
    }

    void
    scanNode(Addr table, int level, std::map<Addr, unsigned> &present) const
    {
        unsigned &count = present[table];
        for (int i = 0; i < kEntriesPerTable; ++i) {
            const Pte pte{mem.read64(table + 8ull * i)};
            if (!pte.present())
                continue;
            ++count;
            if (level > 1 && !pte.pageSize())
                scanNode(pte.frame(), level - 1, present);
        }
    }

    /**
     * Nodes that unmapping the 4K page at @p va frees, bottom-up, by
     * rescanning each node on its path: a node goes when the entry
     * being removed from it is its last one.  Never the root.
     */
    std::vector<Addr>
    rescanFrees(Addr va) const
    {
        const auto present = rescan();
        std::vector<Addr> path{pt.root()};
        for (int level = kLevels; level > 1; --level) {
            const Pte pte{mem.read64(path.back() +
                                     8ull * tableIndex(va, level))};
            path.push_back(pte.frame());
        }
        std::vector<Addr> frees;
        for (std::size_t i = path.size() - 1; i > 0; --i) {
            if (present.at(path[i]) != 1)
                break;
            frees.push_back(path[i]);
        }
        return frees;
    }

    mem::PhysMemory mem;
    test::BumpMemSpace space;
    PageTable pt;
};

TEST_F(PageTableTest, CheckpointRoundTripSharesRadixFrames)
{
    pt.map(0x400000, 0x10000, PageSize::Size4K);
    pt.map(0x40000000, 0x200000, PageSize::Size2M);
    const auto bytes = test::ckptBytes(pt);

    // The radix nodes themselves live in the MemSpace (checkpointed
    // with physical memory); the table object only restores its
    // root and counters, then walks the shared frames.
    PageTable other(space);
    ASSERT_TRUE(test::ckptRestore(bytes, other));
    EXPECT_EQ(test::ckptBytes(other), bytes);
    EXPECT_EQ(other.root(), pt.root());
    EXPECT_EQ(other.mappedLeaves(), pt.mappedLeaves());
    EXPECT_EQ(other.tableNodes(), pt.tableNodes());
    EXPECT_EQ(other.translate(0x400123)->pa, 0x10123u);
    EXPECT_EQ(other.translate(0x40012345)->pa, 0x212345u);
}

TEST_F(PageTableTest, FreshTableTranslatesNothing)
{
    EXPECT_FALSE(pt.translate(0).has_value());
    EXPECT_FALSE(pt.translate(0x7fffffffffff).has_value());
    EXPECT_EQ(pt.mappedLeaves(), 0u);
    EXPECT_EQ(pt.tableNodes(), 1u);  // Just the root.
}

TEST_F(PageTableTest, Map4KAndTranslate)
{
    pt.map(0x400000, 0x10000, PageSize::Size4K);
    auto t = pt.translate(0x400123);
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->pa, 0x10123u);
    EXPECT_EQ(t->size, PageSize::Size4K);
    EXPECT_TRUE(t->writable);
    EXPECT_FALSE(pt.translate(0x401000).has_value());
}

TEST_F(PageTableTest, Map2MLeaf)
{
    pt.map(0x40000000, 0x200000, PageSize::Size2M);
    auto t = pt.translate(0x40012345);
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->pa, 0x212345u);
    EXPECT_EQ(t->size, PageSize::Size2M);
    // A 2M leaf needs no level-1 table: root + L3 + L2.
    EXPECT_EQ(pt.tableNodes(), 3u);
}

TEST_F(PageTableTest, Map1GLeaf)
{
    pt.map(0, 0x40000000, PageSize::Size1G);
    auto t = pt.translate(0x3fffffff);
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->pa, 0x7fffffffu);
    EXPECT_EQ(t->size, PageSize::Size1G);
    EXPECT_EQ(pt.tableNodes(), 2u);  // Root + PDPT.
}

TEST_F(PageTableTest, ReadOnlyMapping)
{
    pt.map(0x1000, 0x2000, PageSize::Size4K, /*writable=*/false);
    auto t = pt.translate(0x1000);
    ASSERT_TRUE(t.has_value());
    EXPECT_FALSE(t->writable);
}

TEST_F(PageTableTest, HighCanonicalAddresses)
{
    const Addr high_va = 0x7ffffffff000;  // Top of 47-bit space.
    pt.map(high_va, 0x5000, PageSize::Size4K);
    auto t = pt.translate(high_va + 0xabc);
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->pa, 0x5abcu);
}

TEST_F(PageTableTest, UnmapRemovesLeaf)
{
    pt.map(0x1000, 0x2000, PageSize::Size4K);
    EXPECT_TRUE(pt.unmap(0x1000, PageSize::Size4K));
    EXPECT_FALSE(pt.translate(0x1000).has_value());
    EXPECT_EQ(pt.mappedLeaves(), 0u);
}

TEST_F(PageTableTest, UnmapMissingReturnsFalse)
{
    EXPECT_FALSE(pt.unmap(0x1000, PageSize::Size4K));
    pt.map(0x1000, 0x2000, PageSize::Size4K);
    EXPECT_FALSE(pt.unmap(0x200000, PageSize::Size4K));
    // Unmapping the enclosing 2M page of a 4K mapping is a no-op
    // (the leaf lives one level lower).
    EXPECT_FALSE(pt.unmap(0, PageSize::Size2M));
    EXPECT_TRUE(pt.translate(0x1000).has_value());
}

TEST_F(PageTableTest, UnmapReclaimsEmptyNodes)
{
    pt.map(0x1000, 0x2000, PageSize::Size4K);
    const auto nodes_with_mapping = pt.tableNodes();
    EXPECT_EQ(nodes_with_mapping, 4u);
    pt.unmap(0x1000, PageSize::Size4K);
    EXPECT_EQ(pt.tableNodes(), 1u);
    EXPECT_EQ(space.freed.size(), 3u);
}

TEST_F(PageTableTest, SiblingKeepsSharedNodes)
{
    pt.map(0x1000, 0x10000, PageSize::Size4K);
    pt.map(0x2000, 0x11000, PageSize::Size4K);
    pt.unmap(0x1000, PageSize::Size4K);
    // The shared L1 table still holds the sibling.
    ASSERT_TRUE(pt.translate(0x2000).has_value());
    EXPECT_EQ(pt.tableNodes(), 4u);
}

TEST_F(PageTableTest, UpdateCountTracksMapUnmap)
{
    pt.map(0x1000, 0x10000, PageSize::Size4K);
    pt.map(0x2000, 0x11000, PageSize::Size4K);
    pt.unmap(0x1000, PageSize::Size4K);
    EXPECT_EQ(pt.updateCount(), 3u);
}

TEST_F(PageTableTest, ForEachLeafVisitsAllInOrder)
{
    pt.map(0x40000000, 0x200000, PageSize::Size2M);
    pt.map(0x1000, 0x10000, PageSize::Size4K);
    pt.map(0x2000, 0x11000, PageSize::Size4K);
    std::vector<Addr> vas;
    pt.forEachLeaf([&](const PageTable::Leaf &leaf) {
        vas.push_back(leaf.va);
    });
    ASSERT_EQ(vas.size(), 3u);
    EXPECT_EQ(vas[0], 0x1000u);
    EXPECT_EQ(vas[1], 0x2000u);
    EXPECT_EQ(vas[2], 0x40000000u);
}

TEST_F(PageTableTest, MixedSizesCoexist)
{
    pt.map(0x40000000, 0x40000000, PageSize::Size1G);
    pt.map(0x80000000, 0x200000, PageSize::Size2M);
    pt.map(0x80200000 + 0x1000, 0, PageSize::Size4K);
    EXPECT_EQ(pt.translate(0x40000010)->pa, 0x40000010u);
    EXPECT_EQ(pt.translate(0x80000010)->pa, 0x200010u);
    EXPECT_EQ(pt.translate(0x80201008)->pa, 0x8u);
}

TEST_F(PageTableTest, RandomizedMapUnmapConsistency)
{
    // Few leaves per node, so nodes at every level empty and get
    // reclaimed: 2 L3, 4 L2 and 16 L1 nodes cover the 256 pages.
    // Auditing checks each node's live count against a rescan.
    setQuietLogging(true);
    audit::setEnabled(true);
    audit::resetCounters();
    Rng rng(31);
    std::map<Addr, Addr> ref;  // va page -> pa page
    for (int step = 0; step < 2000; ++step) {
        const Addr va = (rng.nextBelow(2) << 39) +
                        (rng.nextBelow(2) << 30) +
                        (rng.nextBelow(4) << 21) +
                        rng.nextBelow(16) * kPage4K;
        const auto freed_before = space.freed.size();
        std::vector<Addr> expected_frees;
        if (rng.nextBool(0.6)) {
            if (ref.count(va))
                continue;
            const Addr pa = rng.nextBelow(16384) * kPage4K;
            pt.map(va, pa, PageSize::Size4K);
            ref[va] = pa;
        } else {
            auto it = ref.lower_bound(va);
            if (it == ref.end())
                continue;
            expected_frees = rescanFrees(it->first);
            ASSERT_TRUE(pt.unmap(it->first, PageSize::Size4K));
            ref.erase(it);
        }
        // The nodes freed, and their order, are those a rescan of
        // every node on the path predicts.
        const std::vector<Addr> freed(
            space.freed.begin() +
                static_cast<std::ptrdiff_t>(freed_before),
            space.freed.end());
        ASSERT_EQ(freed, expected_frees) << "step " << step;
        // Every frame ever allocated is either reachable from the
        // root or freed, and no reachable node is empty.
        const auto live = rescan();
        ASSERT_EQ(pt.tableNodes(), live.size()) << "step " << step;
        ASSERT_EQ(live.size() + space.freed.size(), space.allocated);
        for (const auto &[node, present] : live) {
            ASSERT_TRUE(node == pt.root() || present > 0)
                << "empty node at step " << step;
        }
    }
    for (const auto &[va, pa] : ref) {
        auto t = pt.translate(va);
        ASSERT_TRUE(t.has_value());
        ASSERT_EQ(t->pa, pa);
    }
    EXPECT_EQ(pt.mappedLeaves(), ref.size());
    EXPECT_FALSE(space.freed.empty());
    EXPECT_EQ(audit::failureCount(), 0u);
    audit::setEnabled(false);
    setQuietLogging(false);
}

TEST_F(PageTableTest, RestoredLiveCountsReclaimNodes)
{
    // Map a 2M range 4K at a time, checkpoint, restore into a second
    // table over the same memory, then unmap in ascending order (the
    // I/O-gap reclaim pattern).  Restore must not read the tree.
    const Addr va_base = 1ull << 40;
    for (Addr off = 0; off < kPage2M; off += kPage4K)
        pt.map(va_base + off, (1ull << 30) + off, PageSize::Size4K);
    const auto bytes = test::ckptBytes(pt);

    PageTable other(space);
    const auto reads = mem.stats().counterValue("reads");
    ASSERT_TRUE(test::ckptRestore(bytes, other));
    EXPECT_EQ(mem.stats().counterValue("reads"), reads);
    EXPECT_EQ(test::ckptBytes(other), bytes);
    EXPECT_EQ(other.tableNodes(), 4u);

    for (Addr off = 0; off < kPage2M; off += kPage4K)
        ASSERT_TRUE(other.unmap(va_base + off, PageSize::Size4K));
    EXPECT_EQ(other.mappedLeaves(), 0u);
    EXPECT_EQ(other.tableNodes(), 1u);
}

TEST_F(PageTableTest, TableBytesMatchesNodes)
{
    pt.map(0x1000, 0x2000, PageSize::Size4K);
    EXPECT_EQ(pt.tableBytes(), pt.tableNodes() * kPage4K);
}

using PageTableDeathTest = PageTableTest;

TEST_F(PageTableDeathTest, DoubleMapPanics)
{
    pt.map(0x1000, 0x2000, PageSize::Size4K);
    EXPECT_DEATH(pt.map(0x1000, 0x3000, PageSize::Size4K),
                 "already mapped");
}

TEST_F(PageTableDeathTest, ConflictingLeafLevelsPanic)
{
    pt.map(0x40000000, 0x200000, PageSize::Size2M);
    EXPECT_DEATH(pt.map(0x40000000, 0x1000, PageSize::Size4K),
                 "conflicts");
}

TEST_F(PageTableDeathTest, MisalignedMapPanics)
{
    EXPECT_DEATH(pt.map(0x1234, 0x2000, PageSize::Size4K),
                 "not aligned");
}

} // namespace
} // namespace emv::paging
