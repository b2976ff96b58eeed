/** @file Unit tests for the x86-64 page-table builder. */

#include <gtest/gtest.h>

#include <algorithm>
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

/**
 * MemSpace that recycles freed table frames last-in first-out (as
 * the VMM and guest-OS pools do) and logs every allocation and free,
 * so two tables built by different call sequences can be compared
 * frame for frame.
 */
class LoggingMemSpace : public MemSpace
{
  public:
    explicit LoggingMemSpace(mem::PhysMemory &mem) : mem(mem) {}

    std::uint64_t read64(Addr addr) const override
    { return mem.read64(addr); }

    void write64(Addr addr, std::uint64_t value) override
    { mem.write64(addr, value); }

    Addr
    allocTableFrame() override
    {
        Addr frame = next;
        if (pool.empty()) {
            next += kPage4K;
        } else {
            frame = pool.back();
            pool.pop_back();
        }
        mem.zeroFrame(frame);
        log.push_back(frame);
        return frame;
    }

    void
    freeTableFrame(Addr frame) override
    {
        pool.push_back(frame);
        log.push_back(~frame);
    }

    /** Allocated frames, and the complement of freed ones, in order. */
    std::vector<Addr> log;

  private:
    mem::PhysMemory &mem;
    std::vector<Addr> pool;
    Addr next = 0;
};

TEST(PageTableRangeTest, RangeOpsMatchPerPageSequence)
{
    // A seeded mix of mapRange/unmapRange on one table and the same
    // pages through map/unmap on its twin.  The 4G window straddles
    // a 512G (top-level entry) boundary, so runs cross leaf-table,
    // 1G and top-level boundaries.  Auditing reads back every leaf
    // and checks every node's live count against a rescan.
    setQuietLogging(true);
    audit::setEnabled(true);
    audit::resetCounters();
    mem::PhysMemory range_mem(64 * MiB), page_mem(64 * MiB);
    LoggingMemSpace range_space(range_mem), page_space(page_mem);
    PageTable range_pt(range_space), page_pt(page_space);
    const Addr window = (512 * GiB) - 2 * GiB;
    const Addr window_bytes = 4 * GiB;
    constexpr PageSize kSizes[] = {PageSize::Size4K, PageSize::Size2M,
                                   PageSize::Size1G};
    Rng rng(2014);
    std::uint64_t peak_leaves = 0, peak_nodes = 0;
    for (int step = 0; step < 400; ++step) {
        // 4K runs mostly; larger pages rarer so 4K mappings survive.
        const unsigned pick = static_cast<unsigned>(rng.nextBelow(10));
        const PageSize size = kSizes[pick < 7 ? 0 : pick < 9 ? 1 : 2];
        const Addr page = pageBytes(size);
        const Addr max_pages = size == PageSize::Size4K   ? 1536
                               : size == PageSize::Size2M ? 700
                                                          : 3;
        const Addr va = window +
                        rng.nextBelow(window_bytes / page) * page;
        Addr pages = 1 + rng.nextBelow(max_pages);
        pages = std::min(pages, (window + window_bytes - va) / page);

        if (step % 100 == 99) {
            // Sweep the window, a size at a time, from its middle: the
            // tree empties bottom-up through every level.
            for (const PageSize sweep : kSizes) {
                const Addr sweep_page = pageBytes(sweep);
                const Addr from = window + window_bytes / 2 -
                                  (step / 100 % 2) * sweep_page;
                const Addr bytes = window + window_bytes - from;
                range_pt.unmapRange(from, bytes, sweep);
                for (Addr off = 0; off < bytes; off += sweep_page)
                    page_pt.unmap(from + off, sweep);
                range_pt.unmapRange(window, from - window, sweep);
                for (Addr off = 0; off < from - window; off += sweep_page)
                    page_pt.unmap(window + off, sweep);
            }
        } else if (rng.nextBool(0.5)) {
            // Map the longest prefix of the run that is free.
            Addr free_pages = 0;
            while (free_pages < pages &&
                   !page_pt.leafRangeOccupied(va + free_pages * page,
                                              size)) {
                ++free_pages;
            }
            if (free_pages == 0)
                continue;
            const Addr pa = rng.nextBelow(1024) * kPage1G +
                            rng.nextBelow(512) * kPage2M;
            const Addr pa_base = alignDown(pa, page);
            range_pt.mapRange(va, pa_base, free_pages * page, size);
            for (Addr i = 0; i < free_pages; ++i)
                page_pt.map(va + i * page, pa_base + i * page, size);
        } else {
            // Unmap runs are longer, so tables empty and get freed.
            pages = std::min(pages * 3,
                             (window + window_bytes - va) / page);
            const auto removed =
                range_pt.unmapRange(va, pages * page, size);
            std::uint64_t expected = 0;
            for (Addr i = 0; i < pages; ++i)
                expected += page_pt.unmap(va + i * page, size);
            ASSERT_EQ(removed, expected) << "step " << step;
        }

        ASSERT_EQ(range_mem.stats().counterValue("writes"),
                  page_mem.stats().counterValue("writes"))
            << "step " << step;
        // Range calls read fewer entries; the reads are the only
        // state allowed to differ.
        range_mem.stats().resetAll();
        page_mem.stats().resetAll();
        ASSERT_EQ(test::ckptBytes(range_mem), test::ckptBytes(page_mem))
            << "step " << step;
        ASSERT_EQ(test::ckptBytes(range_pt), test::ckptBytes(page_pt))
            << "step " << step;
        ASSERT_EQ(range_pt.tableNodes(), page_pt.tableNodes());
        ASSERT_EQ(range_pt.mappedLeaves(), page_pt.mappedLeaves());
        ASSERT_EQ(range_pt.updateCount(), page_pt.updateCount());
        ASSERT_EQ(range_space.log, page_space.log) << "step " << step;
        peak_leaves = std::max(peak_leaves, page_pt.mappedLeaves());
        peak_nodes = std::max(peak_nodes, page_pt.tableNodes());
    }
    // The tree grew through every level, and the last sweep freed
    // it down to the root.
    EXPECT_GT(peak_leaves, 1000u);
    EXPECT_GT(peak_nodes, 8u);
    EXPECT_EQ(page_pt.mappedLeaves(), 0u);
    EXPECT_EQ(page_pt.tableNodes(), 1u);
    EXPECT_GT(std::count_if(page_space.log.begin(), page_space.log.end(),
                            [](Addr e) { return e >= 64 * MiB; }),
              100);
    EXPECT_EQ(audit::failureCount(), 0u);
    audit::setEnabled(false);
    setQuietLogging(false);
}

TEST(PageTableRangeTest, MapIfUnmappedMatchesPerPageMaps)
{
    // Windows of scattered frames mapped by one call on one table
    // and page by page on its twin: whole and partial leaf tables,
    // and windows that need new upper tables.  Entries, table frames
    // and their order, and counts all agree, and each call reads at
    // most four entries: the check's descent plus one on resuming.
    mem::PhysMemory one_mem(64 * MiB), paged_mem(64 * MiB);
    LoggingMemSpace one_space(one_mem), paged_space(paged_mem);
    PageTable one(one_space), paged(paged_space);
    Rng rng(3);
    struct Window { Addr va; Addr bytes; };
    const Window windows[] = {
        {1 * GiB, kPage2M},
        {1 * GiB + kPage2M + 3 * kPage4K, 10 * kPage4K},
        {512 * GiB - kPage2M, kPage2M},
        {1 * GiB + 3 * kPage2M - kPage4K, kPage4K},
        {512 * GiB + 7 * GiB, 300 * kPage4K},
    };
    for (const auto &w : windows) {
        std::vector<Addr> frames;
        for (Addr off = 0; off < w.bytes; off += kPage4K)
            frames.push_back(rng.nextBelow(1u << 20) * kPage4K);
        const std::uint64_t reads0 = one_mem.stats().counterValue("reads");
        ASSERT_TRUE(one.mapIfUnmapped(w.va, w.bytes, PageSize::Size4K,
                                      [&] { return frames.data(); }));
        EXPECT_LE(one_mem.stats().counterValue("reads") - reads0, 4u);
        for (std::size_t i = 0; i < frames.size(); ++i)
            paged.map(w.va + i * kPage4K, frames[i], PageSize::Size4K);
        EXPECT_EQ(one_space.log, paged_space.log);
        EXPECT_EQ(test::ckptBytes(one), test::ckptBytes(paged));
        for (Addr frame : one_space.log)
            EXPECT_EQ(one_mem.hashFrame(frame), paged_mem.hashFrame(frame));
        for (std::size_t i = 0; i < frames.size(); ++i) {
            auto t = one.translate(w.va + i * kPage4K);
            ASSERT_TRUE(t.has_value());
            EXPECT_EQ(t->pa, frames[i]);
        }
    }
}

TEST(PageTableRangeTest, MapIfUnmappedFillsAroundMappedPages)
{
    // Spans beside mapped pages of the same leaf table: each call
    // reads the span's entries, maps it, and ends as map() per page.
    mem::PhysMemory one_mem(64 * MiB), paged_mem(64 * MiB);
    LoggingMemSpace one_space(one_mem), paged_space(paged_mem);
    PageTable one(one_space), paged(paged_space);
    for (PageTable *pt : {&one, &paged}) {
        pt->map(1 * GiB + 0x5000, 0x9000, PageSize::Size4K);
        pt->map(1 * GiB + 0x100000, 0xa000, PageSize::Size4K);
    }
    const std::vector<Addr> frames{0x20000, 0x31000, 0x22000, 0x13000,
                                   0x44000};
    const Addr spans[] = {1 * GiB, 1 * GiB + 0x6000, 1 * GiB + 0xfb000};
    for (Addr va : spans) {
        ASSERT_TRUE(one.mapIfUnmapped(va, 5 * kPage4K, PageSize::Size4K,
                                      [&] { return frames.data(); }));
        for (std::size_t i = 0; i < frames.size(); ++i)
            paged.map(va + i * kPage4K, frames[i], PageSize::Size4K);
    }
    EXPECT_EQ(one_space.log, paged_space.log);
    EXPECT_EQ(test::ckptBytes(one), test::ckptBytes(paged));
    for (Addr frame : one_space.log)
        EXPECT_EQ(one_mem.hashFrame(frame), paged_mem.hashFrame(frame));
    // Overlapping a mapped page declines.
    EXPECT_FALSE(one.mapIfUnmapped(1 * GiB + 0x3000, 2 * kPage4K,
                                   PageSize::Size4K,
                                   [&] { return frames.data(); }));
}

/**
 * Identity MemSpace that logs how each word reaches memory: every
 * write64() address, and every writeRun() as its address and length.
 */
class RunLoggingMemSpace : public test::BumpMemSpace
{
  public:
    using BumpMemSpace::BumpMemSpace;

    struct Run
    {
        Addr addr;
        unsigned n;
        bool operator==(const Run &) const = default;
    };

    void
    write64(Addr addr, std::uint64_t value) override
    {
        words.push_back(addr);
        BumpMemSpace::write64(addr, value);
    }

    void
    writeRun(Addr addr, unsigned n, const std::uint64_t *values) override
    {
        runs.push_back({addr, n});
        for (unsigned i = 0; i < n; ++i)
            BumpMemSpace::write64(addr + 8ull * i, values[i]);
    }

    std::vector<Addr> words;
    std::vector<Run> runs;
};

TEST(PageTableRunTest, MapWritesALeafTableAsOneRun)
{
    // One 2M window of 4K pages into a fresh tree: the descent makes
    // three tables with one entry write each, and all 512 leaves go
    // in as one run over the whole leaf table.
    mem::PhysMemory mem(64 * MiB);
    RunLoggingMemSpace space(mem, 32 * MiB);
    PageTable pt(space);
    const Addr va = 5 * GiB;
    pt.mapRange(va, 1 * GiB, kPage2M, PageSize::Size4K);
    ASSERT_EQ(space.runs.size(), 1u);
    const Addr leaf_table = space.runs[0].addr;
    EXPECT_TRUE(isAligned(leaf_table, kPage4K));
    EXPECT_EQ(space.runs[0].n, 512u);
    EXPECT_EQ(space.words.size(), 3u);
    for (Addr addr : space.words)
        EXPECT_NE(alignDown(addr, kPage4K), leaf_table);
    EXPECT_EQ(mem.stats().counterValue("writes"), 3u + 512u);
    EXPECT_EQ(pt.mappedLeaves(), 512u);
    EXPECT_EQ(pt.translate(va + 7 * kPage4K)->pa, 1 * GiB + 7 * kPage4K);
}

TEST(PageTableRunTest, UnmapClearsEachPresentRunWithOneWrite)
{
    // A full leaf table with holes at entries 100 and 300 holds three
    // runs of leaves; unmapping the window clears each with one run
    // of zeros, and then frees the tables with one entry write each.
    mem::PhysMemory mem(64 * MiB);
    RunLoggingMemSpace space(mem, 32 * MiB);
    PageTable pt(space);
    const Addr va = 5 * GiB;
    pt.mapRange(va, 1 * GiB, kPage2M, PageSize::Size4K);
    pt.unmap(va + 100 * kPage4K, PageSize::Size4K);
    pt.unmap(va + 300 * kPage4K, PageSize::Size4K);
    const Addr leaf_table = space.runs[0].addr;
    space.runs.clear();
    space.words.clear();
    const std::uint64_t writes0 = mem.stats().counterValue("writes");

    EXPECT_EQ(pt.unmapRange(va, kPage2M, PageSize::Size4K), 510u);
    const std::vector<RunLoggingMemSpace::Run> want{
        {leaf_table, 100},
        {leaf_table + 8 * 101, 199},
        {leaf_table + 8 * 301, 211},
    };
    EXPECT_EQ(space.runs, want);
    EXPECT_EQ(space.words.size(), 3u);
    for (Addr addr : space.words)
        EXPECT_NE(alignDown(addr, kPage4K), leaf_table);
    EXPECT_EQ(mem.stats().counterValue("writes") - writes0, 513u);
    EXPECT_EQ(pt.mappedLeaves(), 0u);
    EXPECT_EQ(pt.tableNodes(), 1u);
}

TEST_F(PageTableTest, MapIfUnmappedDeclinesMappedSpans)
{
    bool asked = false;
    const auto decline = [&]() -> const Addr * {
        asked = true;
        return nullptr;
    };
    // A page of the span is mapped.
    pt.map(0x405000, 0x9000, PageSize::Size4K);
    EXPECT_FALSE(pt.mapIfUnmapped(0x400000, 0x8000, PageSize::Size4K,
                                  decline));
    // A 2M leaf covers the span.
    pt.map(0x800000, 0x200000, PageSize::Size2M);
    EXPECT_FALSE(pt.mapIfUnmapped(0x801000, 0x1000, PageSize::Size4K,
                                  decline));
    EXPECT_FALSE(asked);

    // An unmapped span whose supplier declines: nothing changes, not
    // even the missing tables.
    const auto nodes = pt.tableNodes();
    const auto leaves = pt.mappedLeaves();
    const auto updates = pt.updateCount();
    EXPECT_FALSE(pt.mapIfUnmapped(1 * GiB, 0x2000, PageSize::Size4K,
                                  decline));
    EXPECT_TRUE(asked);
    EXPECT_EQ(pt.tableNodes(), nodes);
    EXPECT_EQ(pt.mappedLeaves(), leaves);
    EXPECT_EQ(pt.updateCount(), updates);
    EXPECT_FALSE(pt.translate(1 * GiB).has_value());
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

TEST_F(PageTableDeathTest, RangeOverExistingLeafPanics)
{
    pt.map(0x205000, 0x2000, PageSize::Size4K);
    EXPECT_DEATH(pt.mapRange(0x200000, 0x10000000, 16 * kPage4K,
                             PageSize::Size4K),
                 "already mapped");
}

TEST_F(PageTableDeathTest, MisalignedMapPanics)
{
    EXPECT_DEATH(pt.map(0x1234, 0x2000, PageSize::Size4K),
                 "not aligned");
}

} // namespace
} // namespace emv::paging
