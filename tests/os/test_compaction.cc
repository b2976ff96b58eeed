/** @file Unit tests for the compaction daemon (§IV). */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "mem/phys_accessor.hh"
#include "os/compaction.hh"
#include "os/guest_os.hh"
#include "../test_support.hh"

namespace emv::os {
namespace {

class CompactionTest : public ::testing::Test
{
  protected:
    static constexpr Addr kSpan = 256 * MiB;

    CompactionTest()
        : mem(kSpan), accessor(mem),
          os(accessor, kSpan, {{0, kSpan}})
    {
    }

    /** Map a region and return the process. */
    Process &
    makeLoadedProcess(Addr bytes)
    {
        auto &proc = os.createProcess();
        os.defineRegion(proc, "heap", 1 * GiB, bytes,
                        PageSize::Size4K);
        os.populateRange(proc, 1 * GiB, bytes);
        return proc;
    }

    mem::PhysMemory mem;
    mem::HostPhysAccessor accessor;
    GuestOs os;
};

TEST_F(CompactionTest, NoWorkWhenRunExists)
{
    CompactionDaemon daemon(os);
    auto run = daemon.createFreeRun(64 * MiB);
    ASSERT_TRUE(run.has_value());
    EXPECT_EQ(daemon.migratedPages(), 0u);
}

TEST_F(CompactionTest, EstimateIsZeroWhenFree)
{
    CompactionDaemon daemon(os);
    EXPECT_EQ(daemon.estimateMigrations(64 * MiB).value_or(999), 0u);
}

TEST_F(CompactionTest, MigratesPagesToCreateRun)
{
    // Fill most of memory with mapped data, then free every other
    // 2M chunk: free space is plentiful but discontiguous.
    auto &proc = makeLoadedProcess(192 * MiB);
    for (Addr off = 0; off < 192 * MiB; off += 4 * MiB)
        os.unmapRange(proc, 1 * GiB + off, 2 * MiB);
    ASSERT_LT(os.frames().buddy().largestFreeRun(), 96 * MiB);

    CompactionDaemon daemon(os);
    auto run = daemon.createFreeRun(96 * MiB);
    ASSERT_TRUE(run.has_value());
    EXPECT_EQ(run->length(), 96 * MiB);
    EXPECT_TRUE(os.frames().buddy().rangeFree(run->start, 96 * MiB));
    EXPECT_GT(daemon.migratedPages(), 0u);
}

TEST_F(CompactionTest, MappingsSurviveMigration)
{
    auto &proc = makeLoadedProcess(128 * MiB);
    // Write a marker through each page's physical address, then
    // free alternating chunks to fragment.
    for (Addr off = 0; off < 128 * MiB; off += 4 * MiB)
        os.unmapRange(proc, 1 * GiB + off, 2 * MiB);
    std::map<Addr, std::uint64_t> markers;
    for (Addr off = 2 * MiB; off < 128 * MiB; off += 4 * MiB) {
        const Addr va = 1 * GiB + off;
        auto t = proc.pageTable().translate(va);
        ASSERT_TRUE(t.has_value());
        mem.write64(t->pa, va);
        markers[va] = va;
    }

    CompactionDaemon daemon(os);
    auto run = daemon.createFreeRun(64 * MiB);
    ASSERT_TRUE(run.has_value());

    // Every mapping still resolves and the content moved with it.
    for (const auto &[va, marker] : markers) {
        auto t = proc.pageTable().translate(va);
        ASSERT_TRUE(t.has_value());
        EXPECT_EQ(mem.read64(t->pa), marker);
    }
}

TEST_F(CompactionTest, RemapHookFires)
{
    auto &proc = makeLoadedProcess(64 * MiB);
    for (Addr off = 0; off < 64 * MiB; off += 4 * MiB)
        os.unmapRange(proc, 1 * GiB + off, 2 * MiB);
    std::uint64_t remaps = 0;
    CompactionDaemon daemon(
        os, [&](Process &, Addr, PageSize) { ++remaps; });
    auto run = daemon.createFreeRun(48 * MiB);
    ASSERT_TRUE(run.has_value());
    EXPECT_EQ(remaps, daemon.migratedPages());
}

TEST_F(CompactionTest, RespectsUnmovableRegions)
{
    // Fill nearly all memory so no big free run survives below.
    auto &proc = makeLoadedProcess(224 * MiB);
    for (Addr off = 0; off < 224 * MiB; off += 4 * MiB)
        os.unmapRange(proc, 1 * GiB + off, 2 * MiB);

    // Make everything below 128M unmovable; the run must be above.
    os.frames().markUnmovable(0, 128 * MiB);
    CompactionDaemon daemon(os);
    auto run = daemon.createFreeRun(64 * MiB);
    ASSERT_TRUE(run.has_value());
    EXPECT_GE(run->start, 128 * MiB);
}

TEST_F(CompactionTest, BudgetRefusal)
{
    auto &proc = makeLoadedProcess(224 * MiB);
    for (Addr off = 0; off < 224 * MiB; off += 4 * MiB)
        os.unmapRange(proc, 1 * GiB + off, 2 * MiB);
    CompactionDaemon daemon(os);
    auto estimate = daemon.estimateMigrations(96 * MiB);
    ASSERT_TRUE(estimate.has_value());
    ASSERT_GT(*estimate, 1u);
    // A budget below the estimate refuses without doing work.
    EXPECT_FALSE(
        daemon.createFreeRun(96 * MiB, *estimate - 1).has_value());
    EXPECT_EQ(daemon.migratedPages(), 0u);
    // A sufficient budget succeeds.
    EXPECT_TRUE(
        daemon.createFreeRun(96 * MiB, *estimate + 512).has_value());
}

TEST_F(CompactionTest, SegmentCreationAfterCompaction)
{
    // Table III flow: fragmented memory -> compaction -> segment.
    auto &proc = makeLoadedProcess(224 * MiB);
    for (Addr off = 0; off < 224 * MiB; off += 4 * MiB)
        os.unmapRange(proc, 1 * GiB + off, 2 * MiB);

    auto &big = os.createProcess();
    os.defineRegion(big, "heap", 2 * GiB, 80 * MiB,
                    PageSize::Size4K, true);
    ASSERT_FALSE(os.createGuestSegment(big).has_value());

    CompactionDaemon daemon(os);
    ASSERT_TRUE(daemon.createFreeRun(80 * MiB).has_value());
    EXPECT_TRUE(os.createGuestSegment(big).has_value());
}

TEST_F(CompactionTest, FailedMigrationReleasesWindow)
{
    // 112 MiB mapped in every other 2M chunk of 224 MiB: a 200 MiB
    // window holds more victims than there is free memory outside it,
    // so migration runs out of targets part way.
    auto &proc = makeLoadedProcess(224 * MiB);
    for (Addr off = 0; off < 224 * MiB; off += 4 * MiB)
        os.unmapRange(proc, 1 * GiB + off, 2 * MiB);
    std::map<Addr, std::uint64_t> markers;
    for (Addr off = 2 * MiB; off < 224 * MiB; off += 4 * MiB) {
        for (Addr page = 0; page < 2 * MiB; page += 256 * kPage4K) {
            const Addr va = 1 * GiB + off + page;
            auto t = proc.pageTable().translate(va);
            ASSERT_TRUE(t.has_value());
            mem.write64(t->pa, va);
            markers[va] = va;
        }
    }
    auto &buddy = os.frames().buddy();
    const Addr free_before = buddy.freeBytes();

    CompactionDaemon daemon(os);
    setQuietLogging(true);
    const auto run = daemon.createFreeRun(200 * MiB);
    setQuietLogging(false);
    ASSERT_FALSE(run.has_value());
    EXPECT_GT(daemon.migratedPages(), 0u);
    // The window's free pieces and the frames its migrated victims
    // left are free again; every mapping holds an allocated frame
    // with its contents.
    EXPECT_EQ(buddy.freeBytes(), free_before);
    EXPECT_EQ(proc.pageTable().mappedLeaves(), 112 * MiB / kPage4K);
    proc.pageTable().forEachLeaf([&](const paging::PageTable::Leaf &leaf) {
        EXPECT_FALSE(buddy.freeIntervals().intersectsRange(
            leaf.pa, leaf.pa + pageBytes(leaf.size)))
            << hexAddr(leaf.va);
    });
    for (const auto &[va, marker] : markers) {
        auto t = proc.pageTable().translate(va);
        ASSERT_TRUE(t.has_value());
        EXPECT_EQ(mem.read64(t->pa), marker);
    }
}

TEST_F(CompactionTest, CheckpointRoundTripPreservesMigrations)
{
    makeLoadedProcess(128 * MiB);
    CompactionDaemon a(os);
    a.createFreeRun(16 * MiB);
    const auto bytes = emv::test::ckptBytes(a);

    CompactionDaemon b(os);
    ASSERT_TRUE(emv::test::ckptRestore(bytes, b));
    EXPECT_EQ(emv::test::ckptBytes(b), bytes);
    EXPECT_EQ(b.migratedPages(), a.migratedPages());
}

} // namespace
} // namespace emv::os
