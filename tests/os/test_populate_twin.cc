/**
 * @file
 * Extent populate against its per-page reference.
 *
 * GuestOs::populateRange maps a qualifying 2 MB window with one buddy
 * run and one page-table call.  The reference faults the same pages
 * in one at a time through handleFault(), the per-page path.  A
 * seeded mix of allocator calls, populates and unmaps runs on two
 * identical machines under audit, and after every step the free
 * lists, the page-table bytes and table-frame order, the kernel pool,
 * the retired bad frames and the mapping-hook log (expanded into
 * leaves) must agree.  The regions cover 4K, 2M and segment-backed
 * pages, windows shared by two regions, bad frames in the data runs
 * and in the segment, and (in the THP instance) THP draws.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common/audit.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "mem/phys_accessor.hh"
#include "os/guest_os.hh"
#include "../test_support.hh"

namespace emv::os {
namespace {

constexpr Addr kSpan = 192 * MiB;

struct HookCall
{
    Addr va;
    Addr bytes;
    PageSize size;
    bool mapped;

    bool operator==(const HookCall &) const = default;
};

/** Every counter of a group, by name. */
class CounterValues : public StatVisitor
{
  public:
    void
    visitCounter(const StatGroup &, const std::string &name,
                 const Counter &counter) override
    {
        values[name] = counter.value();
    }
    void visitScalar(const StatGroup &, const std::string &,
                     const Scalar &) override {}
    void visitDistribution(const StatGroup &, const std::string &,
                           const Distribution &) override {}

    std::map<std::string, std::uint64_t> values;
};

/** One machine: memory, the OS on it, its process and hook log. */
struct Side
{
    explicit Side(const OsConfig &cfg)
        : mem(kSpan), accessor(mem),
          os(accessor, kSpan, {{0, kSpan}}, cfg),
          proc(os.createProcess())
    {
        // The log holds one call per leaf: the extent path reports a
        // window as one run, the per-page path page by page.
        os.setMappingHook([this](Process &, Addr va, Addr bytes,
                                 PageSize size, bool mapped) {
            const Addr step = pageBytes(size);
            for (Addr off = 0; off < bytes; off += step)
                hooks.push_back({va + off, step, size, mapped});
        });
    }

    mem::PhysMemory mem;
    mem::HostPhysAccessor accessor;
    GuestOs os;
    Process &proc;
    std::vector<HookCall> hooks;
};

/** The per-page reference: fault in every page of the range. */
void
populatePaged(Side &side, Addr va, Addr bytes)
{
    for (Addr page = alignDown(va, kPage4K); page < va + bytes;) {
        const FaultOutcome out = side.os.handleFault(side.proc, page);
        ASSERT_TRUE(out.ok);
        const Addr size = pageBytes(out.mappedSize);
        page = alignDown(page, size) + size;
    }
}

/** @p bytes without the trailing @p tail bytes. */
std::vector<std::uint8_t>
withoutTail(std::vector<std::uint8_t> bytes, std::size_t tail)
{
    bytes.resize(bytes.size() - tail);
    return bytes;
}

void
expectSame(Side &extent, Side &paged)
{
    // Free lists and allocator stats.
    EXPECT_EQ(test::ckptBytes(extent.os.frames().buddy()),
              test::ckptBytes(paged.os.frames().buddy()));
    // The OS up to its stats: RAM, allocator, page-table metadata
    // (every node address and live count), bad pages, unmovable set,
    // kernel pool order and the THP draw state.  The stats and the
    // pid follow.
    const std::size_t os_tail =
        test::ckptBytes(extent.os.stats()).size() + 4;
    EXPECT_EQ(withoutTail(test::ckptBytes(extent.os), os_tail),
              withoutTail(test::ckptBytes(paged.os), os_tail));
    // Every counter but the reference's own fault count.
    CounterValues extent_stats, paged_stats;
    extent.os.stats().visit(extent_stats);
    paged.os.stats().visit(paged_stats);
    extent_stats.values.erase("faults");
    paged_stats.values.erase("faults");
    EXPECT_EQ(extent_stats.values, paged_stats.values);
    // Page-table bytes: every resident frame.  The memory's own stats
    // (host reads) differ by design.
    const std::size_t mem_tail =
        test::ckptBytes(extent.mem.stats()).size();
    EXPECT_EQ(withoutTail(test::ckptBytes(extent.mem), mem_tail),
              withoutTail(test::ckptBytes(paged.mem), mem_tail));
    EXPECT_EQ(extent.hooks, paged.hooks);
}

/** A block taken from the allocator directly. */
struct Held
{
    Addr base;
    Addr bytes;
    bool range;  //!< From allocateRange: return with freeRange.
};

class PopulateTwinTest : public ::testing::TestWithParam<bool>
{
};

TEST_P(PopulateTwinTest, ExtentPathMatchesPerPageFaults)
{
    setQuietLogging(true);
    audit::setEnabled(true);
    audit::resetCounters();

    OsConfig cfg;
    cfg.thp = GetParam();
    Side extent(cfg), paged(cfg);
    Side *const sides[] = {&extent, &paged};

    struct RegionSpec
    {
        const char *name;
        Addr base;
        Addr bytes;
        PageSize size;
        bool primary;
    };
    // "heap" starts and ends off a 2M boundary; "next" shares its
    // last window.
    const RegionSpec regions[] = {
        {"heap", 1 * GiB + 2 * kPage4K, 40 * MiB + 3 * kPage4K,
         PageSize::Size4K, false},
        {"next", 1 * GiB + 40 * MiB + 5 * kPage4K, 3 * MiB,
         PageSize::Size4K, false},
        {"huge", 2 * GiB, 16 * MiB, PageSize::Size2M, false},
        {"seg", 3 * GiB, 8 * MiB, PageSize::Size4K, true},
    };
    for (Side *side : sides) {
        for (const auto &r : regions) {
            side->os.defineRegion(side->proc, r.name, r.base, r.bytes,
                                  r.size, r.primary);
        }
        ASSERT_TRUE(side->os.createGuestSegment(side->proc));
    }
    // Bad frames: two in the next data runs (populate must leave
    // those windows to the per-page path, which retires them), one
    // in the segment backing (an escape remap).
    std::vector<Addr> bad;
    for (const auto &run : extent.os.frames().buddy().nextRun(3000)) {
        for (Addr frame = run.start; frame < run.end; frame += kPage4K)
            bad.push_back(frame);
    }
    std::sort(bad.begin(), bad.end());
    const Addr run_bad[] = {bad[bad.size() - 700], bad[500]};
    const Addr seg_bad = extent.proc.guestSegment().translate(
        3 * GiB + 5 * kPage4K);
    for (Side *side : sides) {
        for (Addr frame : run_bad)
            side->mem.markBad(frame);
        side->mem.markBad(seg_bad);
    }
    expectSame(extent, paged);

    // Reach the bad frames before the random steps can take them.
    extent.os.populateRange(extent.proc, regions[0].base, 12 * MiB);
    populatePaged(paged, regions[0].base, 12 * MiB);
    extent.os.populateRange(extent.proc, 3 * GiB, 16 * kPage4K);
    populatePaged(paged, 3 * GiB, 16 * kPage4K);
    expectSame(extent, paged);

    Rng rng(GetParam() ? 77 : 76);
    std::vector<Held> held;
    Addr held_bytes = 0;
    for (int step = 0; step < 160; ++step) {
        SCOPED_TRACE("step " + std::to_string(step));
        const unsigned op = static_cast<unsigned>(rng.nextBelow(7));
        const bool can_take = held_bytes < 40 * MiB;
        if (op == 0 && can_take) {
            const unsigned order =
                static_cast<unsigned>(rng.nextBelow(4));
            auto a = extent.os.frames().buddy().allocate(order);
            auto b = paged.os.frames().buddy().allocate(order);
            ASSERT_EQ(a, b);
            ASSERT_TRUE(a.has_value());
            held.push_back({*a, kPage4K << order, false});
            held_bytes += kPage4K << order;
        } else if ((op == 1 || op == 2) && !held.empty()) {
            const std::size_t i = rng.nextBelow(held.size());
            const Held h = held[i];
            held[i] = held.back();
            held.pop_back();
            held_bytes -= h.bytes;
            for (Side *side : sides) {
                if (h.range || op == 2) {
                    side->os.frames().buddy().freeRange(h.base, h.bytes);
                } else {
                    side->os.frames().buddy().free(
                        h.base,
                        mem::BuddyAllocator::orderForBytes(h.bytes));
                }
            }
        } else if (op == 3 && can_take) {
            const Addr base = rng.nextBelow(kSpan / kPage4K) * kPage4K;
            const Addr bytes =
                std::min<Addr>((1 + rng.nextBelow(64)) * kPage4K,
                               kSpan - base);
            const bool a =
                extent.os.frames().buddy().allocateRange(base, bytes);
            const bool b =
                paged.os.frames().buddy().allocateRange(base, bytes);
            ASSERT_EQ(a, b);
            if (a) {
                held.push_back({base, bytes, true});
                held_bytes += bytes;
            }
        } else if (op == 4 && can_take) {
            const std::uint64_t frames = 1 + rng.nextBelow(1500);
            std::vector<Addr> run;
            ASSERT_TRUE(extent.os.frames().buddy().allocateRun(frames, run));
            for (Addr frame : run) {
                ASSERT_EQ(paged.os.frames().buddy().allocate(0), frame);
                held.push_back({frame, kPage4K, false});
            }
            held_bytes += frames * kPage4K;
        } else {
            const auto &r = regions[rng.nextBelow(std::size(regions))];
            const Addr start =
                r.base + rng.nextBelow(r.bytes / kPage4K) * kPage4K;
            const Addr bytes = std::min<Addr>(
                (1 + rng.nextBelow(6 * MiB / kPage4K)) * kPage4K,
                r.base + r.bytes - start);
            if (op == 6) {
                for (Side *side : sides)
                    side->os.unmapRange(side->proc, start, bytes);
            } else {
                extent.os.populateRange(extent.proc, start, bytes);
                populatePaged(paged, start, bytes);
            }
        }
        expectSame(extent, paged);
        if (::testing::Test::HasFailure())
            break;
    }
    // Every kind of page showed up.
    const auto &stats = extent.os.stats();
    EXPECT_GT(stats.counterValue("pages_mapped"), 0u);
    EXPECT_GT(stats.counterValue("segment_offset_maps"), 0u);
    EXPECT_GT(stats.counterValue("escape_remaps"), 0u);
    EXPECT_GT(stats.counterValue("bad_pages_retired"), 0u);
    if (GetParam()) {
        EXPECT_GT(stats.counterValue("thp_promotions"), 0u);
    } else {
        // The extent path ran: it reads far fewer table entries.
        EXPECT_LT(extent.mem.stats().counterValue("reads"),
                  paged.mem.stats().counterValue("reads"));
    }
    EXPECT_GT(audit::checkCount(), 0u);
    EXPECT_EQ(audit::failureCount(), 0u);
    audit::setEnabled(false);
    setQuietLogging(false);
}

INSTANTIATE_TEST_SUITE_P(Thp, PopulateTwinTest, ::testing::Bool());

} // namespace
} // namespace emv::os
