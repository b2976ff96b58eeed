/** @file
 * Property tests: the radix walk engine, in 1D and 2D, must agree
 * with software page-table composition under randomized mappings.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "paging/page_table.hh"
#include "paging/walker.hh"
#include "../test_support.hh"

namespace emv::paging {
namespace {

class WalkPropertyTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(WalkPropertyTest, WalkerMatchesTranslateOnRandomMappings)
{
    mem::PhysMemory mem(512 * MiB);
    test::BumpMemSpace space(mem, 256 * MiB);
    PageTable pt(space);
    Rng rng(GetParam());

    // Random mix of 4K and 2M mappings across a wide VA range.
    std::vector<Addr> mapped;
    for (int i = 0; i < 300; ++i) {
        if (rng.nextBool(0.2)) {
            const Addr va =
                alignDown(rng.nextBelow(1ull << 40), kPage2M);
            const Addr pa =
                alignDown(rng.nextBelow(128 * MiB), kPage2M);
            if (!pt.leafRangeOccupied(va, PageSize::Size2M)) {
                pt.map(va, pa, PageSize::Size2M);
                mapped.push_back(va);
            }
        } else {
            const Addr va =
                alignDown(rng.nextBelow(1ull << 40), kPage4K);
            const Addr pa =
                alignDown(rng.nextBelow(128 * MiB), kPage4K);
            if (!pt.leafRangeOccupied(va, PageSize::Size4K) &&
                !pt.translate(va)) {
                pt.map(va, pa, PageSize::Size4K);
                mapped.push_back(va);
            }
        }
    }

    tlb::WalkCache cache(8, 4);
    for (Addr va : mapped) {
        const Addr probe = va + rng.nextBelow(kPage4K);
        auto sw = pt.translate(probe);
        ASSERT_TRUE(sw.has_value());
        WalkTrace trace;
        auto hw = radixWalk(mem, pt.root(), probe, RefStage::NativeTable,
                            trace, &cache, hostResident);
        ASSERT_TRUE(hw.ok);
        ASSERT_EQ(hw.pa, sw->pa) << hexAddr(probe);
        ASSERT_EQ(hw.size, sw->size);
        ASSERT_LE(trace.refs.size(), 4u);
    }
}

TEST_P(WalkPropertyTest, NestedWalkEqualsComposition)
{
    mem::PhysMemory host(512 * MiB);
    test::BumpMemSpace host_space(host, 256 * MiB);
    PageTable nested(host_space);
    Rng rng(GetParam() ^ 0x5a5a);

    // Nested table: random permutation backing of gPA [0, 32M).
    std::vector<Addr> frames;
    for (Addr f = 0; f < 32 * MiB; f += kPage4K)
        frames.push_back(16 * MiB + f);
    for (std::size_t i = frames.size(); i > 1; --i)
        std::swap(frames[i - 1], frames[rng.nextBelow(i)]);
    for (Addr gpa = 0; gpa < 32 * MiB; gpa += kPage4K)
        nested.map(gpa, frames[gpa / kPage4K], PageSize::Size4K);

    // Guest table whose nodes live behind the nested mapping.
    test::NestedGpaSpace guest_space(host, nested, 16 * MiB);

    PageTable guest(guest_space);
    std::vector<std::pair<Addr, Addr>> pairs;
    for (int i = 0; i < 200; ++i) {
        const Addr va =
            alignDown(rng.nextBelow(1ull << 38), kPage4K);
        const Addr gpa =
            alignDown(rng.nextBelow(16 * MiB), kPage4K);
        if (!guest.translate(va)) {
            guest.map(va, gpa, PageSize::Size4K);
            pairs.emplace_back(va, gpa);
        }
    }

    for (const auto &[va, gpa] : pairs) {
        const Addr probe = va + rng.nextBelow(kPage4K);
        WalkTrace trace;
        auto hw = radixWalk(
            host, guest.root(), probe, RefStage::GuestTable, trace,
            nullptr, [&](Addr gpa) {
                return radixWalk(host, nested.root(), gpa,
                                 RefStage::NestedTable, trace, nullptr,
                                 hostResident);
            });
        ASSERT_TRUE(hw.ok);
        const Addr expect =
            nested.translate(gpa + (probe - va))->pa;
        ASSERT_EQ(hw.pa, expect) << hexAddr(probe);
        ASSERT_LE(trace.refs.size(), 24u);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WalkPropertyTest,
                         ::testing::Values(11, 22, 33));

} // namespace
} // namespace emv::paging
