/** @file Unit tests for the escape filter (§V, §IX.C). */

#include <gtest/gtest.h>

#include "common/audit.hh"
#include "common/ckpt.hh"
#include "common/rng.hh"
#include "segment/escape_filter.hh"
#include "../test_support.hh"

namespace emv::segment {
namespace {

TEST(EscapeFilterTest, EmptyFilterContainsNothing)
{
    EscapeFilter filter;
    EXPECT_FALSE(filter.mayContain(0x1000));
    EXPECT_EQ(filter.insertedPages(), 0u);
    EXPECT_EQ(filter.popcount(), 0u);
}

TEST(EscapeFilterTest, NoFalseNegatives)
{
    // Bloom filters may lie positively, never negatively.
    EscapeFilter filter;
    Rng rng(3);
    std::vector<Addr> pages;
    for (int i = 0; i < 16; ++i)
        pages.push_back(rng.nextBelow(1ull << 40) << 12);
    for (Addr page : pages)
        filter.insertPage(page);
    for (Addr page : pages) {
        EXPECT_TRUE(filter.mayContain(page));
        EXPECT_TRUE(filter.mayContain(page + 0xabc));  // Same page.
    }
}

TEST(EscapeFilterTest, InsertRunsTheAuditChecksWhenEnabled)
{
    audit::setEnabled(true);
    audit::resetCounters();
    EscapeFilter filter;
    Rng rng(7);
    for (int i = 0; i < 16; ++i)
        filter.insertPage(rng.nextBelow(1ull << 40) << 12);
    audit::setEnabled(false);
    // Each insert re-proves no-false-negative and the popcount bound.
    EXPECT_EQ(audit::checkCount(), 32u);
    EXPECT_EQ(audit::failureCount(), 0u);
}

TEST(EscapeFilterTest, PaperGeometryDefaults)
{
    EscapeFilter filter;
    EXPECT_EQ(filter.sizeBits(), 256u);
    EXPECT_EQ(filter.numHashes(), 4u);
}

TEST(EscapeFilterTest, SixteenFaultsKeepLowFalsePositives)
{
    // §IX.C: 256 bits / 4 hashes tolerates 16 faulty pages with
    // near-zero false-positive impact.
    EscapeFilter filter(256, 4, 0x1234);
    Rng rng(17);
    for (int i = 0; i < 16; ++i)
        filter.insertPage(rng.nextBelow(1ull << 36) << 12);

    std::uint64_t false_positives = 0;
    const std::uint64_t probes = 100000;
    for (std::uint64_t i = 0; i < probes; ++i) {
        // Fresh pages not in the inserted set (different range).
        const Addr page = ((1ull << 40) + i) << 12;
        false_positives += filter.mayContain(page) ? 1 : 0;
    }
    const double rate = static_cast<double>(false_positives) /
                        static_cast<double>(probes);
    // Analytic rate for n=16, m=256, k=4 is ~0.24%; allow slack.
    EXPECT_LT(rate, 0.02);
    EXPECT_NEAR(rate, filter.expectedFalsePositiveRate(), 0.01);
}

/** The filter's bit words, read back through its checkpoint form. */
std::vector<std::uint64_t>
filterWords(const EscapeFilter &filter)
{
    ckpt::Encoder enc;
    ckpt::save(enc, filter);
    ckpt::Decoder dec(enc.buffer().data(), enc.buffer().size());
    dec.u32();  // Size in bits.
    dec.u32();  // Inserted pages.
    std::vector<std::uint64_t> words(dec.u64());
    for (auto &w : words)
        w = dec.u64();
    EXPECT_TRUE(dec.ok());
    return words;
}

TEST(EscapeFilterTest, GoldenWordsAfterSixteenInserts)
{
    // Captured from the bit-serial H3 implementation.  Every filter
    // bit decides whether a page escapes, so the words (and the
    // positives count of a fixed probe sweep) must never change.
    std::uint64_t sm = 2014;
    std::vector<Addr> pages;
    for (int i = 0; i < 16; ++i)
        pages.push_back((splitMix64(sm) & ((1ull << 40) - 1)) << 12);
    EXPECT_EQ(pages.front(), 0xd42ade5404000ull);
    EXPECT_EQ(pages.back(), 0x5d713dd636000ull);

    // Default construction, and the Mmu's VMM and guest filters
    // (MmuConfig's default filterSeed; the guest filter uses
    // seed ^ 0x9e3779b9).
    const std::uint64_t mmu_seed = 0x5eedf117e2ull;
    EscapeFilter deflt, vmm(256, 4, mmu_seed),
        guest(256, 4, mmu_seed ^ 0x9e3779b9ull);
    for (Addr page : pages) {
        deflt.insertPage(page);
        vmm.insertPage(page);
        guest.insertPage(page);
    }
    EXPECT_EQ(filterWords(deflt),
              (std::vector<std::uint64_t>{
                  0x900a20028010e150ull, 0x1202224544008050ull,
                  0x2e98100022005c70ull, 0x0104401824880c92ull}));
    EXPECT_EQ(filterWords(vmm),
              (std::vector<std::uint64_t>{
                  0x148015e0000000e9ull, 0x4a81021482d00186ull,
                  0x0a16000210001a84ull, 0x083802940410468aull}));
    EXPECT_EQ(filterWords(guest),
              (std::vector<std::uint64_t>{
                  0x49a60b4510049011ull, 0x4020046080424108ull,
                  0x208002260d031121ull, 0x05009c1440012200ull}));

    const std::uint64_t positives_before =
        guest.stats().counterValue("positives");
    std::uint64_t probe = 7;
    unsigned hits = 0;
    for (int i = 0; i < 100000; ++i) {
        hits += guest.mayContain(
                    (splitMix64(probe) & ((1ull << 40) - 1)) << 12)
                    ? 1
                    : 0;
    }
    EXPECT_EQ(hits, 234u);
    EXPECT_EQ(guest.stats().counterValue("positives") - positives_before,
              234u);
}

TEST(EscapeFilterTest, ClearEmptiesFilter)
{
    EscapeFilter filter;
    filter.insertPage(0x5000);
    filter.clear();
    EXPECT_FALSE(filter.mayContain(0x5000));
    EXPECT_EQ(filter.popcount(), 0u);
    EXPECT_EQ(filter.insertedPages(), 0u);
}

TEST(EscapeFilterTest, PopcountBoundedByHashesTimesInserts)
{
    EscapeFilter filter;
    for (int i = 0; i < 8; ++i)
        filter.insertPage(static_cast<Addr>(i) << 12);
    EXPECT_LE(filter.popcount(), 8u * 4u);
    EXPECT_GE(filter.popcount(), 4u);  // At least one insert's bits.
}

TEST(EscapeFilterTest, ExpectedRateGrowsWithInserts)
{
    EscapeFilter filter;
    double last = filter.expectedFalsePositiveRate();
    for (int i = 0; i < 64; ++i) {
        filter.insertPage(static_cast<Addr>(i * 7 + 1) << 12);
        const double rate = filter.expectedFalsePositiveRate();
        EXPECT_GE(rate, last);
        last = rate;
    }
    EXPECT_GT(last, 0.1);  // Saturating filter becomes useless.
}

TEST(EscapeFilterTest, FillRatioTracksPopcount)
{
    EscapeFilter filter;
    EXPECT_DOUBLE_EQ(filter.fillRatio(), 0.0);
    EXPECT_FALSE(filter.saturated(0.5));

    filter.insertPage(0x1000);
    EXPECT_DOUBLE_EQ(filter.fillRatio(),
                     static_cast<double>(filter.popcount()) /
                         static_cast<double>(filter.sizeBits()));

    filter.clear();
    EXPECT_DOUBLE_EQ(filter.fillRatio(), 0.0);
}

TEST(EscapeFilterTest, SaturationCrossesTheFillBound)
{
    // Flood towards the popcount bound the way an injected
    // filter-saturation fault does; the no-false-negative invariant
    // must hold the whole way (checked by the audit layer), and the
    // saturated() predicate must flip exactly when fillRatio()
    // crosses the configured bound — the trigger for a Table III
    // mode downgrade.
    audit::setEnabled(true);
    audit::resetCounters();

    EscapeFilter filter;
    Rng rng(29);
    std::vector<Addr> pages;
    bool was_saturated = filter.saturated(0.5);
    EXPECT_FALSE(was_saturated);
    for (unsigned i = 0; i < filter.sizeBits() && !was_saturated;
         ++i) {
        const Addr page = rng.nextBelow(1ull << 36) << 12;
        filter.insertPage(page);
        pages.push_back(page);
        was_saturated = filter.saturated(0.5);
        EXPECT_EQ(was_saturated, filter.fillRatio() >= 0.5);
    }
    EXPECT_TRUE(was_saturated);
    // 4 hashes set at most 4 bits per insert: 256 * 0.5 / 4 = 32
    // inserts minimum before half the bits can be lit.
    EXPECT_GE(pages.size(), filter.sizeBits() / 2 /
                                filter.numHashes());

    // Saturated or not, a Bloom filter never forgets an insert.
    for (Addr page : pages)
        EXPECT_TRUE(filter.mayContain(page));

    audit::setEnabled(false);
    EXPECT_GT(audit::checkCount(), 0u);
    EXPECT_EQ(audit::failureCount(), 0u);
}

/** Property sweep over filter geometries (ablation backing). */
class FilterGeometryTest
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
};

TEST_P(FilterGeometryTest, MeasuredRateTracksAnalytic)
{
    const auto [bits, hashes] = GetParam();
    EscapeFilter filter(bits, hashes, 0xfeed);
    Rng rng(23);
    for (int i = 0; i < 16; ++i)
        filter.insertPage(rng.nextBelow(1ull << 36) << 12);

    std::uint64_t fp = 0;
    const std::uint64_t probes = 50000;
    for (std::uint64_t i = 0; i < probes; ++i)
        fp += filter.mayContain(((1ull << 41) + i) << 12) ? 1 : 0;
    const double measured =
        static_cast<double>(fp) / static_cast<double>(probes);
    const double analytic = filter.expectedFalsePositiveRate();
    EXPECT_NEAR(measured, analytic, 0.05 + analytic * 0.5);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, FilterGeometryTest,
    ::testing::Values(std::make_tuple(64u, 2u),
                      std::make_tuple(128u, 2u),
                      std::make_tuple(256u, 4u),
                      std::make_tuple(512u, 4u),
                      std::make_tuple(1024u, 4u)));

TEST(EscapeFilterDeathTest, BadGeometryPanics)
{
    EXPECT_DEATH(EscapeFilter(100, 4), "power of two");
    EXPECT_DEATH(EscapeFilter(256, 0), ">= 1 hash");
}

TEST(EscapeFilterTest, CheckpointRoundTripPreservesBits)
{
    EscapeFilter a;
    Rng rng(5);
    std::vector<Addr> pages;
    for (int i = 0; i < 12; ++i)
        pages.push_back(rng.nextBelow(1ull << 40) << 12);
    for (Addr page : pages)
        a.insertPage(page);
    const auto bytes = test::ckptBytes(a);

    EscapeFilter b;
    ASSERT_TRUE(test::ckptRestore(bytes, b));
    EXPECT_EQ(test::ckptBytes(b), bytes);
    EXPECT_EQ(b.insertedPages(), a.insertedPages());
    EXPECT_EQ(b.popcount(), a.popcount());
    for (Addr page : pages)
        EXPECT_TRUE(b.mayContain(page));
}

TEST(EscapeFilterTest, CheckpointRejectsGeometryMismatch)
{
    EscapeFilter a(256, 2);
    EscapeFilter b(512, 2);
    EXPECT_FALSE(test::ckptRestore(test::ckptBytes(a), b));
}

} // namespace
} // namespace emv::segment
