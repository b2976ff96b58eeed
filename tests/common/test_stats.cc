/** @file Unit tests for the statistics registry. */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "../test_support.hh"

namespace emv {
namespace {

// Stat names are checked when they are compiled (StatName is
// consteval); stat_name_rejects_camel_case proves a bad literal does
// not build.
static_assert(StatName::valid("hits"));
static_assert(StatName::valid("vm_exits_nested_repair"));
static_assert(StatName::valid("vm.vm0"));
static_assert(!StatName::valid("BadCamelName"));
static_assert(!StatName::valid(""));
static_assert(!StatName::valid("1x"));
static_assert(!StatName::valid("a..b"));
static_assert(!StatName::valid("trailing."));

TEST(CounterTest, IncrementAndAdd)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    ++c;
    c += 10;
    EXPECT_EQ(c.value(), 11u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(ScalarTest, AccumulateAndSet)
{
    Scalar s;
    s += 1.5;
    s += 2.5;
    EXPECT_DOUBLE_EQ(s.value(), 4.0);
    s.set(7.0);
    EXPECT_DOUBLE_EQ(s.value(), 7.0);
}

TEST(DistributionTest, Moments)
{
    Distribution d;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        d.sample(v);
    EXPECT_EQ(d.count(), 8u);
    EXPECT_DOUBLE_EQ(d.mean(), 5.0);
    EXPECT_DOUBLE_EQ(d.min(), 2.0);
    EXPECT_DOUBLE_EQ(d.max(), 9.0);
    EXPECT_NEAR(d.stddev(), std::sqrt(32.0 / 7.0), 1e-9);
}

TEST(DistributionTest, EmptyIsZero)
{
    Distribution d;
    EXPECT_EQ(d.count(), 0u);
    EXPECT_DOUBLE_EQ(d.mean(), 0.0);
    EXPECT_DOUBLE_EQ(d.variance(), 0.0);
}

TEST(DistributionTest, PercentileEmptyIsZero)
{
    Distribution d;
    EXPECT_DOUBLE_EQ(d.percentile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(d.percentile(0.5), 0.0);
    EXPECT_DOUBLE_EQ(d.percentile(1.0), 0.0);
}

TEST(DistributionTest, PercentileSingleSampleClampsExact)
{
    // One sample: every quantile clamps to the observed value, so
    // the octave-midpoint approximation cannot surface at all.
    Distribution d;
    d.sample(100.0);
    EXPECT_DOUBLE_EQ(d.percentile(0.0), 100.0);
    EXPECT_DOUBLE_EQ(d.percentile(0.5), 100.0);
    EXPECT_DOUBLE_EQ(d.percentile(1.0), 100.0);
}

TEST(DistributionTest, PercentileClampsOutOfRangeP)
{
    Distribution d;
    for (double v : {2.0, 8.0, 32.0})
        d.sample(v);
    // p is clamped to [0, 1]; the extremes clamp to min and max.
    EXPECT_DOUBLE_EQ(d.percentile(-1.0), d.percentile(0.0));
    EXPECT_DOUBLE_EQ(d.percentile(2.0), d.percentile(1.0));
    EXPECT_DOUBLE_EQ(d.percentile(1.0), 32.0);
    EXPECT_GE(d.percentile(0.0), 2.0);
}

TEST(DistributionTest, PercentileWithinDocumentedOctaveBound)
{
    // The documented contract: the estimate is within a factor of 2
    // of a true sample value (one-octave buckets, geometric
    // midpoint representative).
    Distribution d;
    for (double v : {3.0, 5.0, 17.0, 33.0, 1000.0, 1025.0})
        d.sample(v);
    for (double p : {0.1, 0.5, 0.9, 0.99}) {
        const double estimate = d.percentile(p);
        EXPECT_GE(estimate, d.min());
        EXPECT_LE(estimate, d.max());
        // Some true sample lies within [estimate/2, estimate*2].
        bool bracketed = false;
        for (double v : {3.0, 5.0, 17.0, 33.0, 1000.0, 1025.0})
            bracketed |= v >= estimate / 2 && v <= estimate * 2;
        EXPECT_TRUE(bracketed) << "p=" << p << " est=" << estimate;
    }
}

TEST(DistributionTest, PercentileSubUnitSamplesUseBucketZero)
{
    // Everything below 1.0 lands in bucket 0 (representative 0.5,
    // clamped to the observed range).
    Distribution d;
    d.sample(0.1);
    d.sample(0.2);
    d.sample(0.9);
    const double p50 = d.percentile(0.5);
    EXPECT_GE(p50, 0.1);
    EXPECT_LE(p50, 0.9);
}

TEST(StatGroupTest, StableReferences)
{
    StatGroup group("g");
    Counter a{group, "a"};
    // Declaring more counters must not unbind earlier ones.  Stat
    // names are checked at compile time, so these are literals too.
    static constexpr StatName kMore[] = {
        "x0",  "x1",  "x2",  "x3",  "x4",  "x5",  "x6",  "x7",
        "x8",  "x9",  "x10", "x11", "x12", "x13", "x14", "x15",
        "x16", "x17", "x18", "x19", "x20", "x21", "x22", "x23",
    };
    std::vector<std::unique_ptr<Counter>> more;
    for (const StatName name : kMore)
        more.push_back(std::make_unique<Counter>(group, name));
    ++a;
    EXPECT_EQ(group.counterValue("a"), 1u);
    EXPECT_EQ(group.counterValue("x23"), 0u);
}

TEST(StatGroupTest, DeclaringANameTwicePanics)
{
    StatGroup group("g");
    Counter a{group, "a"};
    EXPECT_DEATH({ Scalar dup(group, "a"); }, "declared twice");
}

TEST(StatGroupTest, UnknownReadsZero)
{
    StatGroup group("g");
    EXPECT_EQ(group.counterValue("nope"), 0u);
    EXPECT_DOUBLE_EQ(group.scalarValue("nope"), 0.0);
}

/** One stat of each kind, declared the way components declare them. */
struct ThreeStats : StatGroup
{
    using StatGroup::StatGroup;
    Counter c{*this, "c"};
    Scalar s{*this, "s"};
    Distribution d{*this, "d"};
};

TEST(StatGroupTest, ResetAll)
{
    ThreeStats group("g");
    ++group.c;
    group.s += 2.0;
    group.d.sample(1.0);
    group.resetAll();
    EXPECT_EQ(group.counterValue("c"), 0u);
    EXPECT_DOUBLE_EQ(group.scalarValue("s"), 0.0);
    EXPECT_EQ(group.d.count(), 0u);
}

TEST(StatGroupTest, DumpFormat)
{
    ThreeStats group("mmu");
    group.c += 3;
    std::ostringstream os;
    group.dump(os);
    // Declared stats are listed from construction on, bumped or not.
    EXPECT_NE(os.str().find("mmu.c 3\nmmu.s 0\nmmu.d.count 0\n"),
              std::string::npos);
}

TEST(StatGroupTest, CopyValuesCopiesEveryKind)
{
    ThreeStats a("a");
    a.c += 5;
    a.s += 1.5;
    a.d.sample(4.0);
    ThreeStats b("b");
    b.copyValues(a);
    EXPECT_EQ(b.name(), "a");
    EXPECT_EQ(b.counterValue("c"), 5u);
    EXPECT_DOUBLE_EQ(b.scalarValue("s"), 1.5);
    EXPECT_EQ(b.d.count(), 1u);
    ++b.c;  // b's stats stay its own.
    EXPECT_EQ(a.counterValue("c"), 5u);
}

TEST(Confidence95Test, EmptyAndSingle)
{
    EXPECT_DOUBLE_EQ(confidence95({}).mean, 0.0);
    auto ci = confidence95({5.0});
    EXPECT_DOUBLE_EQ(ci.mean, 5.0);
    EXPECT_DOUBLE_EQ(ci.halfWidth, 0.0);
}

TEST(Confidence95Test, ConstantSamplesHaveZeroWidth)
{
    auto ci = confidence95({3.0, 3.0, 3.0, 3.0});
    EXPECT_DOUBLE_EQ(ci.mean, 3.0);
    EXPECT_DOUBLE_EQ(ci.halfWidth, 0.0);
}

TEST(Confidence95Test, KnownTwoSample)
{
    // mean 1.5, sd = sqrt(0.5), sem = 0.5, t(1 df) = 12.706.
    auto ci = confidence95({1.0, 2.0});
    EXPECT_DOUBLE_EQ(ci.mean, 1.5);
    EXPECT_NEAR(ci.halfWidth, 12.706 * 0.5, 1e-6);
}

TEST(Confidence95Test, WidthShrinksWithSamples)
{
    std::vector<double> few, many;
    for (int i = 0; i < 5; ++i)
        few.push_back(i % 2 ? 1.0 : 2.0);
    for (int i = 0; i < 30; ++i)
        many.push_back(i % 2 ? 1.0 : 2.0);
    EXPECT_GT(confidence95(few).halfWidth,
              confidence95(many).halfWidth);
}

TEST(DistributionTest, CheckpointRoundTrip)
{
    Distribution d;
    for (double v : {2.0, 4.0, 9.0})
        d.sample(v);
    const auto bytes = test::ckptBytes(d);
    Distribution r;
    ASSERT_TRUE(test::ckptRestore(bytes, r));
    EXPECT_EQ(test::ckptBytes(r), bytes);
    EXPECT_EQ(r.count(), 3u);
    EXPECT_DOUBLE_EQ(r.mean(), 5.0);
    EXPECT_DOUBLE_EQ(r.min(), 2.0);
    EXPECT_DOUBLE_EQ(r.max(), 9.0);
}

TEST(StatGroupTest, CheckpointRoundTripRebuildsByName)
{
    ThreeStats g("ckpt_src");
    g.c += 7;
    g.s += 1.25;
    g.d.sample(3.0);
    const auto bytes = test::ckptBytes(g);
    ThreeStats r("ckpt_src");
    ASSERT_TRUE(test::ckptRestore(bytes, r));
    EXPECT_EQ(test::ckptBytes(r), bytes);
    EXPECT_EQ(r.counterValue("c"), 7u);
    EXPECT_DOUBLE_EQ(r.scalarValue("s"), 1.25);
    EXPECT_EQ(r.d.count(), 1u);
}

TEST(StatGroupTest, CheckpointRestoreResetsStaleStats)
{
    StatGroup g("ckpt_reset");
    Counter hits{g, "hits"};
    hits += 3;
    StatGroup r("ckpt_reset");
    Counter restored_hits{r, "hits"};
    Counter stale{r, "stale"};
    stale += 99;
    ASSERT_TRUE(test::ckptRestore(test::ckptBytes(g), r));
    // Restore resets the whole group before restoring by name.
    EXPECT_EQ(restored_hits.value(), 3u);
    EXPECT_EQ(stale.value(), 0u);
}

} // namespace
} // namespace emv
