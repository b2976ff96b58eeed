/** @file Hierarchical names and emv-stats-v1 JSON export tests. */

#include <gtest/gtest.h>

#include <sstream>

#include "common/json.hh"
#include "common/stat_export.hh"
#include "common/stats.hh"

namespace emv {
namespace {

TEST(StatExportTest, ParentPrefixFormsHierarchicalNames)
{
    StatGroup machine("machine");
    StatGroup mmu("mmu");
    mmu.setParent("machine");
    EXPECT_EQ(mmu.fullName(), "machine.mmu");

    StatGroup tlb("l1tlb4k");
    tlb.setParent(&mmu);
    EXPECT_EQ(tlb.fullName(), "machine.mmu.l1tlb4k");

    // Reparenting an ancestor renames the whole subtree.
    mmu.setParent("box0");
    EXPECT_EQ(mmu.fullName(), "box0.mmu");
    EXPECT_EQ(tlb.fullName(), "box0.mmu.l1tlb4k");
    EXPECT_EQ(machine.fullName(), "machine");
}

TEST(StatExportTest, GroupsExportInFullNameOrder)
{
    StatGroup os_group("os");
    os_group.setParent("machine");
    StatGroup mmu("mmu");
    mmu.setParent("machine");
    StatGroup tlb("l1tlb4k");
    tlb.setParent(&mmu);

    std::ostringstream out;
    exportStatsJson(out, {&tlb, &os_group, &mmu});
    json::Value root;
    ASSERT_TRUE(json::parse(out.str(), root));
    const auto &groups = root.find("groups")->array;
    ASSERT_EQ(groups.size(), 3u);
    EXPECT_EQ(groups[0].find("name")->string, "machine.mmu");
    EXPECT_EQ(groups[1].find("name")->string, "machine.mmu.l1tlb4k");
    EXPECT_EQ(groups[2].find("name")->string, "machine.os");
}

TEST(StatExportTest, JsonRoundTripsCountersAndScalars)
{
    StatGroup g("mmu");
    g.setParent("machine");
    Counter l1_misses{g, "l1_misses"};
    Counter walks{g, "walks"};
    Scalar walk_cycles{g, "walk_cycles"};
    l1_misses += 42;
    walks += 7;
    walk_cycles += 123.5;

    std::ostringstream os;
    exportStatsJson(os, {&g});

    json::Value root;
    ASSERT_TRUE(json::parse(os.str(), root));
    const json::Value *schema = root.find("schema");
    ASSERT_NE(schema, nullptr);
    EXPECT_EQ(schema->string, "emv-stats-v1");

    const json::Value *groups = root.find("groups");
    ASSERT_NE(groups, nullptr);
    ASSERT_TRUE(groups->isArray());
    ASSERT_EQ(groups->array.size(), 1u);

    const json::Value &entry = groups->array[0];
    EXPECT_EQ(entry.find("name")->string, "machine.mmu");

    const json::Value *counters = entry.find("counters");
    ASSERT_NE(counters, nullptr);
    // Parsed values must agree with the group's own accessors.
    EXPECT_EQ(counters->find("l1_misses")->number,
              static_cast<double>(g.counterValue("l1_misses")));
    EXPECT_EQ(counters->find("walks")->number,
              static_cast<double>(g.counterValue("walks")));
    EXPECT_DOUBLE_EQ(
        entry.find("scalars")->find("walk_cycles")->number,
        g.scalarValue("walk_cycles"));
}

TEST(StatExportTest, JsonCarriesDistributionSummary)
{
    StatGroup g("walkstats");
    Distribution d{g, "cycles_per_walk"};
    for (double v : {10.0, 20.0, 30.0, 40.0})
        d.sample(v);

    std::ostringstream os;
    exportStatsJson(os, {&g});

    json::Value root;
    ASSERT_TRUE(json::parse(os.str(), root));
    const json::Value &entry = root.find("groups")->array[0];
    const json::Value *dist =
        entry.find("distributions")->find("cycles_per_walk");
    ASSERT_NE(dist, nullptr);
    EXPECT_EQ(dist->find("count")->number, 4.0);
    EXPECT_DOUBLE_EQ(dist->find("mean")->number, 25.0);
    EXPECT_EQ(dist->find("min")->number, 10.0);
    EXPECT_EQ(dist->find("max")->number, 40.0);
    EXPECT_GE(dist->find("p99")->number, dist->find("p50")->number);
}

TEST(StatExportTest, DuplicateGroupNamesBothExported)
{
    // Two PSCs both named "walkcache" must not collide: groups are
    // an array, not a name-keyed object.
    StatGroup a("walkcache");
    StatGroup b("walkcache");
    Counter a_hits{a, "hits"};
    Counter b_hits{b, "hits"};
    a_hits += 1;
    b_hits += 2;

    std::ostringstream os;
    exportStatsJson(os, {&a, &b});

    json::Value root;
    ASSERT_TRUE(json::parse(os.str(), root));
    EXPECT_EQ(root.find("groups")->array.size(), 2u);
}

TEST(DistributionTest, PercentilesTrackPowerOfTwoBuckets)
{
    Distribution d;
    for (int i = 0; i < 99; ++i)
        d.sample(16.0);  // Bucket [16, 32).
    d.sample(1024.0);    // Far-tail outlier.

    const double p50 = d.percentile(0.5);
    EXPECT_GE(p50, 16.0);
    EXPECT_LT(p50, 32.0);
    // The outlier only surfaces at the very top.
    EXPECT_DOUBLE_EQ(d.percentile(1.0), 1024.0);
    EXPECT_LT(d.percentile(0.9), 1024.0);
    // Clamped to observed extremes.
    EXPECT_GE(d.percentile(0.0), d.min());
    EXPECT_LE(d.percentile(1.0), d.max());
}

TEST(DistributionTest, DumpIncludesDistributionStats)
{
    StatGroup g("grp");
    Distribution d{g, "lat"};
    d.sample(2.0);
    d.sample(6.0);

    std::ostringstream os;
    g.dump(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("grp.lat.count 2"), std::string::npos);
    EXPECT_NE(text.find("grp.lat.mean 4"), std::string::npos);
    EXPECT_NE(text.find("grp.lat.min 2"), std::string::npos);
    EXPECT_NE(text.find("grp.lat.max 6"), std::string::npos);
}

} // namespace
} // namespace emv
