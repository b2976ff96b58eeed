/** @file Registry, hierarchy and JSON/CSV export tests. */

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <sstream>
#include <thread>

#include "common/json.hh"
#include "common/stat_registry.hh"
#include "common/stats.hh"

namespace emv {
namespace {

/** Registry entries for exactly the given groups, sorted by name. */
std::vector<const StatGroup *>
only(std::initializer_list<const StatGroup *> groups)
{
    return std::vector<const StatGroup *>(groups);
}

TEST(StatRegistryTest, GroupsAutoRegisterAndDeregister)
{
    const std::size_t before = StatRegistry::instance().size();
    {
        StatGroup g("transient");
        EXPECT_EQ(StatRegistry::instance().size(), before + 1);
    }
    EXPECT_EQ(StatRegistry::instance().size(), before);
}

TEST(StatRegistryTest, ParentPrefixFormsHierarchicalNames)
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
    EXPECT_EQ(tlb.fullName(), "box0.mmu.l1tlb4k");

    auto under = StatRegistry::instance().groupsUnder("box0.mmu");
    ASSERT_EQ(under.size(), 2u);
    EXPECT_EQ(under[0]->fullName(), "box0.mmu");
    EXPECT_EQ(under[1]->fullName(), "box0.mmu.l1tlb4k");
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
    exportStatsJson(os, only({&g}));

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
    exportStatsJson(os, only({&g}));

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
    exportStatsJson(os, only({&a, &b}));

    json::Value root;
    ASSERT_TRUE(json::parse(os.str(), root));
    EXPECT_EQ(root.find("groups")->array.size(), 2u);
}

TEST(StatExportTest, CsvHasHeaderAndOneRowPerStat)
{
    StatGroup g("os");
    Counter major_faults{g, "major_faults"};
    Scalar resident_bytes{g, "resident_bytes"};
    major_faults += 3;
    resident_bytes += 4096.0;

    std::ostringstream os;
    exportStatsCsv(os, only({&g}));
    std::istringstream lines(os.str());
    std::string line;
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_EQ(line, "group,stat,kind,value");
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_EQ(line, "os,major_faults,counter,3");
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_EQ(line.substr(0, 26), "os,resident_bytes,scalar,4");
}

TEST(StatRegistryTest, VisitorsMayReenterTheRegistry)
{
    // Locking-contract regression (stat_registry.hh): visitAll()
    // snapshots the entry list and releases the registry lock before
    // visiting, so a visitor that re-enters the registry — creating
    // and destroying a StatGroup, or querying size() — must not
    // deadlock.  With a lock held across the callback this test
    // would hang (and the thread-safety analysis would reject the
    // code).
    struct ReentrantVisitor : StatVisitor
    {
        std::size_t counters = 0;

        void
        visitCounter(const StatGroup &, const std::string &,
                     const Counter &) override
        {
            ++counters;
            StatGroup transient("reentrant_transient");
            Counter touch{transient, "touch"};
            touch += 1;
            EXPECT_GT(StatRegistry::instance().size(), 0u);
        }
        void visitScalar(const StatGroup &, const std::string &,
                         const Scalar &) override {}
        void visitDistribution(const StatGroup &, const std::string &,
                               const Distribution &) override {}
    };

    StatGroup g("reentry_host");
    Counter a{g, "a"};
    Counter b{g, "b"};
    a += 1;
    b += 2;
    ReentrantVisitor visitor;
    StatRegistry::instance().visitAll(visitor);
    EXPECT_GE(visitor.counters, 2u);
}

TEST(StatRegistryTest, ConcurrentRegistrationIsRaceFree)
{
    // The threads=N lifecycle: worker threads construct and destroy
    // whole StatGroup populations concurrently (machines are built
    // in-thread) while other threads read the registry.  Run under
    // the tsan preset this doubles as a data-race check on the
    // add/remove/groups()/size() paths.
    const std::size_t before = StatRegistry::instance().size();
    constexpr unsigned kThreads = 4;
    constexpr unsigned kRounds = 50;

    std::atomic<bool> go{false};
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < kThreads; ++t) {
        workers.emplace_back([&go, t] {
            while (!go.load(std::memory_order_acquire)) {}
            for (unsigned round = 0; round < kRounds; ++round) {
                StatGroup parent(
                    "mt_parent" + std::to_string(t));
                StatGroup child("mt_child");
                child.setParent(&parent);
                Counter ops{child, "ops"};
                ops += round;
                // Reads interleave with other threads' add/remove;
                // the snapshot just has to be internally
                // consistent, never a crash or a race.
                const auto groups =
                    StatRegistry::instance().groups();
                EXPECT_GE(groups.size(), 2u);
                EXPECT_GE(StatRegistry::instance().size(), 2u);
            }
        });
    }
    go.store(true, std::memory_order_release);
    for (auto &worker : workers)
        worker.join();
    EXPECT_EQ(StatRegistry::instance().size(), before);
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
