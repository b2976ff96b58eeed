/** @file
 * Machine-level page-size behaviour: the "4K/2M/1G" and "A+B"
 * configuration axes of Figures 11/12.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "sim/experiment.hh"

namespace emv::sim {
namespace {

using workload::WorkloadKind;

class PageSizeTestM : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        setQuietLogging(true);
        params.scale = 0.02;
        params.warmupOps = 5000;
        params.measureOps = 30000;
    }

    CellResult
    cell(const char *label)
    {
        return runCell({WorkloadKind::Gups, *specFromLabel(label),
                        params});
    }

    RunParams params;
};

TEST_F(PageSizeTestM, LargerNativePagesReduceOverhead)
{
    auto k4 = cell("4K");
    auto m2 = cell("2M");
    auto g1 = cell("1G");
    EXPECT_GT(k4.overhead(), m2.overhead());
    EXPECT_GE(m2.overhead(), g1.overhead() - 1e-9);
}

TEST_F(PageSizeTestM, GuestLargePagesMapAtRequestedGranule)
{
    auto wl = workload::makeWorkload(WorkloadKind::Gups,
                                     params.seed, params.scale);
    MachineConfig cfg = makeMachineConfig(*specFromLabel("2M"),
                                          params);
    Machine machine(cfg, *wl);
    // Sample the primary region's mappings.
    const auto *region = machine.process().primaryRegion();
    ASSERT_NE(region, nullptr);
    auto t = machine.process().pageTable().translate(region->base);
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->size, PageSize::Size2M);
}

TEST_F(PageSizeTestM, VmmLargePagesShortenNestedWalks)
{
    auto v44 = cell("4K+4K");
    auto v42 = cell("4K+2M");
    // Same guest behaviour; cheaper second dimension.
    EXPECT_LT(v42.run.cyclesPerWalk, v44.run.cyclesPerWalk);
    EXPECT_LT(v42.overhead(), v44.overhead());
}

TEST_F(PageSizeTestM, MixedGuestVmmSizesCompose)
{
    auto v21 = cell("2M+1G");
    auto v22 = cell("2M+2M");
    EXPECT_LE(v21.overhead(), v22.overhead() + 0.02);
    // Both beat guest-4K virtualized.
    auto v44 = cell("4K+4K");
    EXPECT_LT(v22.overhead(), v44.overhead());
}

TEST_F(PageSizeTestM, ThpApproximates2M)
{
    params.scale = 0.05;
    auto wl = workload::makeWorkload(WorkloadKind::Mcf, params.seed,
                                     params.scale);
    MachineConfig cfg = makeMachineConfig(*specFromLabel("THP"),
                                          params);
    Machine machine(cfg, *wl);
    machine.run(params.warmupOps);
    EXPECT_GT(machine.os().stats().counterValue("thp_promotions"),
              10u);
}

} // namespace
} // namespace emv::sim
