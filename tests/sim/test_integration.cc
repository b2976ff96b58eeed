/** @file
 * Integration tests: paper-level claims exercised end to end on
 * scaled-down machines (Table I categories, §VIII cost structure,
 * Fig. 13 flatness, Table III transitions, §IX.D shadow split).
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "core/linear_model.hh"
#include "sim/experiment.hh"

namespace emv::sim {
namespace {

using core::Mode;
using workload::WorkloadKind;

class IntegrationTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        setQuietLogging(true);
        params.scale = 0.02;
        params.warmupOps = 5000;
        params.measureOps = 40000;
    }

    CellResult
    cell(WorkloadKind kind, const char *label)
    {
        return runCell({kind, *specFromLabel(label), params});
    }

    RunParams params;
};

TEST_F(IntegrationTest, PaperHeadlineOrdering)
{
    // DD ≈ DS ≈ 0 < GD ≈ VD ≈ native-4K < base virtualized.
    auto n4k = cell(WorkloadKind::Gups, "4K");
    auto ds = cell(WorkloadKind::Gups, "DS");
    auto bv = cell(WorkloadKind::Gups, "4K+4K");
    auto vd = cell(WorkloadKind::Gups, "4K+VD");
    auto gd = cell(WorkloadKind::Gups, "4K+GD");
    auto dd = cell(WorkloadKind::Gups, "DD");

    EXPECT_LT(ds.overhead(), 0.02);
    EXPECT_LT(dd.overhead(), 0.02);
    EXPECT_GT(bv.overhead(), 1.5 * n4k.overhead());
    EXPECT_LT(vd.overhead(), 1.4 * n4k.overhead() + 0.02);
    EXPECT_LT(gd.overhead(), 1.3 * n4k.overhead() + 0.02);
}

TEST_F(IntegrationTest, LargePagesReduceButDontEliminateOverhead)
{
    // §VIII observation 2: 2M pages shrink virtualization overhead
    // but stay above native 2M.
    auto n2m = cell(WorkloadKind::Gups, "2M");
    auto v44 = cell(WorkloadKind::Gups, "4K+4K");
    auto v42 = cell(WorkloadKind::Gups, "4K+2M");
    auto v22 = cell(WorkloadKind::Gups, "2M+2M");
    EXPECT_LT(v42.overhead(), v44.overhead());
    EXPECT_LT(v22.overhead(), v42.overhead());
    // At full scale 2M+2M stays clearly above native 2M (Fig. 11);
    // at test scale the gap can close to zero but never invert.
    EXPECT_GE(v22.overhead(), n2m.overhead() - 1e-9);
}

TEST_F(IntegrationTest, MissInflationUnderVirtualization)
{
    // §IX.A: nested entries share the L2, inflating miss counts
    // 1.3-1.6x for big-memory workloads.  The effect is strongest
    // when the native L2 hit rate is meaningful, so probe at a
    // scale where the hot set is L2-sized.
    params.scale = 0.01;
    params.measureOps = 80000;
    auto native = cell(WorkloadKind::NpbCg, "4K");
    auto virt = cell(WorkloadKind::NpbCg, "4K+4K");
    const double inflation =
        static_cast<double>(virt.run.l2Misses) /
        static_cast<double>(native.run.l2Misses);
    EXPECT_GT(inflation, 1.1);
    EXPECT_LT(inflation, 2.5);
}

TEST_F(IntegrationTest, CyclesPerMissGrowUnderVirtualization)
{
    // §IX.A: ~2.4x average growth in cycles per miss for 4K+4K.
    auto native = cell(WorkloadKind::NpbCg, "4K");
    auto virt = cell(WorkloadKind::NpbCg, "4K+4K");
    const double ratio =
        virt.run.cyclesPerWalk / native.run.cyclesPerWalk;
    EXPECT_GT(ratio, 1.5);
    EXPECT_LT(ratio, 6.0);  // Bounded by the 24/4 worst case.
}

TEST_F(IntegrationTest, VmmAndGuestDirectCyclesNearNative)
{
    // §IX.A: VD misses cost ~13% more than native, GD ~3%.
    auto native = cell(WorkloadKind::Gups, "4K");
    auto vd = cell(WorkloadKind::Gups, "4K+VD");
    auto gd = cell(WorkloadKind::Gups, "4K+GD");
    EXPECT_LT(vd.run.cyclesPerWalk,
              native.run.cyclesPerWalk * 1.35);
    EXPECT_LT(gd.run.cyclesPerWalk,
              native.run.cyclesPerWalk * 1.25);
}

TEST_F(IntegrationTest, DualDirectEliminatesL2Misses)
{
    // §IX.A: DD removes ~99.9% of L2 TLB misses.
    auto bv = cell(WorkloadKind::Gups, "4K+4K");
    auto dd = cell(WorkloadKind::Gups, "DD");
    EXPECT_LT(static_cast<double>(dd.run.l2Misses),
              0.05 * static_cast<double>(bv.run.l2Misses));
}

TEST_F(IntegrationTest, EscapeFilterKeepsDualDirectFlat)
{
    // Fig. 13: 1-16 bad pages cost almost nothing.
    auto clean = cell(WorkloadKind::Gups, "DD");
    params.badFrames = 16;
    params.badFrameSeed = 7;
    auto faulty = cell(WorkloadKind::Gups, "DD");
    EXPECT_LT(faulty.overhead() - clean.overhead(), 0.01);
}

TEST_F(IntegrationTest, ShadowPagingSplit)
{
    // §IX.D: churny workloads suffer under shadow paging; static
    // ones do not.
    params.measureOps = 250000;
    params.warmupOps = 20000;
    auto churn_shadow = cell(WorkloadKind::Omnetpp, "sh4K");
    auto churn_nested = cell(WorkloadKind::Omnetpp, "4K+4K");

    // Shadow pays exits for churn on top of translation costs.
    EXPECT_GT(churn_shadow.run.vmExitCycles, 0.0);

    // A static workload's shadow run has negligible exit costs.
    auto static_shadow = cell(WorkloadKind::Canneal, "sh4K");
    EXPECT_LT(static_shadow.run.vmExitCycles,
              0.01 * static_shadow.run.baseCycles);
    // And shadow walks are 1D — cheaper per miss than 2D nested.
    EXPECT_LT(static_shadow.run.cyclesPerWalk,
              churn_nested.run.cyclesPerWalk);
}

TEST_F(IntegrationTest, TableIIIGuestFragmentationFlow)
{
    // "Guest physical memory fragmented" row: self-balloon, then
    // Dual Direct performance.
    auto wl = workload::makeWorkload(WorkloadKind::Gups, 42,
                                     params.scale);
    MachineConfig cfg = makeMachineConfig(*specFromLabel("DD"),
                                          params);
    cfg.guestFragmentation.enabled = true;
    cfg.guestFragmentation.maxRunBytes = 8 * MiB;
    cfg.extensionReserve = 512 * MiB;
    Machine machine(cfg, *wl);
    ASSERT_FALSE(machine.guestSegment().enabled());

    ASSERT_TRUE(machine.selfBalloonGuestSegment());
    machine.run(params.warmupOps);
    machine.resetStats();
    auto run = machine.run(params.measureOps);
    EXPECT_LT(run.translationOverhead(), 0.05);
}

TEST_F(IntegrationTest, TableIIIHostFragmentationFlow)
{
    // "Host physical memory fragmented" row: start Guest Direct,
    // compact the host, convert to Dual Direct.
    auto wl = workload::makeWorkload(WorkloadKind::Gups, 42,
                                     params.scale);
    MachineConfig cfg = makeMachineConfig(*specFromLabel("4K+GD"),
                                          params);
    cfg.contiguousHostReservation = false;
    cfg.hostFragmentation.enabled = true;
    cfg.hostFragmentation.maxRunBytes = 32 * MiB;
    Machine machine(cfg, *wl);
    machine.run(params.warmupOps);
    machine.resetStats();
    auto gd_run = machine.run(params.measureOps);

    auto migrated = machine.upgradeWithHostCompaction();
    ASSERT_TRUE(migrated.has_value());
    EXPECT_GT(*migrated, 0u);

    machine.run(params.warmupOps);
    machine.resetStats();
    auto dd_run = machine.run(params.measureOps);
    EXPECT_LT(dd_run.translationOverhead(),
              gd_run.translationOverhead());
    EXPECT_LT(dd_run.translationOverhead(), 0.05);
}

TEST_F(IntegrationTest, ThpHelpsComputeWorkloads)
{
    params.measureOps = 60000;
    auto base = cell(WorkloadKind::CactusADM, "4K");
    auto thp = cell(WorkloadKind::CactusADM, "THP");
    EXPECT_LT(thp.overhead(), base.overhead());
}

TEST_F(IntegrationTest, TableIVModelTracksSimulation)
{
    // Feed measured C_n, C_v and fractions into the Table IV model
    // and compare with the simulated VD walk cycles.
    auto native = cell(WorkloadKind::Gups, "4K");
    auto virt = cell(WorkloadKind::Gups, "4K+4K");
    auto vd = cell(WorkloadKind::Gups, "4K+VD");

    core::ModelInputs in;
    in.cyclesPerMissNative = native.run.cyclesPerWalk;
    in.cyclesPerMissVirtualized = virt.run.cyclesPerWalk;
    in.missesNative = static_cast<double>(native.run.walks);
    in.fractionVmmOnly = vd.run.fractionVmmOnly;
    const double predicted = core::predictVmmDirectCycles(in);
    const double simulated =
        vd.run.cyclesPerWalk * static_cast<double>(vd.run.walks);
    // The model is deliberately simple; agreement within 2x shows
    // the simulation and model are mutually consistent.
    EXPECT_GT(simulated, 0.3 * predicted);
    EXPECT_LT(simulated, 3.0 * predicted);
}

} // namespace
} // namespace emv::sim
