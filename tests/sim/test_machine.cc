/** @file Unit tests for the full-machine assembly and run loop. */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "sim/experiment.hh"
#include "sim/machine.hh"

namespace emv::sim {
namespace {

using core::Mode;
using workload::WorkloadKind;

class MachineTest : public ::testing::Test
{
  protected:
    static constexpr double kScale = 0.02;  // ~170 MB gups table.

    void
    SetUp() override
    {
        setQuietLogging(true);
    }

    std::unique_ptr<workload::Workload>
    makeWl(WorkloadKind kind = WorkloadKind::Gups)
    {
        return workload::makeWorkload(kind, 42, kScale);
    }

    MachineConfig
    makeCfg(Mode mode)
    {
        MachineConfig cfg;
        cfg.mode = mode;
        return cfg;
    }
};

TEST_F(MachineTest, PaperScaleTablesStayLinear)
{
    // A 72 GB graph500 VM's leaf tables map contiguous backing, so
    // each is written as one evenly stepping 512-word run and stored
    // as (first, stride).  Measured: 278 of 85162 resident host
    // frames hold words.  A build path that wrote its tables word by
    // word would store nearly all of them.
    RunParams params;
    params.scale = 12;
    auto wl = workload::makeWorkload(WorkloadKind::Graph500, 42,
                                     params.scale);
    Machine machine(makeMachineConfig(*specFromLabel("4K+4K"), params),
                    *wl);
    const mem::PhysMemory &host = machine.hostMem();
    EXPECT_GT(host.residentFrames(), 80000u);
    EXPECT_LE(host.storedFrames() * 100, host.residentFrames());
}

TEST_F(MachineTest, ShadowTablesStayLinear)
{
    // The shadow pager writes each run of guest leaves into its
    // shadow leaf table as one 512-word run, so those tables are
    // stored as (first, stride) like the nested ones.  Measured at
    // scale=1: 48 of 15396 resident host frames hold words; syncing
    // page by page stored 4144.
    RunParams params;
    auto wl = workload::makeWorkload(WorkloadKind::Memcached, 42,
                                     params.scale);
    Machine machine(makeMachineConfig(*specFromLabel("sh4K"), params),
                    *wl);
    ASSERT_NE(machine.shadowPager(), nullptr);
    const mem::PhysMemory &host = machine.hostMem();
    EXPECT_GT(host.residentFrames(), 15000u);
    EXPECT_LE(host.storedFrames() * 100, host.residentFrames());
}

TEST_F(MachineTest, NativeRunProducesWork)
{
    auto wl = makeWl();
    Machine machine(makeCfg(Mode::Native), *wl);
    auto run = machine.run(20000);
    EXPECT_EQ(run.accessOps, 20000u);
    EXPECT_GT(run.baseCycles, 0.0);
    EXPECT_GT(run.translationCycles, 0.0);
    EXPECT_GT(run.walks, 0u);
    EXPECT_EQ(run.guestFaults, 0u);  // Pre-populated.
}

TEST_F(MachineTest, VirtualizedCostsExceedNative)
{
    auto wl_native = makeWl();
    Machine native(makeCfg(Mode::Native), *wl_native);
    native.run(5000);
    native.resetStats();
    auto native_run = native.run(30000);

    auto wl_virt = makeWl();
    Machine virt(makeCfg(Mode::BaseVirtualized), *wl_virt);
    virt.run(5000);
    virt.resetStats();
    auto virt_run = virt.run(30000);

    // §VIII: virtualization raises both cycles-per-miss and (via
    // shared nested entries) the miss count itself.
    EXPECT_GT(virt_run.cyclesPerWalk, 1.5 * native_run.cyclesPerWalk);
    EXPECT_GT(virt_run.translationOverhead(),
              native_run.translationOverhead());
}

TEST_F(MachineTest, DualDirectNearZeroOverhead)
{
    auto wl = makeWl();
    Machine machine(makeCfg(Mode::DualDirect), *wl);
    machine.run(5000);
    machine.resetStats();
    auto run = machine.run(30000);
    EXPECT_LT(run.translationOverhead(), 0.01);
    EXPECT_GT(run.fractionBoth, 0.95);
}

TEST_F(MachineTest, VmmDirectNearNative)
{
    auto wl_native = makeWl();
    Machine native(makeCfg(Mode::Native), *wl_native);
    native.run(5000);
    native.resetStats();
    auto native_run = native.run(30000);

    auto wl_vd = makeWl();
    Machine vd(makeCfg(Mode::VmmDirect), *wl_vd);
    vd.run(5000);
    vd.resetStats();
    auto vd_run = vd.run(30000);

    EXPECT_GT(vd_run.fractionVmmOnly, 0.9);
    EXPECT_LT(vd_run.translationOverhead(),
              native_run.translationOverhead() * 1.3 + 0.02);
}

TEST_F(MachineTest, GuestDirectCoversSegmentAccesses)
{
    auto wl = makeWl();
    Machine machine(makeCfg(Mode::GuestDirect), *wl);
    machine.run(5000);
    machine.resetStats();
    auto run = machine.run(30000);
    EXPECT_GT(run.fractionGuestOnly, 0.9);
}

TEST_F(MachineTest, DemandPagingWithoutPrePopulate)
{
    auto wl = makeWl();
    auto cfg = makeCfg(Mode::Native);
    cfg.prePopulate = false;
    Machine machine(cfg, *wl);
    auto run = machine.run(20000);
    EXPECT_GT(run.guestFaults, 0u);
    EXPECT_GT(run.faultCycles, 0.0);
    // Faulted pages are now mapped: a second interval faults less.
    auto second = machine.run(20000);
    EXPECT_LT(second.guestFaults, run.guestFaults);
}

TEST_F(MachineTest, NestedDemandBacking)
{
    auto wl = makeWl();
    auto cfg = makeCfg(Mode::BaseVirtualized);
    cfg.eagerBacking = false;
    Machine machine(cfg, *wl);
    const auto exits_before = machine.vm()->vmExits();
    auto run = machine.run(20000);
    EXPECT_GT(machine.vm()->vmExits(), exits_before);
    EXPECT_GT(run.vmExitCycles, 0.0);
}

TEST_F(MachineTest, ShadowPagingChargesSyncExits)
{
    auto wl = makeWl(WorkloadKind::Memcached);
    auto cfg = makeCfg(Mode::BaseVirtualized);
    cfg.shadowPaging = true;
    Machine machine(cfg, *wl);
    machine.run(5000);
    machine.resetStats();
    // Run long enough for slab churn to hit.
    auto run = machine.run(300000);
    EXPECT_GT(run.remapOps, 0u);
    EXPECT_GT(run.vmExitCycles, 0.0);
    // Walks are 1D over the shadow (native-grade cycles/walk).
    EXPECT_LT(run.cyclesPerWalk, 200.0);
}

TEST_F(MachineTest, RemapChurnInvalidatesAndRepopulates)
{
    auto wl = makeWl(WorkloadKind::Memcached);
    Machine machine(makeCfg(Mode::BaseVirtualized), *wl);
    auto run = machine.run(300000);
    EXPECT_GT(run.remapOps, 0u);
    EXPECT_GT(run.shootdownCycles, 0.0);
}

TEST_F(MachineTest, ResetStatsZeroesInterval)
{
    auto wl = makeWl();
    Machine machine(makeCfg(Mode::Native), *wl);
    machine.run(10000);
    machine.resetStats();
    auto run = machine.run(1000);
    EXPECT_EQ(run.accessOps, 1000u);
    EXPECT_LT(run.translationCycles,
              1000.0 * machine.config().mmu.costs.pteMemCycles * 4);
}

TEST_F(MachineTest, BadFramesProduceEscapes)
{
    auto wl = makeWl();
    auto cfg = makeCfg(Mode::DualDirect);
    cfg.badFrames = 8;
    Machine machine(cfg, *wl);
    EXPECT_EQ(machine.hostMem().badFrameCount(), 8u);
    EXPECT_EQ(machine.mmu().vmmFilter().insertedPages(), 8u);
    machine.run(5000);
    machine.resetStats();
    auto run = machine.run(50000);
    // Overhead stays near zero despite the faults (Fig. 13).
    EXPECT_LT(run.translationOverhead(), 0.02);
}

TEST_F(MachineTest, FragmentedGuestBlocksGuestSegment)
{
    auto wl = makeWl();
    auto cfg = makeCfg(Mode::GuestDirect);
    cfg.guestFragmentation.enabled = true;
    cfg.guestFragmentation.maxRunBytes = 16 * MiB;
    Machine machine(cfg, *wl);
    EXPECT_FALSE(machine.guestSegment().enabled());
    // Still functionally correct, just slow (paging).
    auto run = machine.run(10000);
    EXPECT_EQ(run.accessOps, 10000u);
}

TEST_F(MachineTest, SelfBalloonRecoversGuestSegment)
{
    auto wl = makeWl();
    auto cfg = makeCfg(Mode::GuestDirect);
    cfg.guestFragmentation.enabled = true;
    cfg.guestFragmentation.maxRunBytes = 16 * MiB;
    cfg.extensionReserve = 512 * MiB;
    Machine machine(cfg, *wl);
    ASSERT_FALSE(machine.guestSegment().enabled());
    ASSERT_TRUE(machine.selfBalloonGuestSegment());
    EXPECT_TRUE(machine.guestSegment().enabled());
    machine.run(5000);
    machine.resetStats();
    auto run = machine.run(30000);
    EXPECT_GT(run.fractionGuestOnly, 0.9);
}

TEST_F(MachineTest, HostCompactionUpgradesGuestDirectToDualDirect)
{
    auto wl = makeWl();
    auto cfg = makeCfg(Mode::GuestDirect);
    cfg.contiguousHostReservation = false;
    cfg.hostFragmentation.enabled = true;
    cfg.hostFragmentation.maxRunBytes = 64 * MiB;
    Machine machine(cfg, *wl);
    machine.run(5000);
    machine.resetStats();
    auto before = machine.run(20000);
    EXPECT_LT(before.fractionBoth, 0.1);

    auto migrated = machine.upgradeWithHostCompaction();
    ASSERT_TRUE(migrated.has_value());
    EXPECT_EQ(machine.config().mode, Mode::DualDirect);

    machine.run(5000);
    machine.resetStats();
    auto after = machine.run(20000);
    EXPECT_GT(after.fractionBoth, 0.9);
    EXPECT_LT(after.translationOverhead(),
              before.translationOverhead() / 2);
}

TEST_F(MachineTest, TranslationsAreCorrectAgainstPageTables)
{
    // End-to-end correctness: every translated hPA must equal the
    // software composition of guest PT and backing map.
    auto wl = makeWl();
    Machine machine(makeCfg(Mode::BaseVirtualized), *wl);
    for (int i = 0; i < 3000; ++i) {
        const auto op = machine.workload().next();
        if (op.kind == workload::Op::Kind::Remap)
            continue;
        auto result = machine.mmu().translate(op.va);
        ASSERT_TRUE(result.ok);
        auto guest = machine.process().pageTable().translate(op.va);
        ASSERT_TRUE(guest.has_value());
        auto hpa = machine.vm()->gpaToHpa(guest->pa);
        ASSERT_TRUE(hpa.has_value());
        ASSERT_EQ(result.hpa, *hpa) << hexAddr(op.va);
    }
}

TEST_F(MachineTest, DualDirectMatchesBaseVirtualizedTranslations)
{
    // Same trace, two machines: the 0D path must produce the same
    // physical bytes locations as nested paging (offset aside, the
    // content-visible mapping gva->frame must be consistent within
    // each machine).
    auto wl_dd = makeWl();
    auto wl_bv = makeWl();
    auto dd = std::make_unique<Machine>(makeCfg(Mode::DualDirect),
                                        *wl_dd);
    auto bv = std::make_unique<Machine>(
        makeCfg(Mode::BaseVirtualized), *wl_bv);
    for (int i = 0; i < 2000; ++i) {
        const auto a = wl_dd->next();
        const auto b = wl_bv->next();
        ASSERT_EQ(a.va, b.va);  // Identical traces.
        if (a.kind == workload::Op::Kind::Remap)
            continue;
        auto ra = dd->mmu().translate(a.va);
        auto rb = bv->mmu().translate(b.va);
        ASSERT_TRUE(ra.ok);
        ASSERT_TRUE(rb.ok);
        // Same page offset always.
        ASSERT_EQ(ra.hpa & (kPage4K - 1), rb.hpa & (kPage4K - 1));
    }
}

} // namespace
} // namespace emv::sim
