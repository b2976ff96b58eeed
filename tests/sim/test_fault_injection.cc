/**
 * @file
 * Machine-level fault injection and graceful degradation: mid-run
 * DRAM faults, PTE corruption, request failures with retry/backoff,
 * escape-filter saturation, and Table III mode downgrades.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/audit.hh"
#include "common/logging.hh"
#include "sim/machine.hh"

namespace emv::sim {
namespace {

using core::Mode;
using workload::WorkloadKind;

class FaultInjectionTest : public ::testing::Test
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
    makeCfg(Mode mode, const char *faults,
            fault::FaultPolicy policy = fault::FaultPolicy::Degrade)
    {
        MachineConfig cfg;
        cfg.mode = mode;
        auto plan = fault::FaultPlan::parse(faults);
        EXPECT_TRUE(plan.has_value()) << faults;
        if (plan)
            cfg.faultPlan = *plan;
        cfg.faultPolicy = policy;
        return cfg;
    }

    static std::uint64_t
    faultCounter(Machine &machine, const char *name)
    {
        return machine.faultInjector().stats().counterValue(name);
    }

    /** "group.stat" for every stat of every group @p machine owns. */
    static std::vector<std::string>
    declaredStatNames(const Machine &machine)
    {
        struct Names : StatVisitor
        {
            std::vector<std::string> out;

            void
            add(const StatGroup &group, const std::string &name)
            {
                out.push_back(group.fullName() + "." + name);
            }
            void visitCounter(const StatGroup &group,
                              const std::string &name,
                              const Counter &) override
            { add(group, name); }
            void visitScalar(const StatGroup &group,
                             const std::string &name,
                             const Scalar &) override
            { add(group, name); }
            void visitDistribution(const StatGroup &group,
                                   const std::string &name,
                                   const Distribution &) override
            { add(group, name); }
        } names;
        for (const StatGroup *group : machine.statGroups())
            group->visit(names);
        return names.out;
    }
};

TEST_F(FaultInjectionTest, StatSetIsFixedAtConstruction)
{
    // Every stat is declared when its component is built, so faults,
    // recoveries, downgrades and VM exits only move values: no group
    // gains a name mid-run.
    for (Mode mode : {Mode::Native, Mode::NativeDirect,
                      Mode::BaseVirtualized, Mode::DualDirect,
                      Mode::VmmDirect, Mode::GuestDirect}) {
        SCOPED_TRACE(core::modeName(mode));
        auto wl = makeWl();
        Machine machine(
            makeCfg(mode, "dram@1000x4,balloonfail@1500"), *wl);
        const auto before = declaredStatNames(machine);
        EXPECT_TRUE(machine.run(4000).completed);
        EXPECT_GT(faultCounter(machine, "delivered_events"), 0u);
        EXPECT_EQ(declaredStatNames(machine), before);
    }
}

TEST_F(FaultInjectionTest, MidRunDramFaultsRecoverByOfflining)
{
    auto wl = makeWl();
    Machine machine(makeCfg(Mode::DualDirect, "dram@2000x8"), *wl);
    auto run = machine.run(12000);

    EXPECT_TRUE(run.completed);
    EXPECT_EQ(machine.terminalFault(), nullptr);
    EXPECT_EQ(faultCounter(machine, "injected_dram"), 8u);
    EXPECT_EQ(machine.vm()->stats().counterValue("frames_offlined"),
              8u);
    // Eight escapes nowhere near the saturation bound: both
    // segments stay live.
    EXPECT_EQ(faultCounter(machine, "downgrades"), 0u);
    EXPECT_EQ(machine.config().mode, Mode::DualDirect);
    EXPECT_TRUE(machine.guestSegment().enabled());
    EXPECT_TRUE(machine.vmmSegment().enabled());
}

TEST_F(FaultInjectionTest, MixedScheduleDowngradesOnceAuditClean)
{
    // The issue's acceptance scenario, in-process: 8 DRAM faults, a
    // failed balloon request and a filter saturation against Dual
    // Direct under policy=degrade must complete, stepping down
    // exactly one lattice level (DD -> VmmDirect), with the
    // differential auditor observing zero mismatches throughout.
    audit::setEnabled(true);
    audit::resetCounters();

    auto wl = makeWl();
    Machine machine(
        makeCfg(Mode::DualDirect,
                "dram@2000x8,balloonfail@3000,filtersat@5000"),
        *wl);
    auto run = machine.run(12000);

    EXPECT_TRUE(run.completed);
    EXPECT_EQ(faultCounter(machine, "downgrades"), 1u);
    EXPECT_EQ(machine.config().mode, Mode::VmmDirect);
    EXPECT_FALSE(machine.guestSegment().enabled());
    EXPECT_TRUE(machine.vmmSegment().enabled());
    EXPECT_GT(audit::checkCount(), 0u);
    EXPECT_EQ(audit::mismatchCount(), 0u);
    EXPECT_EQ(audit::failureCount(), 0u);
    audit::setEnabled(false);
}

TEST_F(FaultInjectionTest, FailFastProducesStructuredReport)
{
    auto wl = makeWl();
    Machine machine(makeCfg(Mode::DualDirect, "dram@1000",
                            fault::FaultPolicy::FailFast),
                    *wl);
    auto run = machine.run(5000);

    EXPECT_FALSE(run.completed);
    EXPECT_LT(run.accessOps, 5000u);
    ASSERT_NE(machine.terminalFault(), nullptr);
    EXPECT_NE(machine.terminalFault()->reason.find("dram"),
              std::string::npos);
    EXPECT_EQ(machine.terminalFault()->opIndex, 1000u);
    EXPECT_EQ(faultCounter(machine, "terminal_faults"), 1u);

    // A dead machine stays dead: further runs do no work.
    auto again = machine.run(100);
    EXPECT_FALSE(again.completed);
    EXPECT_EQ(again.accessOps, 0u);
}

TEST_F(FaultInjectionTest, BalloonFailuresRetryWithBackoff)
{
    auto wl = makeWl();
    Machine machine(makeCfg(Mode::DualDirect, "balloonfail@1000x2"),
                    *wl);
    auto run = machine.run(3000);

    EXPECT_TRUE(run.completed);
    // Two armed failures burn two retries; the third attempt lands.
    EXPECT_EQ(faultCounter(machine, "retries"), 2u);
    EXPECT_EQ(faultCounter(machine, "recoveries"), 1u);
    EXPECT_EQ(faultCounter(machine, "request_failures"), 0u);
    EXPECT_EQ(faultCounter(machine, "injected_request_failures"),
              2u);
}

TEST_F(FaultInjectionTest, HotplugFailureRecoversAndGrants)
{
    auto wl = makeWl();
    auto cfg = makeCfg(Mode::BaseVirtualized, "hotplugfail@1000");
    cfg.extensionReserve = 8 * MiB;
    Machine machine(cfg, *wl);
    auto run = machine.run(3000);

    EXPECT_TRUE(run.completed);
    EXPECT_EQ(faultCounter(machine, "retries"), 1u);
    EXPECT_EQ(faultCounter(machine, "recoveries"), 1u);
    EXPECT_GE(
        machine.vm()->stats().counterValue("extensions_granted"),
        1u);
}

TEST_F(FaultInjectionTest, NestedPteLossRepairsFromBackingMap)
{
    auto wl = makeWl();
    Machine machine(makeCfg(Mode::BaseVirtualized, ""), *wl);
    machine.run(1000);

    auto *vm = machine.vm();
    ASSERT_NE(vm, nullptr);
    ASSERT_FALSE(vm->backingMap().extents().empty());
    const Addr gpa = vm->backingMap().extents().front().gpa;

    // Drop the nested leaf; the gPA->hPA truth survives in the
    // backing map, so the next ensure re-derives the mapping instead
    // of treating the page as unbacked.
    EXPECT_TRUE(vm->dropNestedMapping(gpa));
    EXPECT_EQ(vm->stats().counterValue("nested_mappings_dropped"),
              1u);
    EXPECT_TRUE(vm->ensureBacked(gpa));
    EXPECT_EQ(vm->stats().counterValue("nested_mappings_repaired"),
              1u);

    EXPECT_TRUE(machine.run(1000).completed);
}

TEST_F(FaultInjectionTest, SlotRevocationSwapsPagesOut)
{
    auto wl = makeWl();
    Machine machine(
        makeCfg(Mode::BaseVirtualized, "slotrevoke@1000x4"), *wl);
    auto run = machine.run(8000);

    EXPECT_TRUE(run.completed);
    EXPECT_GE(faultCounter(machine, "injected_slot_revokes"), 1u);
    EXPECT_GE(machine.vm()->stats().counterValue("pages_swapped_out"),
              1u);
}

TEST_F(FaultInjectionTest, DowngradeWalksTheTableThreeLattice)
{
    auto wl = makeWl();
    Machine machine(makeCfg(Mode::DualDirect, ""), *wl);
    machine.run(2000);

    ASSERT_TRUE(machine.downgradeMode());
    EXPECT_EQ(machine.config().mode, Mode::VmmDirect);
    EXPECT_FALSE(machine.guestSegment().enabled());
    EXPECT_TRUE(machine.vmmSegment().enabled());

    ASSERT_TRUE(machine.downgradeMode());
    EXPECT_EQ(machine.config().mode, Mode::BaseVirtualized);
    EXPECT_FALSE(machine.vmmSegment().enabled());

    // The lattice bottoms out at base virtualization.
    EXPECT_FALSE(machine.downgradeMode());
    EXPECT_EQ(machine.config().mode, Mode::BaseVirtualized);
    // Each downgrade retired exactly one segment.
    EXPECT_EQ(faultCounter(machine, "downgrades"), 2u);

    // The machine keeps running correctly as plain 2D nested paging.
    EXPECT_TRUE(machine.run(2000).completed);
}

TEST_F(FaultInjectionTest, NativeDirectDramFaultsEscapeViaFilter)
{
    auto wl = makeWl();
    Machine machine(makeCfg(Mode::NativeDirect, "dram@1000x4"), *wl);
    auto run = machine.run(6000);

    EXPECT_TRUE(run.completed);
    EXPECT_EQ(faultCounter(machine, "injected_dram"), 4u);
    EXPECT_EQ(faultCounter(machine, "filter_escapes"), 4u);
    // Four escapes don't saturate the filter; DS stays on.
    EXPECT_EQ(machine.config().mode, Mode::NativeDirect);
    EXPECT_TRUE(machine.guestSegment().enabled());
}

TEST_F(FaultInjectionTest, GuestPteCorruptionIsRefaultable)
{
    auto wl = makeWl();
    Machine machine(makeCfg(Mode::Native, "guestpte@1000x2"), *wl);
    auto run = machine.run(6000);

    EXPECT_TRUE(run.completed);
    EXPECT_EQ(faultCounter(machine, "injected_guest_pte"), 2u);
    EXPECT_EQ(machine.terminalFault(), nullptr);
}

TEST_F(FaultInjectionTest, FilterSaturationDowngradesExactlyOnce)
{
    auto wl = makeWl();
    Machine machine(
        makeCfg(Mode::NativeDirect, "filtersat@1000,filtersat@2000"),
        *wl);
    auto run = machine.run(6000);

    EXPECT_TRUE(run.completed);
    EXPECT_GE(faultCounter(machine, "filter_saturations"), 1u);
    // The second saturation event finds no live segment left; the
    // downgrade must not fire twice.
    EXPECT_EQ(faultCounter(machine, "downgrades"), 1u);
    EXPECT_EQ(machine.config().mode, Mode::Native);
    EXPECT_FALSE(machine.guestSegment().enabled());
}

} // namespace
} // namespace emv::sim
