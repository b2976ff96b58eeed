/** @file
 * Save, load, save again: for every class with a persist(), the
 * bytes of an object with state worth saving must equal the bytes of
 * a fresh object of the same configuration after it loaded them.
 * One type list drives the test, so a class added to the codec is
 * one more case here.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

#include "common/ckpt.hh"
#include "common/intervals.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/telemetry.hh"
#include "fault/fault_injector.hh"
#include "fault/fault_plan.hh"
#include "mem/buddy_allocator.hh"
#include "mem/phys_accessor.hh"
#include "mem/phys_memory.hh"
#include "os/balloon.hh"
#include "os/compaction.hh"
#include "os/guest_os.hh"
#include "paging/page_table.hh"
#include "segment/direct_segment.hh"
#include "segment/escape_filter.hh"
#include "sim/checkpoint.hh"
#include "sim/experiment.hh"
#include "sim/machine.hh"
#include "tlb/set_assoc.hh"
#include "tlb/tlb.hh"
#include "tlb/tlb_hierarchy.hh"
#include "tlb/walk_cache.hh"
#include "vmm/backing_map.hh"
#include "vmm/memory_slots.hh"
#include "vmm/vmm.hh"
#include "workload/workload.hh"
#include "../test_support.hh"

namespace emv::sim {
namespace {

/** A gups machine booted under @p label the way emvsim boots one. */
struct Booted
{
    explicit Booted(const std::string &label)
    {
        RunParams params;
        params.scale = 0.02;
        params.seed = 42;
        wl = workload::makeWorkload(workload::WorkloadKind::Gups, 42,
                                    params.scale);
        machine = std::make_unique<Machine>(
            makeMachineConfig(*specFromLabel(label), params), *wl);
    }

    std::unique_ptr<workload::Workload> wl;
    std::unique_ptr<Machine> machine;
};

/** Two machines booted alike; the first has run some ops. */
struct Machines
{
    explicit Machines(const std::string &label = "4K+4K")
        : from(label), into(label)
    {
        from.machine->run(5000);
    }

    Booted from;
    Booted into;
};

/** A case whose two objects are built by one constructor call. */
template <class T>
struct Pair
{
    template <class... Args>
    explicit Pair(const Args &...args) : a(args...), b(args...)
    {
    }

    T &saved() { return a; }
    T &fresh() { return b; }

    T a;
    T b;
};

// One case per persisted class: saved() holds state worth saving,
// fresh() is a new object of the same configuration.

struct DistributionCase : Pair<Distribution>
{
    DistributionCase()
    {
        for (double v : {0.5, 3.0, 70.0})
            a.sample(v);
    }
};

struct StatGroupCase
{
    struct Stats : StatGroup
    {
        Stats() : StatGroup("group") {}
        Counter hits{*this, "hits"};
        Scalar cycles{*this, "cycles"};
        Distribution latency{*this, "latency"};
    };

    StatGroupCase()
    {
        a.hits += 3;
        a.cycles += 2.5;
        a.latency.sample(9.0);
    }

    StatGroup &saved() { return a; }
    StatGroup &fresh() { return b; }

    Stats a;
    Stats b;
};

struct RngCase : Pair<Rng>
{
    RngCase() : Pair(7)
    {
        a.nextZipf(1000, 0.99);
    }
};

struct IntervalSetCase : Pair<IntervalSet>
{
    IntervalSetCase()
    {
        a.insert(0x1000, 0x5000);
        a.insert(0x9000, 0xa000);
    }
};

struct LatencyHistogramCase : Pair<telemetry::LatencyHistogram>
{
    LatencyHistogramCase()
    {
        for (std::uint64_t v : {1ull, 17ull, 123456ull})
            a.record(v);
    }
};

struct TelemetryRecorderCase
{
    static telemetry::TelemetryConfig
    config()
    {
        telemetry::TelemetryConfig config;
        config.windowOps = 10;
        return config;
    }

    TelemetryRecorderCase() : a(config()), b(config())
    {
        for (auto *rec : {&a, &b}) {
            rec->addCounter("ops", [this] { return ops; });
            rec->addScalar("cycles", [] { return 1.5; });
        }
        ops = 4;
        a.onOp();
    }

    telemetry::TelemetryRecorder &saved() { return a; }
    telemetry::TelemetryRecorder &fresh() { return b; }

    std::uint64_t ops = 0;
    telemetry::TelemetryRecorder a;
    telemetry::TelemetryRecorder b;
};

struct SetAssocCase : Pair<tlb::SetAssoc>
{
    SetAssocCase() : Pair(4u, 2u)
    {
        for (std::uint64_t tag = 1; tag < 12; ++tag)
            a.insert(tag, tag * 10);
        a.erase(3);
    }
};

struct TlbCase : Pair<tlb::Tlb>
{
    TlbCase() : Pair(StatName("l1tlb"), 16u, 4u)
    {
        a.insert(tlb::EntryKind::Guest, 0x400000, 0x10000,
                 PageSize::Size4K);
    }
};

struct WalkCacheCase : Pair<tlb::WalkCache>
{
    WalkCacheCase() : Pair(4u, 2u)
    {
        a.insert(tlb::WalkCache::key(2, 0x40000000), 0x7000);
    }
};

struct LineCacheCase : Pair<tlb::LineCache>
{
    LineCacheCase() : Pair(8u, 4u)
    {
        a.access(0x1234);
    }
};

struct TlbHierarchyCase : Pair<tlb::TlbHierarchy>
{
    TlbHierarchyCase()
    {
        a.insertGuest(0x400000, 0x10000, PageSize::Size4K);
        a.insertNested(0x200000, 0x600000, PageSize::Size2M);
    }
};

struct FaultInjectorCase
{
    static fault::FaultPlan
    plan()
    {
        return *fault::FaultPlan::parse("dram@100x2,filtersat@300");
    }

    FaultInjectorCase() : a(plan(), 1), b(plan(), 1)
    {
        a.eventsDue(200);
    }

    fault::FaultInjector &saved() { return a; }
    fault::FaultInjector &fresh() { return b; }

    fault::FaultInjector a;
    fault::FaultInjector b;
};

struct PageTableCase
{
    PageTableCase() : mem(256 * MiB), space(mem, 128 * MiB), a(space),
                      b(space)
    {
        a.map(0x400000, 0x10000, PageSize::Size4K);
        a.map(0x40000000, 0x200000, PageSize::Size2M);
    }

    paging::PageTable &saved() { return a; }
    paging::PageTable &fresh() { return b; }

    mem::PhysMemory mem;
    test::BumpMemSpace space;
    paging::PageTable a;
    paging::PageTable b;
};

struct PhysMemoryCase : Pair<mem::PhysMemory>
{
    PhysMemoryCase() : Pair(Addr{4 * MiB})
    {
        a.write64(0x3000, 7);
        a.zeroFrame(0x5000);
        a.markBad(0x1000);
    }
};

struct BuddyAllocatorCase : Pair<mem::BuddyAllocator>
{
    BuddyAllocatorCase() : Pair(Addr{0}, Addr{64 * MiB})
    {
        a.allocate(0);
        a.allocate(9);
    }
};

struct SegmentRegsCase : Pair<segment::SegmentRegs>
{
    SegmentRegsCase()
    {
        a = segment::SegmentRegs::fromRanges(0x40000000, 64 * MiB,
                                             0x80000000);
    }
};

struct EscapeFilterCase : Pair<segment::EscapeFilter>
{
    EscapeFilterCase()
    {
        a.insertPage(0x7000);
    }
};

struct BackingMapCase : Pair<vmm::BackingMap>
{
    BackingMapCase()
    {
        a.add(0, 2 * MiB, 64 * MiB);
        a.add(8 * MiB, 4 * MiB, 128 * MiB);
    }
};

struct MemorySlotsCase : Pair<vmm::MemorySlots>
{
    MemorySlotsCase()
    {
        for (auto *slots : {&a, &b})
            slots->addSlot("low", 0, 96 * MiB, 0x7f0000000000);
        a.extendSlot("low", 2 * MiB);
    }
};

struct CheckpointMetaCase : Pair<CheckpointMeta>
{
    CheckpointMetaCase()
    {
        a.faultSpec = "dram@100";
        a.warmupDone = 5;
    }
};

struct MmuCase : Machines
{
    core::Mmu &saved() { return from.machine->mmu(); }
    core::Mmu &fresh() { return into.machine->mmu(); }
};

/** Machines whose first one unmapped 2 MB of its primary region
 *  after the run, which moves the guest tables, the guest allocator
 *  and (under shadow paging) the shadow table. */
struct Unmapped : Machines
{
    explicit Unmapped(const std::string &label = "4K+4K")
        : Machines(label)
    {
        os::Process &proc = from.machine->process();
        from.machine->os().unmapRange(proc, proc.regions()[0].base,
                                      2 * MiB);
    }
};

struct ProcessCase : Unmapped
{
    os::Process &saved() { return from.machine->process(); }
    os::Process &fresh() { return into.machine->process(); }
};

struct GuestOsCase : Unmapped
{
    os::GuestOs &saved() { return from.machine->os(); }
    os::GuestOs &fresh() { return into.machine->os(); }
};

struct ShadowPagerCase : Unmapped
{
    ShadowPagerCase() : Unmapped("sh4K") {}

    vmm::ShadowPager &saved() { return *from.machine->shadowPager(); }
    vmm::ShadowPager &fresh() { return *into.machine->shadowPager(); }
};

/** Machines whose first one inflated a balloon, which hands guest
 *  frames back to the VMM. */
struct Ballooned : Machines
{
    Ballooned()
    {
        os::BalloonDriver(from.machine->os(), *from.machine->vm())
            .inflate(4 * MiB);
    }
};

struct VmCase : Ballooned
{
    vmm::Vm &saved() { return *from.machine->vm(); }
    vmm::Vm &fresh() { return *into.machine->vm(); }
};

struct VmmCase : Ballooned
{
    vmm::Vmm &saved() { return *from.machine->vmm(); }
    vmm::Vmm &fresh() { return *into.machine->vmm(); }
};

struct WorkloadCase : Machines
{
    workload::Workload &saved() { return from.machine->workload(); }
    workload::Workload &fresh() { return into.machine->workload(); }
};

/** The "machine" chunk. */
struct MachineCase : Machines
{
    Machine &saved() { return *from.machine; }
    Machine &fresh() { return *into.machine; }
};

struct CompactionDaemonCase
{
    static constexpr Addr kSpan = 256 * MiB;

    CompactionDaemonCase()
        : mem(kSpan), accessor(mem), os(accessor, kSpan, {{0, kSpan}}),
          a(os), b(os)
    {
        // Free every other 2 MB of a mapped heap, so a 64 MB run
        // needs migrations.
        auto &proc = os.createProcess();
        os.defineRegion(proc, "heap", 1 * GiB, 192 * MiB,
                        PageSize::Size4K);
        os.populateRange(proc, 1 * GiB, 192 * MiB);
        for (Addr off = 0; off < 192 * MiB; off += 4 * MiB)
            os.unmapRange(proc, 1 * GiB + off, 2 * MiB);
        a.createFreeRun(64 * MiB);
    }

    os::CompactionDaemon &saved() { return a; }
    os::CompactionDaemon &fresh() { return b; }

    mem::PhysMemory mem;
    mem::HostPhysAccessor accessor;
    os::GuestOs os;
    os::CompactionDaemon a;
    os::CompactionDaemon b;
};

struct BalloonDriverCase : Machines
{
    BalloonDriverCase()
        : a(from.machine->os(), *from.machine->vm()),
          b(into.machine->os(), *into.machine->vm())
    {
        a.inflate(4 * MiB);
    }

    os::BalloonDriver &saved() { return a; }
    os::BalloonDriver &fresh() { return b; }

    os::BalloonDriver a;
    os::BalloonDriver b;
};

template <class Case>
class PersistRoundTrip : public ::testing::Test
{
};

using PersistCases = ::testing::Types<
    DistributionCase, StatGroupCase, RngCase, IntervalSetCase,
    LatencyHistogramCase, TelemetryRecorderCase, SetAssocCase, TlbCase,
    WalkCacheCase, LineCacheCase, TlbHierarchyCase, FaultInjectorCase,
    PageTableCase, PhysMemoryCase, BuddyAllocatorCase, SegmentRegsCase,
    EscapeFilterCase, BackingMapCase, MemorySlotsCase,
    CheckpointMetaCase, MmuCase, ProcessCase, GuestOsCase, VmCase,
    VmmCase, ShadowPagerCase, WorkloadCase, MachineCase,
    CompactionDaemonCase, BalloonDriverCase>;
TYPED_TEST_SUITE(PersistRoundTrip, PersistCases);

TYPED_TEST(PersistRoundTrip, SaveLoadSaveIsByteIdentical)
{
    TypeParam c;
    const auto bytes = test::ckptBytes(c.saved());
    ASSERT_NE(bytes, test::ckptBytes(c.fresh()))
        << "the saved object holds no state worth saving";
    ASSERT_EQ(test::ckptRestoreError(bytes, c.fresh()), "");
    EXPECT_EQ(test::ckptBytes(c.fresh()), bytes);
}

} // namespace
} // namespace emv::sim
