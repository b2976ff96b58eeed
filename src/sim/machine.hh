/**
 * @file
 * The full-system assembly: host memory + (optional) VMM/VM + OS +
 * process + MMU + workload driver.
 *
 * A Machine corresponds to one configuration cell of the paper's
 * evaluation (e.g. "graph500 under 4K+2M", or "memcached under
 * Dual Direct"): it builds the whole stack for a translation mode,
 * pre-faults the workload's regions, then replays the trace through
 * the MMU, charging translation, fault, VM-exit and shootdown
 * cycles.  Overheads are reported exactly as the paper defines them
 * (§VIII): extra time relative to ideal base execution.
 */

#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hh"
#include "core/mmu.hh"
#include "fault/fault_injector.hh"
#include "fault/fault_plan.hh"
#include "mem/fragmenter.hh"
#include "mem/phys_accessor.hh"
#include "mem/phys_memory.hh"
#include "os/balloon.hh"
#include "os/compaction.hh"
#include "os/guest_os.hh"
#include "vmm/shadow_pager.hh"
#include "vmm/vmm.hh"
#include "workload/workload.hh"

namespace emv {
namespace ckpt {
class Writer;
class Reader;
} // namespace ckpt
namespace telemetry {
class TelemetryRecorder;
} // namespace telemetry
} // namespace emv

namespace emv::sim {

/** Deterministic fragmentation to apply before segment creation. */
struct FragmentationSpec
{
    bool enabled = false;
    Addr maxRunBytes = 64 * MiB;  //!< Largest free run to leave.
    std::uint64_t seed = 1;
    /** Guest only: fragmentation pages belong to a background
     *  process (movable by compaction) instead of being pinned. */
    bool movable = false;
};

/** One configuration cell. */
struct MachineConfig
{
    core::Mode mode = core::Mode::Native;

    /** Guest OS page size for data regions ("4K", "2M", "1G"). */
    PageSize guestPageSize = PageSize::Size4K;
    /** Nested (VMM) page size ("+4K", "+2M", "+1G"). */
    PageSize vmmPageSize = PageSize::Size4K;
    /** Transparent huge pages in the guest. */
    bool thp = false;

    /** Shadow paging instead of nested paging (§IX.D); the MMU then
     *  performs native 1D walks over the shadow table. */
    bool shadowPaging = false;

    Addr hostRamBytes = 0;   //!< 0 = auto-size from the workload.
    Addr guestRamBytes = 0;  //!< 0 = auto-size from the workload.
    Addr extensionReserve = 0;  //!< gPA hot-add reserve.

    bool eagerBacking = true;
    bool contiguousHostReservation = true;
    /** Relocate below-gap guest memory at boot (§VI.C); applies to
     *  modes that want a VMM segment. */
    bool reclaimIoGap = true;
    bool prePopulate = true;

    /** Hard-fault injection into the segment backing (Fig. 13). */
    unsigned badFrames = 0;
    std::uint64_t badFrameSeed = 99;

    FragmentationSpec hostFragmentation;
    FragmentationSpec guestFragmentation;

    /** Mid-run fault schedule (trace-op granularity) and what to do
     *  when a scheduled fault fires. */
    fault::FaultPlan faultPlan;
    fault::FaultPolicy faultPolicy = fault::FaultPolicy::Degrade;
    std::uint64_t faultSeed = 7;
    fault::RecoveryConfig recovery;

    core::MmuConfig mmu{};
    std::uint64_t seed = 42;
};

/**
 * Structured record of an unrecoverable fault (replaces the old
 * emv_fatal dead-ends): what happened, where, and at which trace op.
 */
struct FaultReport
{
    std::string reason;
    core::FaultSpace space = core::FaultSpace::None;
    Addr addr = 0;
    std::uint64_t opIndex = 0;
};

/** Measured outcome of a run() interval. */
struct RunResult
{
    std::uint64_t accessOps = 0;
    std::uint64_t remapOps = 0;

    double baseCycles = 0.0;
    double translationCycles = 0.0;
    double faultCycles = 0.0;
    double vmExitCycles = 0.0;
    double shootdownCycles = 0.0;

    std::uint64_t l1Misses = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t walks = 0;
    std::uint64_t guestFaults = 0;
    std::uint64_t ddFastHits = 0;
    std::uint64_t dsFastHits = 0;

    /** False when the run aborted on an unrecoverable fault (see
     *  Machine::terminalFault()). */
    bool completed = true;

    double cyclesPerWalk = 0.0;
    double fractionBoth = 0.0;
    double fractionVmmOnly = 0.0;
    double fractionGuestOnly = 0.0;

    double
    execCycles() const
    {
        return baseCycles + translationCycles + faultCycles +
               vmExitCycles + shootdownCycles;
    }

    /** The paper's address-translation overhead vs ideal base. */
    double
    translationOverhead() const
    {
        return baseCycles > 0.0 ? translationCycles / baseCycles
                                : 0.0;
    }

    /** Overhead including faults, exits and shootdowns. */
    double
    totalOverhead() const
    {
        return baseCycles > 0.0
                   ? (execCycles() - baseCycles) / baseCycles
                   : 0.0;
    }
};

/**
 * The machine.
 *
 * Threads: a Machine is built, run and destroyed on one thread,
 * and everything it owns (OS, VMM, MMU, workload, RNG streams, stat
 * groups, fault injector, telemetry recorder) stays there, as do the
 * audit counters it bumps (thread-local); none of it takes a lock.
 * It shares only the trace sink (locked), the trace, audit and
 * logging gate flags and the profiler phase totals (atomics).  sim::runMatrix()
 * runs a sweep's machines on worker threads under exactly this
 * contract (DESIGN.md §12).
 */
class Machine
{
  public:
    Machine(const MachineConfig &config,
            workload::Workload &workload);
    ~Machine();

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    /** Replay @p ops trace events; returns this interval's stats. */
    RunResult run(std::uint64_t ops);

    /** Zero all statistics (end of warmup). */
    void resetStats();

    /** Every stat group this machine owns, for export
     *  (common/stat_export.hh): the MMU with its TLBs, walk caches
     *  and filters, the OS with its buddy allocator, host memory,
     *  the fault injector, and the VMM with its buddy allocator, the
     *  VM and the shadow pager when built. */
    std::vector<const StatGroup *> statGroups() const;

    /**
     * Measured result accumulated since the last resetStats(),
     * regardless of how many run() intervals it spans.  Computed
     * from the live (checkpointable) counters, so a run resumed
     * from a mid-measure checkpoint reports bit-identical numbers
     * to the uninterrupted run.
     */
    RunResult measuredResult() const;

    /** @{ Crash-safe checkpointing (emv-ckpt-v1).
     * serialize() saves every mutable layer's persist() as a tagged
     * chunk; deserialize() loads each chunk into a machine that was
     * *constructed from the same configuration and workload* (same
     * seeds, sizes, fault plan — geometry mismatches are structured
     * errors).  Hooks, H3 filter matrices and the differential
     * auditor are deterministic or lazily rebuilt, not stored. */
    void serialize(ckpt::Writer &writer) const;
    bool deserialize(const ckpt::Reader &reader, std::string &error);
    /** The "machine" chunk: mode, run cursors and cycle pools, the
     *  terminal fault, VMM-segment info and the lazily created
     *  balloon driver and compaction daemon. */
    template <class Ar>
    void persist(Ar &ar);
    /** @} */

    /** @{ Table III mode transitions. */
    /**
     * Host compaction path: materialize contiguous backing for the
     * guest's RAM above the I/O gap, create the VMM segment, and
     * upgrade GuestDirect→DualDirect or BaseVirtualized→VmmDirect.
     * @return Pages migrated, or nullopt (failed / over budget).
     */
    std::optional<std::uint64_t>
    upgradeWithHostCompaction(std::uint64_t max_migrations = 0);

    /**
     * Self-ballooning path: create a contiguous gPA extension and
     * move the guest segment onto it (fragmented guest memory).
     * @return true when the guest segment was (re)created.
     */
    bool selfBalloonGuestSegment();

    /**
     * Table III downgrade, one lattice step: DualDirect→VmmDirect,
     * VmmDirect→BaseVirtualized, GuestDirect→BaseVirtualized,
     * NativeDirect→Native.  Retires the segment the step loses
     * (registers nulled, filter cleared, TLBs flushed); covered
     * addresses lazily re-fault onto byte-identical conventional
     * mappings (§VI.B emulation), so a differential audit stays
     * clean across the transition.
     * @return false when the current mode has no downgrade.
     */
    bool downgradeMode();
    /** @} */

    /** @{ Time-series telemetry (common/telemetry.hh).
     * attachTelemetry() registers the standard metric sources on
     * @p recorder (TLB misses, walk refs, escapes, faults, mode
     * transitions, modeled cycles, filter fills, the per-translation
     * latency histogram and the current mode), re-baselines it, and
     * starts ticking it once per trace op; mode transitions and
     * injected faults are marked as window events.  Call after the
     * warmup-boundary resetStats() so window deltas reconcile with
     * the measured-interval aggregates.  The recorder is one
     * machine's: its sources read this machine's counters, so it is
     * ticked from this machine's thread only.  Pass nullptr to
     * detach. */
    void attachTelemetry(telemetry::TelemetryRecorder *recorder);
    telemetry::TelemetryRecorder *telemetry() { return telem; }
    /** @} */

    /** @{ Fault injection and reporting. */
    /** The fault that aborted the run, if any. */
    const FaultReport *terminalFault() const
    { return _terminalFault ? &*_terminalFault : nullptr; }

    fault::FaultInjector &faultInjector() { return *injector; }
    /** @} */

    /** @{ Component access (examples, tests, benches). */
    core::Mmu &mmu() { return *_mmu; }
    os::GuestOs &os() { return *_os; }
    os::Process &process() { return *proc; }
    vmm::Vm *vm() { return _vm; }
    vmm::Vmm *vmm() { return _vmm.get(); }
    vmm::ShadowPager *shadowPager() { return shadow.get(); }
    mem::PhysMemory &hostMem() { return *_hostMem; }
    workload::Workload &workload() { return wl; }
    const MachineConfig &config() const { return cfg; }
    const segment::SegmentRegs &vmmSegment() const
    { return _mmu->vmmSegment(); }
    const segment::SegmentRegs &guestSegment() const
    { return _mmu->guestSegment(); }
    /** @} */

  private:
    /** Post-load checks of the "machine" chunk's enum values. */
    void validate(ckpt::Decoder &dec) const;
    void buildNative();
    void buildVirtualized();
    void applyGuestFragmentation();
    void placeRegions();
    void populate();
    void setupSegments();
    void wireMmu();
    void injectBadFrames();

    /** Handle a faulting translation; true if retry makes sense,
     *  false when the run must abort (terminalFault() is set). */
    bool serviceFault(const core::TranslationResult &result);

    /** @{ Scheduled-fault delivery (one call per due event). */
    void applyScheduledFaults();
    void applyFault(const fault::FaultEvent &event);
    void injectDramFault();
    void injectGuestPteCorruption();
    void injectNestedPteCorruption();
    void injectFilterSaturation();
    void injectSlotRevocation();
    void performBalloonRequest(unsigned failures);
    void performHotplugRequest(unsigned failures);
    void performCompactionRequest(unsigned failures);
    /** @} */

    /** Downgrade when either live filter crossed its fill bound. */
    void maybeDowngradeForSaturation();

    /** Record an unrecoverable fault; always returns false. */
    bool recordTerminalFault(const char *what, core::FaultSpace space,
                             Addr addr);

    /** Run @p attempt up to 1 + maxRetries times (Degrade policy;
     *  FailFast gets a single attempt), charging exponential backoff
     *  cycles between tries.  @return true on eventual success. */
    bool retryWithBackoff(const char *what,
                          const std::function<bool()> &attempt);

    /** Lazily built guest compaction daemon wired for TLB
     *  invalidation on migration. */
    os::CompactionDaemon &compactionDaemon();

    MachineConfig cfg;
    workload::Workload &wl;

    std::unique_ptr<mem::PhysMemory> _hostMem;
    std::unique_ptr<mem::HostPhysAccessor> hostAccessor;
    std::unique_ptr<vmm::Vmm> _vmm;
    vmm::Vm *_vm = nullptr;
    std::unique_ptr<os::GuestOs> _os;
    os::Process *proc = nullptr;
    std::unique_ptr<core::Mmu> _mmu;
    std::unique_ptr<vmm::ShadowPager> shadow;
    std::unique_ptr<os::BalloonDriver> balloon;
    std::unique_ptr<os::CompactionDaemon> compactor;
    std::optional<vmm::VmmSegmentInfo> vmmSegmentInfo;

    /** Borrowed windowed-metrics recorder (see attachTelemetry). */
    telemetry::TelemetryRecorder *telem = nullptr;

    /** Fault machinery (always built; the plan may be empty). */
    std::unique_ptr<fault::FaultInjector> injector;
    std::optional<FaultReport> _terminalFault;
    /** Trace ops replayed since construction (warmup + measure);
     *  fault events are scheduled against this cursor. */
    std::uint64_t opCursor = 0;

    /** Cycle pools accumulated outside the MMU. */
    double faultCyclesPool = 0.0;
    double shootdownCyclesPool = 0.0;
    std::uint64_t guestFaultCount = 0;
    std::uint64_t remapCount = 0;
    std::uint64_t accessCount = 0;
    double baseCyclesPool = 0.0;
    std::uint64_t vmExitBase = 0;
    std::uint64_t shadowExitBase = 0;
};

} // namespace emv::sim

