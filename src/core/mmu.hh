/**
 * @file
 * The proposed MMU: Fig. 5's translation flow chart.
 *
 * One Mmu implements all six modes.  Switching mode only changes
 * which segment register sets are live and how the page-walk state
 * machine flattens dimensions — mirroring the paper's observation
 * that setting BASE = LIMIT "nullifies" the corresponding boxes of
 * the flow chart.
 *
 * Flow on every access:
 *   1. L1 TLB lookup (split 4K/2M/1G) — hit ends translation.
 *   2. Dual Direct only: both-segment check; a hit computes
 *      hPA = gVA + OFFSET_G + OFFSET_V and refills the L1 (a 0D
 *      walk).  The escape filter is checked in parallel.
 *   3. L2 TLB lookup (the unvirtualized direct-segment check also
 *      runs here, in parallel with the L2 — the "less intrusive
 *      hardware" of §III.D).
 *   4. Page walk, flattened per mode:
 *        Native/NativeDirect: 1D walk.
 *        BaseVirtualized:     2D walk; gPA→hPA via nested TLB
 *                             entries in the shared L2, else nested
 *                             table walk.
 *        VmmDirect:           guest walk with each gPA translated by
 *                             the VMM segment (escape filter aware),
 *                             falling back to nested paging.
 *        GuestDirect:         gPA = gVA + OFFSET_G, then nested
 *                             translation of the data gPA only.
 *        DualDirect:          Table I's "VMM only" / "Guest only" /
 *                             "Neither" categories.
 */

#pragma once

#include <memory>
#include <optional>
#include <ostream>
#include <vector>

#include "common/stats.hh"
#include "common/telemetry.hh"
#include "common/types.hh"
#include "core/cost_model.hh"
#include "core/mode.hh"
#include "paging/walk.hh"
#include "segment/direct_segment.hh"
#include "segment/escape_filter.hh"
#include "tlb/tlb_hierarchy.hh"
#include "tlb/walk_cache.hh"

namespace emv::mem { class PhysMemory; }

namespace emv {
namespace ckpt {
class Encoder;
class Decoder;
} // namespace ckpt
} // namespace emv

namespace emv::core {

class DifferentialAuditor;

/** Construction-time knobs. */
struct MmuConfig
{
    tlb::TlbGeometry tlbGeometry{};
    CostModel costs{};

    bool walkCachesEnabled = true;      //!< Paging-structure caches.
    bool nestedTlbShared = true;        //!< Nested entries use the L2.

    unsigned filterBits = 256;          //!< Escape filter geometry.
    unsigned filterHashes = 4;
    std::uint64_t filterSeed = 0x5eedf117e2ull;
};

/** Which address space faulted during a translation. */
enum class FaultSpace { None, Guest, Nested };

/** How a translation was resolved (for stats / tests). */
enum class TranslatePath {
    L1Hit,
    DualSegment,     //!< Both segments (0D) — Table I "Both".
    NativeSegment,   //!< Unvirtualized direct segment.
    L2Hit,
    Walk,
    Fault,
};

/** @{ Printable enum names for traces and test failure messages. */
const char *toString(FaultSpace space);
const char *toString(TranslatePath path);
std::ostream &operator<<(std::ostream &os, FaultSpace space);
std::ostream &operator<<(std::ostream &os, TranslatePath path);
/** @} */

/** Result of Mmu::translate(). */
struct TranslationResult
{
    Addr hpa = 0;
    bool ok = false;
    Cycles cycles = 0;            //!< Translation overhead cycles.
    TranslatePath path = TranslatePath::Fault;
    FaultSpace faultSpace = FaultSpace::None;
    Addr faultAddr = 0;           //!< gVA or gPA that faulted.
};

/**
 * The MMU.  Owns the TLB hierarchy, walk caches, segment registers
 * and escape filters; its walks read page tables out of host
 * physical memory.
 */
class Mmu
{
  public:
    /** The MMU's counters; its dump is the perfbench fingerprint. */
    struct Stats : StatGroup
    {
        Stats() : StatGroup("mmu") {}
        Counter accesses{*this, "accesses"};
        Counter l1Hits{*this, "l1_hits"};
        Counter l1Misses{*this, "l1_misses"};
        Counter l2Hits{*this, "l2_hits"};
        Counter l2Misses{*this, "l2_misses"};
        Counter walks{*this, "walks"};
        Counter ddFastHits{*this, "dd_fast_hits"};
        Counter dsFastHits{*this, "ds_fast_hits"};
        Counter catBoth{*this, "cat_both"};
        Counter catVmmOnly{*this, "cat_vmm_only"};
        Counter catGuestOnly{*this, "cat_guest_only"};
        Counter catNeither{*this, "cat_neither"};
        Counter guestRefs{*this, "guest_refs"};
        Counter nestedRefs{*this, "nested_refs"};
        Counter nativeRefs{*this, "native_refs"};
        Counter calculations{*this, "calculations"};
        Counter nestedTlbHits{*this, "nested_tlb_hits"};
        Counter nestedTlbMisses{*this, "nested_tlb_misses"};
        Counter escapeSlowPaths{*this, "escape_slow_paths"};
        Counter faults{*this, "faults"};
        Scalar walkCycles{*this, "walk_cycles"};
        Scalar translationCycles{*this, "translation_cycles"};
        Distribution cyclesPerWalk{*this, "cycles_per_walk"};
    };

    Mmu(mem::PhysMemory &host_mem, const MmuConfig &config = {});
    ~Mmu();

    /** @{ Mode and translation-source plumbing. */
    void setMode(Mode mode);
    Mode mode() const { return _mode; }

    /** Root of the native (or shadow) 1D table, a host PA. */
    void setNativeRoot(Addr root_pa);
    /** Root of the guest page table, a *guest* PA. */
    void setGuestRoot(Addr root_gpa);
    /** Root of the nested page table, a host PA. */
    void setNestedRoot(Addr root_hpa);

    void setGuestSegment(const segment::SegmentRegs &regs);
    void setVmmSegment(const segment::SegmentRegs &regs);
    const segment::SegmentRegs &guestSegment() const
    { return guestSeg; }
    const segment::SegmentRegs &vmmSegment() const { return vmmSeg; }

    /** Escape filter over the VMM segment (Dual/VMM Direct). */
    segment::EscapeFilter &vmmFilter() { return *_vmmFilter; }
    /** Escape filter over the guest segment (Direct Segment mode). */
    segment::EscapeFilter &guestFilter() { return *_guestFilter; }

    /** @{ Graceful degradation (Table III downgrades).
     * Retire a segment: null its registers (BASE = LIMIT), clear
     * its escape filter, and flush cached translations so every
     * covered address re-walks through the page tables. */
    void retireGuestSegment();
    void retireVmmSegment();
    /** @} */
    /** @} */

    /**
     * Translate one guest virtual (or native virtual) address.
     * Faults do not modify TLB state; callers service the fault and
     * retry.
     */
    TranslationResult translate(Addr gva);

    /** Guest process context switch: guest TLB entries + guest PSC. */
    void flushGuestContext();

    /** VM switch or nested-table change: everything. */
    void flushAll();

    /** Invalidate one guest page (guest unmap / remap). */
    void invalidateGuestPage(Addr gva, PageSize size);

    /** Invalidate one nested page (VMM remap / swap / migration). */
    void invalidateNestedPage(Addr gpa, PageSize size);

    tlb::TlbHierarchy &tlbs() { return tlbHier; }
    Stats &stats() { return _stats; }
    /** This group plus its TLBs', walk caches' and filters'. */
    std::vector<const StatGroup *> statGroups();
    const CostModel &costs() const { return config.costs; }
    const MmuConfig &configuration() const { return config; }

    /**
     * Per-translation modeled latency (cycles) of every resolved
     * translation — all paths, L1 hits included, not just walks.
     * This is the telemetry hot-path API: readers window and
     * percentile it without any string-keyed registry lookups.
     */
    const telemetry::LatencyHistogram &translationLatency() const
    { return translationLatencyHist; }
    /** Zero the latency histogram (end of warmup, with the stats). */
    void resetTranslationLatency() { translationLatencyHist.reset(); }

    /**
     * Translation fractions measured so far, for the Table IV
     * linear models: F_DD, F_VD, F_GD over all walks + DD fast hits.
     */
    double fractionBoth() const;
    double fractionVmmOnly() const;
    double fractionGuestOnly() const;

    /**
     * Checkpoint the full translation state: mode, roots, segment
     * registers, escape filters, TLB hierarchy, walk caches,
     * PTE-line cache and stats.  (Table contents live in PhysMemory;
     * the auditor is stateless and rebuilt lazily.)
     */
    template <class Ar>
    void persist(Ar &ar);

  private:
    /** Post-load check: the mode is one of the six. */
    void validate(ckpt::Decoder &dec) const;

    friend class DifferentialAuditor;

    /** translate() minus the audit hook (all the real work). */
    TranslationResult translateImpl(Addr gva);

    /** Price a trace's refs through the PTE-line cache; counts the
     *  refs that hit a cached line into @p line_hits. */
    Cycles priceTrace(const paging::WalkTrace &trace,
                      unsigned &line_hits);

    /** Mode-dispatched walk; fills trace and category stats. */
    paging::WalkOutcome doWalk(Addr gva, paging::WalkTrace &trace);

    /** gPA→hPA via nested TLB + nested table walk. */
    paging::WalkOutcome nestedToHost(Addr gpa,
                                     paging::WalkTrace &trace);

    /** gPA→hPA via VMM segment (filter-aware), else nested paging. */
    paging::WalkOutcome segmentToHost(Addr gpa,
                                      paging::WalkTrace &trace,
                                      bool &used_paging);

    /** @p category's share of walks plus segment fast hits. */
    double categoryFraction(const Counter &category) const;

    /** Largest TLB granule consistent with a segment translation. */
    static PageSize segmentGranule(std::uint64_t offset);

    mem::PhysMemory &hostMem;
    MmuConfig config;
    Mode _mode = Mode::Native;

    tlb::TlbHierarchy tlbHier;
    tlb::WalkCache guestPsc;
    tlb::WalkCache nestedPsc;
    tlb::LineCache pteLines;

    Addr nativeRoot = 0;
    Addr guestRoot = 0;
    Addr nestedRoot = 0;
    bool nativeRootValid = false;
    bool guestRootValid = false;
    bool nestedRootValid = false;

    segment::SegmentRegs guestSeg;
    segment::SegmentRegs vmmSeg;
    std::unique_ptr<segment::EscapeFilter> _vmmFilter;
    std::unique_ptr<segment::EscapeFilter> _guestFilter;

    /** Lazily built differential checker (audit mode only). */
    std::unique_ptr<DifferentialAuditor> auditor;

    /** Per-walk scratch state (reset in translate()). */
    FaultSpace pendingFaultSpace = FaultSpace::None;
    Addr pendingFaultAddr = 0;
    Cycles walkSideCycles = 0;

    Stats _stats;

    /** Cumulative per-translation latency (telemetry tail metrics). */
    telemetry::LatencyHistogram translationLatencyHist;
};

} // namespace emv::core

