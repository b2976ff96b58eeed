#include "core/mmu.hh"

#include <algorithm>

#include "common/audit.hh"
#include "common/ckpt.hh"
#include "common/logging.hh"
#include "common/trace.hh"
#include "core/differential_auditor.hh"
#include "mem/phys_memory.hh"
#include "paging/walker.hh"

namespace emv::core {

using paging::RefStage;
using paging::WalkOutcome;
using paging::WalkTrace;

const char *
toString(FaultSpace space)
{
    switch (space) {
      case FaultSpace::None: return "None";
      case FaultSpace::Guest: return "Guest";
      case FaultSpace::Nested: return "Nested";
    }
    return "?";
}

const char *
toString(TranslatePath path)
{
    switch (path) {
      case TranslatePath::L1Hit: return "L1Hit";
      case TranslatePath::DualSegment: return "DualSegment";
      case TranslatePath::NativeSegment: return "NativeSegment";
      case TranslatePath::L2Hit: return "L2Hit";
      case TranslatePath::Walk: return "Walk";
      case TranslatePath::Fault: return "Fault";
    }
    return "?";
}

std::ostream &
operator<<(std::ostream &os, FaultSpace space)
{
    return os << toString(space);
}

std::ostream &
operator<<(std::ostream &os, TranslatePath path)
{
    return os << toString(path);
}

/** Per-dimension paging-structure cache: 8 sets x 4 ways. */
constexpr unsigned kPscSets = 8;
constexpr unsigned kPscWays = 4;
/** PTE-line cache: 512 sets x 8 ways of 64-byte lines. */
constexpr unsigned kPteLineSets = 512;
constexpr unsigned kPteLineWays = 8;

Mmu::Mmu(mem::PhysMemory &host_mem, const MmuConfig &config)
    : hostMem(host_mem), config(config),
      tlbHier(config.tlbGeometry),
      guestPsc(kPscSets, kPscWays, "guest_psc"),
      nestedPsc(kPscSets, kPscWays, "nested_psc"),
      pteLines(kPteLineSets, kPteLineWays),
      _vmmFilter(std::make_unique<segment::EscapeFilter>(
          config.filterBits, config.filterHashes, config.filterSeed,
          StatName("vmm_filter"))),
      _guestFilter(std::make_unique<segment::EscapeFilter>(
          config.filterBits, config.filterHashes,
          config.filterSeed ^ 0x9e3779b9ull, StatName("guest_filter")))
{
    // Child structures export under the MMU's name, so an export
    // reads "mmu.l1tlb4k.misses", "mmu.guest_psc.hits", ...
    tlbHier.setStatsParent(&_stats);
    guestPsc.stats().setParent(&_stats);
    nestedPsc.stats().setParent(&_stats);
    pteLines.stats().setParent(&_stats);
    _vmmFilter->stats().setParent(&_stats);
    _guestFilter->stats().setParent(&_stats);
}

Mmu::~Mmu() = default;

std::vector<const StatGroup *>
Mmu::statGroups()
{
    return {&_stats,
            &tlbHier.l1For(PageSize::Size4K).stats(),
            &tlbHier.l1For(PageSize::Size2M).stats(),
            &tlbHier.l1For(PageSize::Size1G).stats(),
            &tlbHier.l2().stats(),
            &guestPsc.stats(),
            &nestedPsc.stats(),
            &pteLines.stats(),
            &_vmmFilter->stats(),
            &_guestFilter->stats()};
}

void
Mmu::setMode(Mode mode)
{
    if (mode == _mode)
        return;
    _mode = mode;
    // Mode changes re-interpret TLB content conservatively.
    flushAll();
}

void
Mmu::setNativeRoot(Addr root_pa)
{
    nativeRoot = root_pa;
    nativeRootValid = true;
}

void
Mmu::setGuestRoot(Addr root_gpa)
{
    guestRoot = root_gpa;
    guestRootValid = true;
}

void
Mmu::setNestedRoot(Addr root_hpa)
{
    nestedRoot = root_hpa;
    nestedRootValid = true;
}

void
Mmu::setGuestSegment(const segment::SegmentRegs &regs)
{
    emv_assert(isAligned(regs.base(), kPage4K) &&
               isAligned(regs.limit(), kPage4K) &&
               isAligned(regs.offset(), kPage4K),
               "guest segment registers must be page aligned");
    guestSeg = regs;
    EMV_TRACE(Segment, "guest segment set: %s",
              regs.toString().c_str());
}

void
Mmu::setVmmSegment(const segment::SegmentRegs &regs)
{
    emv_assert(isAligned(regs.base(), kPage4K) &&
               isAligned(regs.limit(), kPage4K) &&
               isAligned(regs.offset(), kPage4K),
               "VMM segment registers must be page aligned");
    vmmSeg = regs;
    EMV_TRACE(Segment, "VMM segment set: %s",
              regs.toString().c_str());
}

void
Mmu::retireGuestSegment()
{
    EMV_TRACE(Segment, "guest segment retired: %s",
              guestSeg.toString().c_str());
    guestSeg.clear();
    _guestFilter->clear();
    flushAll();
}

void
Mmu::retireVmmSegment()
{
    EMV_TRACE(Segment, "VMM segment retired: %s",
              vmmSeg.toString().c_str());
    vmmSeg.clear();
    _vmmFilter->clear();
    flushAll();
}

void
Mmu::flushGuestContext()
{
    tlbHier.flushGuest();
    guestPsc.flush();
}

void
Mmu::flushAll()
{
    tlbHier.flushAll();
    guestPsc.flush();
    nestedPsc.flush();
    pteLines.flush();
}

void
Mmu::invalidateGuestPage(Addr gva, PageSize size)
{
    tlbHier.flushGuestPage(gva, size);
    // A conservative hardware would also drop PSC entries along the
    // path; flushing the guest PSC entirely models an INVLPG's
    // effect on paging-structure caches.
    guestPsc.flush();
}

void
Mmu::invalidateNestedPage(Addr gpa, PageSize size)
{
    tlbHier.flushNestedPage(gpa, size);
    nestedPsc.flush();
    // Guest entries whose translations flow through this nested page
    // are stale; without reverse maps, hardware flushes them all.
    tlbHier.flushGuest();
}

PageSize
Mmu::segmentGranule(std::uint64_t offset)
{
    if (isAligned(offset, kPage1G))
        return PageSize::Size1G;
    if (isAligned(offset, kPage2M))
        return PageSize::Size2M;
    return PageSize::Size4K;
}

Cycles
Mmu::priceTrace(const WalkTrace &trace, unsigned &line_hits)
{
    const CostModel &costs = config.costs;
    Cycles cycles =
        trace.calculations * costs.segmentCheckCycles;
    for (const auto &ref : trace.refs) {
        if (pteLines.access(ref.hpa)) {
            cycles += costs.pteCacheHitCycles;
            ++line_hits;
        } else {
            cycles += costs.pteMemCycles;
        }
    }
    return cycles;
}

WalkOutcome
Mmu::nestedToHost(Addr gpa, WalkTrace &trace)
{
    emv_assert(nestedRootValid, "nested walk without a nested root");
    if (config.nestedTlbShared) {
        if (auto hit = tlbHier.lookupNested(gpa)) {
            ++_stats.nestedTlbHits;
            walkSideCycles += config.costs.nestedTlbHitCycles;
            WalkOutcome out;
            out.pa = hit->frame + (gpa & (pageBytes(hit->size) - 1));
            out.size = hit->size;
            out.ok = true;
            return out;
        }
        ++_stats.nestedTlbMisses;
    }
    WalkOutcome out = paging::radixWalk(
        hostMem, nestedRoot, gpa, RefStage::NestedTable, trace,
        config.walkCachesEnabled ? &nestedPsc : nullptr,
        paging::hostResident);
    if (!out.ok) {
        pendingFaultSpace = FaultSpace::Nested;
        pendingFaultAddr = gpa;
        return out;
    }
    if (config.nestedTlbShared) {
        tlbHier.insertNested(alignDown(gpa, pageBytes(out.size)),
                             alignDown(out.pa, pageBytes(out.size)),
                             out.size);
    }
    return out;
}

WalkOutcome
Mmu::segmentToHost(Addr gpa, WalkTrace &trace, bool &used_paging)
{
    if (vmmSeg.enabled()) {
        ++trace.calculations;  // The base-bound check always runs.
        if (vmmSeg.contains(gpa)) {
            if (!_vmmFilter->mayContain(gpa)) {
                WalkOutcome out;
                out.pa = vmmSeg.translate(gpa);
                // Granule limited by offset alignment and by the
                // page staying inside the segment.
                PageSize granule = segmentGranule(vmmSeg.offset());
                while (granule != PageSize::Size4K) {
                    const Addr page = alignDown(gpa, pageBytes(granule));
                    if (page >= vmmSeg.base() &&
                        page + pageBytes(granule) <= vmmSeg.limit()) {
                        break;
                    }
                    granule = granule == PageSize::Size1G
                                  ? PageSize::Size2M
                                  : PageSize::Size4K;
                }
                out.size = granule;
                out.ok = true;
                return out;
            }
            ++_stats.escapeSlowPaths;
        }
    }
    used_paging = true;
    return nestedToHost(gpa, trace);
}

WalkOutcome
Mmu::doWalk(Addr gva, WalkTrace &trace)
{
    tlb::WalkCache *const psc =
        config.walkCachesEnabled ? &guestPsc : nullptr;
    if (_mode == Mode::Native || _mode == Mode::NativeDirect) {
        emv_assert(nativeRootValid, "native walk without a root");
        return paging::radixWalk(hostMem, nativeRoot, gva,
                                 RefStage::NativeTable, trace, psc,
                                 paging::hostResident);
    }

    // Virtualized: gPA→hPA by the VMM segment first (VMM/Dual
    // Direct) or by nested paging alone.  used_paging records
    // whether any step fell back to nested paging.
    const bool use_vmm_seg =
        _mode == Mode::VmmDirect || _mode == Mode::DualDirect;
    const bool guest_seg_mode =
        _mode == Mode::GuestDirect || _mode == Mode::DualDirect;
    bool used_paging = false;
    auto to_host = [&](Addr gpa) {
        return use_vmm_seg ? segmentToHost(gpa, trace, used_paging)
                           : nestedToHost(gpa, trace);
    };

    if (guest_seg_mode) {
        if (guestSeg.contains(gva) &&
            !_guestFilter->mayContain(gva)) {
            // Table I "Guest segment only"; in Dual Direct the VMM
            // segment's escape-filter re-check passing makes it
            // "Both" (the 0D fast path ran before the L2 lookup).
            ++trace.calculations;
            WalkOutcome out = to_host(guestSeg.translate(gva));
            if (out.ok) {
                ++(use_vmm_seg && !used_paging ? _stats.catBoth
                                               : _stats.catGuestOnly);
                // The linear gVA→gPA map adds no granule limit
                // beyond the guest-segment offset alignment.
                out.size = std::min(out.size,
                                    segmentGranule(guestSeg.offset()));
            }
            return out;
        }
        if (guestSeg.enabled())
            ++trace.calculations;  // Failed base-bound check.
    }

    emv_assert(guestRootValid, "2D walk without a guest root");
    const WalkOutcome out =
        paging::radixWalk(hostMem, guestRoot, gva, RefStage::GuestTable,
                          trace, psc, to_host);
    // Base Virtualized has no segments and keeps no categories.
    if (out.ok && _mode != Mode::BaseVirtualized) {
        ++(use_vmm_seg && vmmSeg.enabled() && !used_paging
               ? _stats.catVmmOnly
               : _stats.catNeither);
    }
    return out;
}

TranslationResult
Mmu::translate(Addr gva)
{
    TranslationResult result = translateImpl(gva);
    if (result.ok)
        translationLatencyHist.record(result.cycles);
    if (audit::enabled()) {
        if (!auditor)
            auditor = std::make_unique<DifferentialAuditor>(*this);
        auditor->auditTranslation(gva, result);
        EMV_CHECK(!result.ok || result.hpa < hostMem.size(),
                  "translated hPA %s beyond physical memory (%s)",
                  hexAddr(result.hpa).c_str(),
                  hexAddr(hostMem.size()).c_str());
    }
    return result;
}

TranslationResult
Mmu::translateImpl(Addr gva)
{
    ++_stats.accesses;
    TranslationResult result;
    const CostModel &costs = config.costs;

    // 1. L1 TLB.
    if (auto hit = tlbHier.lookupL1(gva)) {
        ++_stats.l1Hits;
        result.hpa = hit->frame + (gva & (pageBytes(hit->size) - 1));
        result.ok = true;
        result.cycles = costs.l1HitCycles;
        result.path = TranslatePath::L1Hit;
        EMV_TRACE(Tlb, "L1 hit gva=%s frame=%s size=%s",
                  hexAddr(gva).c_str(), hexAddr(hit->frame).c_str(),
                  pageSizeName(hit->size));
        _stats.translationCycles += static_cast<double>(result.cycles);
        return result;
    }
    ++_stats.l1Misses;
    EMV_TRACE(Tlb, "L1 miss gva=%s", hexAddr(gva).c_str());

    // 2. Dual Direct fast path: both segments hit => 0D walk.  The
    //    guest-level escape filter (the §V "both levels" extension,
    //    e.g. guard pages) is checked in parallel with the guest
    //    segment registers.
    if (_mode == Mode::DualDirect && guestSeg.contains(gva) &&
        !_guestFilter->mayContain(gva)) {
        const Addr gpa = guestSeg.translate(gva);
        if (vmmSeg.contains(gpa) && !_vmmFilter->mayContain(gpa)) {
            ++_stats.ddFastHits;
            ++_stats.catBoth;
            const Addr hpa = vmmSeg.translate(gpa);
            // Table II: one (combined) base-bound check.
            result.cycles = costs.segmentCheckCycles;
            result.hpa = hpa;
            result.ok = true;
            result.path = TranslatePath::DualSegment;
            tlbHier.l1For(PageSize::Size4K)
                .insert(tlb::EntryKind::Guest, gva,
                        alignDown(hpa, kPage4K), PageSize::Size4K);
            _stats.translationCycles += static_cast<double>(result.cycles);
            return result;
        }
    }

    // 2b. Unvirtualized direct segment: checked in parallel with the
    //     L2 lookup (§III.D's less intrusive placement).
    if (_mode == Mode::NativeDirect && guestSeg.contains(gva) &&
        _guestFilter->mayContain(gva)) {
        ++_stats.escapeSlowPaths;  // Escaped page: conventional paging.
    }
    if (_mode == Mode::NativeDirect && guestSeg.contains(gva) &&
        !_guestFilter->mayContain(gva)) {
        ++_stats.dsFastHits;
        const Addr pa = guestSeg.translate(gva);
        result.cycles = costs.segmentCheckCycles;
        result.hpa = pa;
        result.ok = true;
        result.path = TranslatePath::NativeSegment;
        tlbHier.l1For(PageSize::Size4K)
            .insert(tlb::EntryKind::Guest, gva, alignDown(pa, kPage4K),
                    PageSize::Size4K);
        _stats.translationCycles += static_cast<double>(result.cycles);
        return result;
    }

    // 3. L2 TLB.
    if (auto hit = tlbHier.lookupL2(gva)) {
        ++_stats.l2Hits;
        EMV_TRACE(Tlb, "L2 hit gva=%s frame=%s size=%s",
                  hexAddr(gva).c_str(), hexAddr(hit->frame).c_str(),
                  pageSizeName(hit->size));
        result.hpa = hit->frame + (gva & (pageBytes(hit->size) - 1));
        result.ok = true;
        result.cycles = costs.l2HitCycles;
        result.path = TranslatePath::L2Hit;
        tlbHier.l1For(hit->size)
            .insert(tlb::EntryKind::Guest,
                    alignDown(gva, pageBytes(hit->size)), hit->frame,
                    hit->size);
        _stats.translationCycles += static_cast<double>(result.cycles);
        return result;
    }
    ++_stats.l2Misses;
    EMV_TRACE(Tlb, "L2 miss gva=%s", hexAddr(gva).c_str());

    // 4. Page walk (mode-flattened).
    pendingFaultSpace = FaultSpace::None;
    pendingFaultAddr = 0;
    walkSideCycles = 0;
    WalkTrace trace;
    WalkOutcome out = doWalk(gva, trace);
    if (!out.ok) {
        ++_stats.faults;
        result.ok = false;
        result.path = TranslatePath::Fault;
        result.faultSpace = pendingFaultSpace == FaultSpace::None
                                ? FaultSpace::Guest
                                : pendingFaultSpace;
        result.faultAddr = pendingFaultSpace == FaultSpace::None
                               ? gva
                               : pendingFaultAddr;
        EMV_TRACE(Walk,
                  "record gva=%s mode=\"%s\" path=Fault space=%s "
                  "fault_addr=%s refs=%zu",
                  hexAddr(gva).c_str(), modeName(_mode),
                  toString(result.faultSpace),
                  hexAddr(result.faultAddr).c_str(),
                  trace.refs.size());
        return result;
    }

    ++_stats.walks;
    unsigned line_hits = 0;
    const Cycles walk_cycles =
        priceTrace(trace, line_hits) + walkSideCycles;
    result.cycles = walk_cycles;
    result.hpa = out.pa;
    result.ok = true;
    result.path = TranslatePath::Walk;

    const std::uint64_t guest_refs =
        trace.countStage(RefStage::GuestTable);
    const std::uint64_t nested_refs =
        trace.countStage(RefStage::NestedTable);
    const std::uint64_t native_refs =
        trace.countStage(RefStage::NativeTable) +
        trace.countStage(RefStage::ShadowTable);
    _stats.guestRefs += guest_refs;
    _stats.nestedRefs += nested_refs;
    _stats.nativeRefs += native_refs;
    _stats.calculations += trace.calculations;

    // BadgerTrap-style per-walk record: what the walk touched and
    // what it cost, one line per resolved walk.
    EMV_TRACE(Walk,
              "record gva=%s mode=\"%s\" path=Walk refs=%zu "
              "guest=%llu nested=%llu native=%llu calcs=%u "
              "pte_line_hits=%u cycles=%llu size=%s hpa=%s",
              hexAddr(gva).c_str(), modeName(_mode),
              trace.refs.size(),
              static_cast<unsigned long long>(guest_refs),
              static_cast<unsigned long long>(nested_refs),
              static_cast<unsigned long long>(native_refs),
              trace.calculations, line_hits,
              static_cast<unsigned long long>(walk_cycles),
              pageSizeName(out.size), hexAddr(out.pa).c_str());
    _stats.walkCycles += static_cast<double>(walk_cycles);
    _stats.translationCycles += static_cast<double>(walk_cycles);
    _stats.cyclesPerWalk.sample(static_cast<double>(walk_cycles));

    tlbHier.insertGuest(alignDown(gva, pageBytes(out.size)),
                        alignDown(out.pa, pageBytes(out.size)),
                        out.size);
    return result;
}

double
Mmu::categoryFraction(const Counter &category) const
{
    const double denom = static_cast<double>(
        _stats.ddFastHits.value() + _stats.dsFastHits.value() +
        _stats.walks.value());
    if (denom == 0.0)
        return 0.0;
    return static_cast<double>(category.value()) / denom;
}

double
Mmu::fractionBoth() const
{
    return categoryFraction(_stats.catBoth);
}

double
Mmu::fractionVmmOnly() const
{
    return categoryFraction(_stats.catVmmOnly);
}

double
Mmu::fractionGuestOnly() const
{
    return categoryFraction(_stats.catGuestOnly);
}

template <class Ar>
void
Mmu::persist(Ar &ar)
{
    ar.u8(_mode);
    ar.u64(nativeRoot);
    ar.u64(guestRoot);
    ar.u64(nestedRoot);
    ar.u8(nativeRootValid);
    ar.u8(guestRootValid);
    ar.u8(nestedRootValid);
    guestSeg.persist(ar);
    vmmSeg.persist(ar);
    _vmmFilter->persist(ar);
    _guestFilter->persist(ar);
    tlbHier.persist(ar);
    guestPsc.persist(ar);
    nestedPsc.persist(ar);
    pteLines.persist(ar);
    _stats.persist(ar);
    translationLatencyHist.persist(ar);
    if constexpr (Ar::loading) {
        validate(ar);
        // Scratch fault state never survives a translate() call;
        // clear it so a restore mid-run starts from a clean slate.
        pendingFaultSpace = FaultSpace::None;
        pendingFaultAddr = 0;
        walkSideCycles = 0;
    }
}

template void Mmu::persist(ckpt::Encoder &);
template void Mmu::persist(ckpt::Decoder &);

void
Mmu::validate(ckpt::Decoder &dec) const
{
    dec.check(_mode <= Mode::GuestDirect, "mmu: invalid mode value");
}

} // namespace emv::core
