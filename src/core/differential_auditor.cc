#include "core/differential_auditor.hh"

#include "common/audit.hh"
#include "core/mmu.hh"
#include "paging/walker.hh"

namespace emv::core {

using paging::RefStage;
using paging::WalkOutcome;
using paging::WalkTrace;

DifferentialAuditor::DifferentialAuditor(Mmu &mmu) : mmu(mmu) {}

WalkOutcome
DifferentialAuditor::referenceToHost(Addr gpa, bool use_vmm_seg,
                                     WalkTrace &trace) const
{
    if (use_vmm_seg && mmu.vmmSeg.contains(gpa) &&
        !mmu._vmmFilter->mayContain(gpa)) {
        WalkOutcome out;
        out.pa = mmu.vmmSeg.translate(gpa);
        out.size = PageSize::Size4K;
        out.ok = true;
        return out;
    }
    if (!mmu.nestedRootValid)
        return WalkOutcome{0, PageSize::Size4K, false};
    return paging::radixWalk(mmu.hostMem, mmu.nestedRoot, gpa,
                             RefStage::NestedTable, trace, nullptr,
                             paging::hostResident);
}

WalkOutcome
DifferentialAuditor::referenceTranslate(Addr gva) const
{
    WalkTrace trace;  // Discarded: the reference prices nothing.

    // Guest-segment fast path (NativeDirect / GuestDirect /
    // DualDirect): architecturally, a gVA inside [BASE_G, LIMIT_G)
    // whose page has not escaped translates by pure addition.
    const bool guest_seg_hit =
        (mmu._mode == Mode::NativeDirect ||
         mmu._mode == Mode::GuestDirect ||
         mmu._mode == Mode::DualDirect) &&
        mmu.guestSeg.contains(gva) &&
        !mmu._guestFilter->mayContain(gva);

    switch (mmu._mode) {
      case Mode::Native:
      case Mode::NativeDirect: {
        if (guest_seg_hit) {
            WalkOutcome out;
            out.pa = mmu.guestSeg.translate(gva);
            out.ok = true;
            return out;
        }
        if (!mmu.nativeRootValid)
            return WalkOutcome{0, PageSize::Size4K, false};
        return paging::radixWalk(mmu.hostMem, mmu.nativeRoot, gva,
                                 RefStage::NativeTable, trace, nullptr,
                                 paging::hostResident);
      }

      case Mode::BaseVirtualized:
      case Mode::VmmDirect:
      case Mode::GuestDirect:
      case Mode::DualDirect: {
        const bool use_vmm_seg = mmu._mode == Mode::VmmDirect ||
                                 mmu._mode == Mode::DualDirect;
        if (guest_seg_hit) {
            const Addr gpa = mmu.guestSeg.translate(gva);
            return referenceToHost(gpa, use_vmm_seg, trace);
        }
        if (!mmu.guestRootValid)
            return WalkOutcome{0, PageSize::Size4K, false};
        return paging::radixWalk(
            mmu.hostMem, mmu.guestRoot, gva, RefStage::GuestTable,
            trace, nullptr, [&](Addr gpa) {
                return referenceToHost(gpa, use_vmm_seg, trace);
            });
      }
    }
    return WalkOutcome{0, PageSize::Size4K, false};
}

bool
DifferentialAuditor::auditTranslation(Addr gva,
                                      const TranslationResult &result)
{
    audit::detail::countCheck();
    const WalkOutcome ref = referenceTranslate(gva);
    if (ref.ok == result.ok && (!ref.ok || ref.pa == result.hpa))
        return true;

    audit::reportMismatch(emv::detail::format(
        "gva=%s mode=\"%s\" path=%s: fast path %s hpa=%s, reference "
        "2D walk %s hpa=%s",
        hexAddr(gva).c_str(), modeName(mmu._mode),
        toString(result.path), result.ok ? "ok" : "fault",
        hexAddr(result.hpa).c_str(), ref.ok ? "ok" : "fault",
        hexAddr(ref.pa).c_str()));
    return false;
}

} // namespace emv::core
