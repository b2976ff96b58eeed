/**
 * @file
 * Two-level TLB hierarchy matching the evaluation platform.
 *
 * Table VI geometry (Intel Xeon E5-2430, SandyBridge):
 *   L1 D-TLB: 4K 64-entry 4-way; 2M 32-entry 4-way; 1G 4-entry FA
 *   L2 TLB:   512-entry 4-way, shared with nested (gPA→hPA) entries
 */

#pragma once

#include <optional>

#include "common/trace.hh"
#include "tlb/tlb.hh"

namespace emv::tlb {

/** Geometry knobs for the hierarchy. */
struct TlbGeometry
{
    unsigned l1Sets4K = 16;  //!< 16 sets x 4 ways = 64 entries.
    unsigned l1Ways4K = 4;
    unsigned l1Sets2M = 8;   //!< 8 x 4 = 32 entries.
    unsigned l1Ways2M = 4;
    unsigned l1Sets1G = 1;   //!< Fully associative, 4 entries.
    unsigned l1Ways1G = 4;
    unsigned l2Sets = 128;   //!< 128 x 4 = 512 entries.
    unsigned l2Ways = 4;
};

/** L1 (split by page size) + unified L2 shared with nested entries. */
class TlbHierarchy
{
  public:
    explicit TlbHierarchy(const TlbGeometry &geometry = {});

    /** Probe all L1 structures for a guest translation. */
    std::optional<TlbHit> lookupL1(Addr gva);

    /** Probe the L2 for a guest translation. */
    std::optional<TlbHit> lookupL2(Addr gva);

    /** Probe the L2 for a nested (gPA→hPA) translation. */
    std::optional<TlbHit> lookupNested(Addr gpa);

    /** Install a guest translation in L1 (and L2 as victim buffer). */
    void insertGuest(Addr gva, Addr hframe, PageSize size);

    /** Install a nested translation in the shared L2. */
    void insertNested(Addr gpa, Addr hframe, PageSize size);

    /** Guest context switch: drop guest translations (no ASIDs). */
    void flushGuest();

    /** VM switch / nested table change: drop everything. */
    void flushAll();

    /** Invalidate one guest page across levels. */
    void flushGuestPage(Addr gva, PageSize size);

    /** Invalidate one nested page in the L2. */
    void flushNestedPage(Addr gpa, PageSize size);

    Tlb &
    l1For(PageSize size)
    {
        switch (size) {
          case PageSize::Size4K: return l1Tlb4K;
          case PageSize::Size2M: return l1Tlb2M;
          case PageSize::Size1G: return l1Tlb1G;
        }
        return l1Tlb4K;
    }

    Tlb &l2() { return l2Tlb; }

    /** Reparent every TLB's stat group under @p parent. */
    void setStatsParent(const StatGroup *parent);

    /** Checkpoint all four TLBs. */
    template <class Ar>
    void persist(Ar &ar);

  private:
    Tlb l1Tlb4K;
    Tlb l1Tlb2M;
    Tlb l1Tlb1G;
    Tlb l2Tlb;
};

inline std::optional<TlbHit>
TlbHierarchy::lookupL1(Addr gva)
{
    // The split L1s are probed in parallel in hardware; at most one
    // can match because a virtual page has a single mapping size.
    if (auto hit = l1Tlb1G.lookup(EntryKind::Guest, gva,
                                  PageSize::Size1G)) {
        return hit;
    }
    if (auto hit = l1Tlb2M.lookup(EntryKind::Guest, gva,
                                  PageSize::Size2M)) {
        return hit;
    }
    return l1Tlb4K.lookup(EntryKind::Guest, gva, PageSize::Size4K);
}

inline std::optional<TlbHit>
TlbHierarchy::lookupL2(Addr gva)
{
    // Table VI: the unified L2 holds 4K translations only; 2M
    // entries live solely in the 32-entry L1 and 1G entries in the
    // 4-entry L1.  This is why large pages reduce misses through
    // *reach*, not capacity — and why 1G pages can hurt (§VIII).
    return l2Tlb.lookup(EntryKind::Guest, gva, PageSize::Size4K);
}

inline std::optional<TlbHit>
TlbHierarchy::lookupNested(Addr gpa)
{
    if (auto hit = l2Tlb.lookup(EntryKind::Nested, gpa,
                                PageSize::Size2M)) {
        return hit;
    }
    return l2Tlb.lookup(EntryKind::Nested, gpa, PageSize::Size4K);
}

inline void
TlbHierarchy::insertGuest(Addr gva, Addr hframe, PageSize size)
{
    EMV_TRACE(Tlb, "fill guest gva=%s frame=%s size=%s",
              hexAddr(gva).c_str(), hexAddr(hframe).c_str(),
              pageSizeName(size));
    l1For(size).insert(EntryKind::Guest, gva, hframe, size);
    if (size == PageSize::Size4K)
        l2Tlb.insert(EntryKind::Guest, gva, hframe, size);
}

inline void
TlbHierarchy::insertNested(Addr gpa, Addr hframe, PageSize size)
{
    EMV_TRACE(Tlb, "fill nested gpa=%s frame=%s size=%s",
              hexAddr(gpa).c_str(), hexAddr(hframe).c_str(),
              pageSizeName(size));
    if (size != PageSize::Size1G)
        l2Tlb.insert(EntryKind::Nested, gpa, hframe, size);
}

} // namespace emv::tlb

