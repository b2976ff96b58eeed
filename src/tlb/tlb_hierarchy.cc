#include "tlb/tlb_hierarchy.hh"

#include "common/ckpt.hh"
#include "common/trace.hh"

namespace emv::tlb {

TlbHierarchy::TlbHierarchy(const TlbGeometry &g)
    : l1Tlb4K("l1tlb4k", g.l1Sets4K, g.l1Ways4K),
      l1Tlb2M("l1tlb2m", g.l1Sets2M, g.l1Ways2M),
      l1Tlb1G("l1tlb1g", g.l1Sets1G, g.l1Ways1G),
      l2Tlb("l2tlb", g.l2Sets, g.l2Ways)
{
}

void
TlbHierarchy::setStatsParent(const StatGroup *parent)
{
    l1Tlb4K.stats().setParent(parent);
    l1Tlb2M.stats().setParent(parent);
    l1Tlb1G.stats().setParent(parent);
    l2Tlb.stats().setParent(parent);
}

void
TlbHierarchy::flushGuest()
{
    EMV_TRACE(Tlb, "flush guest (context switch)");
    l1Tlb4K.flushKind(EntryKind::Guest);
    l1Tlb2M.flushKind(EntryKind::Guest);
    l1Tlb1G.flushKind(EntryKind::Guest);
    l2Tlb.flushKind(EntryKind::Guest);
}

void
TlbHierarchy::flushAll()
{
    EMV_TRACE(Tlb, "flush all");
    l1Tlb4K.flushAll();
    l1Tlb2M.flushAll();
    l1Tlb1G.flushAll();
    l2Tlb.flushAll();
}

void
TlbHierarchy::flushGuestPage(Addr gva, PageSize size)
{
    EMV_TRACE(Tlb, "flush guest page gva=%s size=%s",
              hexAddr(gva).c_str(), pageSizeName(size));
    l1For(size).flushPage(EntryKind::Guest, gva, size);
    l2Tlb.flushPage(EntryKind::Guest, gva, size);
}

void
TlbHierarchy::flushNestedPage(Addr gpa, PageSize size)
{
    EMV_TRACE(Tlb, "flush nested page gpa=%s size=%s",
              hexAddr(gpa).c_str(), pageSizeName(size));
    l2Tlb.flushPage(EntryKind::Nested, gpa, size);
}

template <class Ar>
void
TlbHierarchy::persist(Ar &ar)
{
    l1Tlb4K.persist(ar);
    l1Tlb2M.persist(ar);
    l1Tlb1G.persist(ar);
    l2Tlb.persist(ar);
}

template void TlbHierarchy::persist(ckpt::Encoder &);
template void TlbHierarchy::persist(ckpt::Decoder &);

} // namespace emv::tlb
