#include "tlb/tlb.hh"

#include <algorithm>

#include "common/audit.hh"
#include "common/ckpt.hh"
#include "common/logging.hh"

namespace emv::tlb {

namespace {

/** Tag predicate: the entry translates for @p kind. */
SetAssoc::TagPredicate
ofKind(EntryKind kind)
{
    return [kind](std::uint64_t tag) {
        return ((tag >> 2) & 3) == static_cast<std::uint64_t>(kind);
    };
}

} // namespace

Tlb::Tlb(StatName name, unsigned sets, unsigned ways)
    : array(sets, ways), _stats(name)
{
}

void
Tlb::misalignedFrame(Addr frame, PageSize size)
{
    emv_panic("TLB insert: frame %s not aligned to %s",
              hexAddr(frame).c_str(), pageSizeName(size));
}

void
Tlb::flushPage(EntryKind kind, Addr addr, PageSize size)
{
    const std::uint64_t tag = tagOf(kind, addr, size);
    if (array.erase(tag))
        --live[tag & 15];
}

void
Tlb::flushKind(EntryKind kind)
{
    array.eraseIf(ofKind(kind));
    const std::size_t first = static_cast<std::size_t>(kind) << 2;
    std::fill(live.begin() + first, live.begin() + first + 4, 0);
    ++_stats.kindFlushes;
    checkCounts();
}

void
Tlb::flushAll()
{
    array.clear();
    live.fill(0);
    ++_stats.fullFlushes;
    checkCounts();
}

std::size_t
Tlb::occupancy(EntryKind kind) const
{
    return array.countIf(ofKind(kind));
}

Tlb::ClassCounts
Tlb::recount() const
{
    ClassCounts counts{};
    for (std::size_t c = 0; c < counts.size(); ++c) {
        counts[c] = static_cast<std::uint32_t>(array.countIf(
            [c](std::uint64_t tag) { return (tag & 15) == c; }));
    }
    return counts;
}

void
Tlb::checkCounts() const
{
    EMV_INVARIANT(live == recount(),
                  "%s: live class counts differ from the array",
                  _stats.name().c_str());
}

template <class Ar>
void
Tlb::persist(Ar &ar)
{
    array.persist(ar, _stats.name());
    if constexpr (Ar::loading)
        live = recount();
    _stats.persist(ar);
}

template void Tlb::persist(ckpt::Encoder &);
template void Tlb::persist(ckpt::Decoder &);

} // namespace emv::tlb
