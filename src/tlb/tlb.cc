#include "tlb/tlb.hh"

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

Tlb::Tlb(std::string name, unsigned sets, unsigned ways)
    : array(sets, ways), _stats(std::move(name))
{
}

std::optional<TlbHit>
Tlb::lookup(EntryKind kind, Addr addr, PageSize size)
{
    if (auto frame = array.find(tagOf(kind, addr, size))) {
        ++_stats.hits;
        return TlbHit{*frame, size};
    }
    ++_stats.misses;
    return std::nullopt;
}

void
Tlb::insert(EntryKind kind, Addr addr, Addr frame, PageSize size)
{
    emv_assert(isAligned(frame, pageBytes(size)),
               "TLB insert: frame %s not aligned to %s",
               hexAddr(frame).c_str(), pageSizeName(size));
    const auto found = array.insert(tagOf(kind, addr, size), frame);
    if (found.present)
        return;
    ++_stats.inserts;
    if (found.evicted)
        ++_stats.evictions;
}

void
Tlb::flushPage(EntryKind kind, Addr addr, PageSize size)
{
    array.erase(tagOf(kind, addr, size));
}

void
Tlb::flushKind(EntryKind kind)
{
    array.eraseIf(ofKind(kind));
    ++_stats.kindFlushes;
}

void
Tlb::flushAll()
{
    array.clear();
    ++_stats.fullFlushes;
}

std::size_t
Tlb::occupancy(EntryKind kind) const
{
    return array.countIf(ofKind(kind));
}

void
Tlb::serialize(ckpt::Encoder &enc) const
{
    array.serialize(enc);
    _stats.serialize(enc);
}

bool
Tlb::deserialize(ckpt::Decoder &dec)
{
    return array.deserialize(dec, _stats.name()) &&
           _stats.deserialize(dec);
}

} // namespace emv::tlb
