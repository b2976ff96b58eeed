#include "tlb/walk_cache.hh"

#include <utility>

#include "common/audit.hh"
#include "common/ckpt.hh"

namespace emv::tlb {

WalkCache::WalkCache(unsigned sets, unsigned ways, StatName name)
    : array(sets, ways), _stats(name)
{
}

void
WalkCache::insert(std::uint64_t key, Addr next_table)
{
    EMV_CHECK(isAligned(next_table, kPage4K),
              "%s: cached table pointer %s not 4K aligned",
              _stats.name().c_str(), hexAddr(next_table).c_str());
    array.insert(key, next_table);
}

void
WalkCache::flush()
{
    array.clear();
    ++_stats.flushes;
}

template <class Ar>
void
WalkCache::persist(Ar &ar)
{
    array.persist(ar, _stats.name());
    _stats.persist(ar);
}

template void WalkCache::persist(ckpt::Encoder &);
template void WalkCache::persist(ckpt::Decoder &);

LineCache::LineCache(unsigned sets, unsigned ways, StatName name)
    : array(sets, ways), _stats(name)
{
}

void
LineCache::flush()
{
    array.clear();
    ++_stats.flushes;
}

template <class Ar>
void
LineCache::persist(Ar &ar)
{
    array.persist(ar, _stats.name());
    _stats.persist(ar);
}

template void LineCache::persist(ckpt::Encoder &);
template void LineCache::persist(ckpt::Decoder &);

} // namespace emv::tlb
