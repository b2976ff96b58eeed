#include "tlb/walk_cache.hh"

#include <utility>

#include "common/audit.hh"

namespace emv::tlb {

WalkCache::WalkCache(unsigned sets, unsigned ways, std::string name)
    : array(sets, ways), _stats(std::move(name))
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

void
WalkCache::serialize(ckpt::Encoder &enc) const
{
    array.serialize(enc);
    _stats.serialize(enc);
}

bool
WalkCache::deserialize(ckpt::Decoder &dec)
{
    return array.deserialize(dec, _stats.name()) &&
           _stats.deserialize(dec);
}

LineCache::LineCache(unsigned sets, unsigned ways, std::string name)
    : array(sets, ways), _stats(std::move(name))
{
}

void
LineCache::flush()
{
    array.clear();
    ++_stats.flushes;
}

void
LineCache::serialize(ckpt::Encoder &enc) const
{
    array.serialize(enc);
    _stats.serialize(enc);
}

bool
LineCache::deserialize(ckpt::Decoder &dec)
{
    return array.deserialize(dec, _stats.name()) &&
           _stats.deserialize(dec);
}

} // namespace emv::tlb
