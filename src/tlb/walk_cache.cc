#include "tlb/walk_cache.hh"

#include <utility>

#include "common/audit.hh"

namespace emv::tlb {

WalkCache::WalkCache(unsigned sets, unsigned ways, std::string name)
    : array(sets, ways), _stats(std::move(name))
{
}

std::optional<Addr>
WalkCache::lookup(std::uint64_t key)
{
    if (auto next_table = array.find(key)) {
        ++_stats.hits;
        return *next_table;
    }
    ++_stats.misses;
    return std::nullopt;
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

bool
LineCache::access(Addr pa)
{
    const bool hit = array.insert(pa >> 6, 0).present;
    ++(hit ? _stats.hits : _stats.misses);
    return hit;
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
