/**
 * @file
 * MMU caches: paging-structure cache and PTE-line cache.
 *
 * The paper's measured 2D walks cost ~2.4x native per miss, not the
 * worst-case 6x, because real hardware caches intermediate
 * translations (translation caching [7], large-reach MMU caches
 * [12]) and holds hot PTE cache lines in the data-cache hierarchy.
 * Two structures model this:
 *
 *  - WalkCache: a paging-structure cache mapping (level, va-prefix)
 *    to the next table base, letting walks skip upper levels;
 *  - LineCache: a small cache of 64-byte PTE lines deciding whether
 *    each remaining walk reference is priced as a cache hit or a
 *    memory access.
 */

#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "common/stats.hh"
#include "common/types.hh"
#include "tlb/set_assoc.hh"

namespace emv::tlb {

/** Hit, miss and flush counts of a WalkCache or LineCache. */
struct CacheStats : StatGroup
{
    using StatGroup::StatGroup;
    Counter hits{*this, "hits"};
    Counter misses{*this, "misses"};
    Counter flushes{*this, "flushes"};
};

/**
 * Set-associative cache of page-walk intermediate results.
 *
 * A hit for key (level L, va prefix) yields the base address of the
 * table to be indexed at level L-1, skipping reads of levels > L-1.
 */
class WalkCache
{
  public:
    WalkCache(unsigned sets, unsigned ways,
              StatName name = "walkcache");

    /** Compose the lookup key for @p level and address @p va. */
    static std::uint64_t
    key(int level, Addr va)
    {
        // Prefix consumed by levels above and including this one.
        // Levels run 1..4, so the tag needs three bits — two would
        // alias level 4 into the prefix and confuse neighbouring
        // 512 GB regions.
        const unsigned shift = 12 + 9 * static_cast<unsigned>(level - 1);
        return ((va >> shift) << 3) | static_cast<unsigned>(level);
    }

    std::optional<Addr> lookup(std::uint64_t key);
    void insert(std::uint64_t key, Addr next_table);
    void flush();

    StatGroup &stats() { return _stats; }

    /** Checkpoint entries, LRU clock and stats. */
    template <class Ar>
    void persist(Ar &ar);

  private:
    SetAssoc array;
    CacheStats _stats;
};

/**
 * Small set-associative cache of 64-byte lines standing in for PTE
 * residency in the data-cache hierarchy.  access() returns whether
 * the line was already present and inserts it.
 */
class LineCache
{
  public:
    LineCache(unsigned sets, unsigned ways,
              StatName name = "linecache");

    /** Touch the line containing @p pa; @return true on hit. */
    bool access(Addr pa);
    void flush();

    StatGroup &stats() { return _stats; }

    /** Checkpoint entries, LRU clock and stats. */
    template <class Ar>
    void persist(Ar &ar);

  private:
    SetAssoc array;
    CacheStats _stats;
};

inline std::optional<Addr>
WalkCache::lookup(std::uint64_t key)
{
    if (auto next_table = array.find(key)) {
        ++_stats.hits;
        return *next_table;
    }
    ++_stats.misses;
    return std::nullopt;
}

inline bool
LineCache::access(Addr pa)
{
    const bool hit = array.insert(pa >> 6, 0).present;
    ++(hit ? _stats.hits : _stats.misses);
    return hit;
}

} // namespace emv::tlb

