/**
 * @file
 * One set-associative LRU array: the storage behind every MMU cache
 * (the TLBs, the paging-structure caches and the PTE-line cache).
 *
 * An entry is a 64-bit tag, a 64-bit value and a 64-bit LRU stamp.
 * Users pack everything a lookup must match into the tag, so each
 * way costs one compare.  The set index is mix(tag) & (sets - 1).
 * Stamps come from one tick per array, so among valid entries they
 * are unique and the LRU order is total.  The victim is the first
 * invalid way, else the way with the smallest stamp.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/audit.hh"
#include "common/types.hh"

namespace emv {
namespace ckpt {
class Encoder;
class Decoder;
} // namespace ckpt
} // namespace emv

namespace emv::tlb {

/** Cheap 64-bit mix for set indexing. */
inline std::uint64_t
mix(std::uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
    return x;
}

class SetAssoc
{
  public:
    /** What insert() found in the set. */
    struct InsertResult
    {
        bool present = false;  //!< The tag was cached (value updated).
        bool evicted = false;  //!< A valid entry made room for it.
    };

    using TagPredicate = std::function<bool(std::uint64_t tag)>;

    SetAssoc(unsigned sets, unsigned ways);

    /** @return The value cached under @p tag (LRU refreshed). */
    std::optional<std::uint64_t> find(std::uint64_t tag);

    /** Cache @p value under @p tag, replacing the set's victim. */
    InsertResult insert(std::uint64_t tag, std::uint64_t value);

    /** Invalidate @p tag if cached. */
    void erase(std::uint64_t tag);

    /** Invalidate every entry whose tag satisfies @p pred. */
    void eraseIf(const TagPredicate &pred);

    /** Number of valid entries whose tag satisfies @p pred. */
    std::size_t countIf(const TagPredicate &pred) const;

    /** Invalidate everything. */
    void clear();

    unsigned sets() const { return numSets; }
    unsigned ways() const { return numWays; }

    /**
     * Checkpoint geometry, LRU clock and entries.  deserialize()
     * fails (structured, naming @p owner) if the saved geometry or
     * entry count differs.
     */
    void serialize(ckpt::Encoder &enc) const;
    bool deserialize(ckpt::Decoder &dec, const std::string &owner);

  private:
    struct Entry
    {
        std::uint64_t tag = 0;
        std::uint64_t value = 0;
        std::uint64_t lru = 0;
        bool valid = false;
    };

    Entry *
    setOf(std::uint64_t tag)
    {
        return &entries[(mix(tag) & (numSets - 1)) * numWays];
    }

    unsigned numSets;
    unsigned numWays;
    std::uint64_t tick = 0;
    std::vector<Entry> entries;
};

inline std::optional<std::uint64_t>
SetAssoc::find(std::uint64_t tag)
{
    Entry *set = setOf(tag);
    for (unsigned w = 0; w < numWays; ++w) {
        Entry &e = set[w];
        if (e.valid && e.tag == tag) {
            e.lru = ++tick;
            return e.value;
        }
    }
    return std::nullopt;
}

inline SetAssoc::InsertResult
SetAssoc::insert(std::uint64_t tag, std::uint64_t value)
{
    Entry *set = setOf(tag);
    Entry *victim = nullptr;
    for (unsigned w = 0; w < numWays; ++w) {
        Entry &e = set[w];
        if (!e.valid) {
            if (!victim || victim->valid)
                victim = &e;
        } else if (e.tag == tag) {
            e.value = value;
            e.lru = ++tick;
            return {true, false};
        } else if (!victim || (victim->valid && e.lru < victim->lru)) {
            victim = &e;
        }
    }
    const bool evicted = victim->valid;
    *victim = Entry{tag, value, ++tick, true};
    EMV_INVARIANT([&] {
                      unsigned copies = 0;
                      for (unsigned w = 0; w < numWays; ++w)
                          copies += set[w].valid && set[w].tag == tag;
                      return copies == 1;
                  }(),
                  "set-associative array: tag %s stored twice",
                  hexAddr(tag).c_str());
    return {false, evicted};
}

} // namespace emv::tlb
