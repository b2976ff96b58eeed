/**
 * @file
 * One set-associative LRU array: the storage behind every MMU cache
 * (the TLBs, the paging-structure caches and the PTE-line cache).
 *
 * An entry is a 64-bit tag, a 64-bit value and a 64-bit LRU stamp,
 * each kept in its own array (plus one of valid bytes).
 * Users pack everything a lookup must match into the tag, so each
 * way costs one compare.  The set index is mix(tag) & (sets - 1).
 * Stamps come from one tick per array, so among valid entries they
 * are unique, lie in [1, tick], and the LRU order is total.  The
 * victim is the first invalid way, else the way with the smallest
 * stamp.
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
        std::uint64_t evictedTag = 0;  //!< Its tag, when evicted.
    };

    using TagPredicate = std::function<bool(std::uint64_t tag)>;

    SetAssoc(unsigned sets, unsigned ways);

    /** @return The value cached under @p tag (LRU refreshed). */
    std::optional<std::uint64_t> find(std::uint64_t tag);

    /** Cache @p value under @p tag, replacing the set's victim. */
    InsertResult insert(std::uint64_t tag, std::uint64_t value);

    /** Invalidate @p tag if cached; @return true if it was. */
    bool erase(std::uint64_t tag);

    /** Invalidate every entry whose tag satisfies @p pred. */
    void eraseIf(const TagPredicate &pred);

    /** Number of valid entries whose tag satisfies @p pred. */
    std::size_t countIf(const TagPredicate &pred) const;

    /** Invalidate everything. */
    void clear();

    unsigned sets() const { return numSets; }
    unsigned ways() const { return numWays; }

    /**
     * Checkpoint geometry, LRU clock and entries, each entry as
     * tag, value, stamp, valid.  A load fails (structured, naming
     * @p owner) if the saved geometry or entry count differs, or if
     * a valid entry's stamp lies outside [1, tick].
     */
    template <class Ar>
    void persist(Ar &ar, const std::string &owner = "set_assoc");

  private:
    /** Post-load check: insert() relies on valid stamps lying in
     *  [1, tick] to pick its victim. */
    void validate(ckpt::Decoder &dec, const std::string &owner) const;

    /** Audit, kept out of line so insert() stays small: @p tag is
     *  stored in exactly one way of the set at @p base. */
    [[gnu::cold]] void checkSingleCopy(std::size_t base,
                                       std::uint64_t tag) const;

    /** Index of the first way of @p tag's set. */
    std::size_t
    setBase(std::uint64_t tag) const
    {
        return (mix(tag) & (numSets - 1)) * numWays;
    }

    unsigned numSets;
    unsigned numWays;
    std::uint64_t tick = 0;
    // One array per field, indexed set * ways + way, so a probe
    // scans one set's tags contiguously.  An invalidated way keeps
    // its tag, value and stamp.
    std::vector<std::uint64_t> tags;
    std::vector<std::uint64_t> values;
    std::vector<std::uint64_t> stamps;
    std::vector<std::uint8_t> valid;
};

inline std::optional<std::uint64_t>
SetAssoc::find(std::uint64_t tag)
{
    const std::size_t base = setBase(tag);
    for (std::size_t i = base; i < base + numWays; ++i) {
        if (tags[i] == tag && valid[i]) {
            stamps[i] = ++tick;
            return values[i];
        }
    }
    return std::nullopt;
}

inline SetAssoc::InsertResult
SetAssoc::insert(std::uint64_t tag, std::uint64_t value)
{
    const std::size_t base = setBase(tag);
    // The victim is the first minimum of key = valid ? stamp : 0.  An
    // invalid way keys 0 and every valid stamp is at least 1, so this
    // is the first invalid way, else the least recently used one.
    // The key is a mask and the selects compile to conditional moves,
    // so the only branch per way is the (rarely taken) tag match.
    std::size_t victim = base;
    std::uint64_t victimKey = ~std::uint64_t{0};
    for (std::size_t i = base; i < base + numWays; ++i) {
        const std::uint64_t live = valid[i];
        if ((tags[i] == tag) & (live != 0)) {
            values[i] = value;
            stamps[i] = ++tick;
            return {true, false};
        }
        const std::uint64_t key = stamps[i] & (0 - live);
        const bool older = key < victimKey;
        victim = older ? i : victim;
        victimKey = older ? key : victimKey;
    }
    const bool victimValid = valid[victim] != 0;
    const InsertResult result{false, victimValid,
                              victimValid ? tags[victim] : 0};
    tags[victim] = tag;
    values[victim] = value;
    stamps[victim] = ++tick;
    valid[victim] = 1;
    if (audit::enabled()) [[unlikely]]
        checkSingleCopy(base, tag);
    return result;
}

} // namespace emv::tlb
