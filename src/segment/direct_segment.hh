/**
 * @file
 * Direct-segment register file (§II.B, §III).
 *
 * Three registers per hardware context map a contiguous chunk of one
 * address space onto a contiguous chunk of the next: BASE and LIMIT
 * bound the source range, OFFSET is the (two's-complement) distance
 * to the destination.  An address V with BASE <= V < LIMIT
 * translates to V + OFFSET by pure addition — no TLB entry, no walk.
 *
 * The proposed hardware has two such register sets: the *guest
 * segment* (BASE_G/LIMIT_G/OFFSET_G, gVA→gPA) and the *VMM segment*
 * (BASE_V/LIMIT_V/OFFSET_V, gPA→hPA).  Setting BASE == LIMIT
 * disables a set — the paper's trick for nullifying modes.
 */

#pragma once

#include <cstdint>
#include <string>

#include "common/types.hh"

namespace emv::segment {

/** One BASE/LIMIT/OFFSET register set. */
class SegmentRegs
{
  public:
    /** Disabled segment (BASE == LIMIT == 0). */
    constexpr SegmentRegs() = default;

    /**
     * @param base   First source address covered.
     * @param limit  One past the last source address covered.
     * @param offset Destination minus source (wrapping uint64).
     */
    constexpr SegmentRegs(Addr base, Addr limit, std::uint64_t offset)
        : _base(base), _limit(limit), _offset(offset)
    {}

    /** Build from source base/length and destination base. */
    static constexpr SegmentRegs
    fromRanges(Addr src_base, Addr length, Addr dst_base)
    {
        return SegmentRegs(src_base, src_base + length,
                           dst_base - src_base);
    }

    /** True when BASE < LIMIT (paper: BASE==LIMIT disables). */
    constexpr bool enabled() const { return _base < _limit; }

    /** Base-bound check: BASE <= addr < LIMIT. */
    constexpr bool
    contains(Addr addr) const
    {
        return enabled() && addr >= _base && addr < _limit;
    }

    /** Translate (caller must have checked contains()). */
    constexpr Addr translate(Addr addr) const { return addr + _offset; }

    /** Disable (BASE = LIMIT = 0). */
    void clear() { _base = 0; _limit = 0; _offset = 0; }

    constexpr Addr base() const { return _base; }
    constexpr Addr limit() const { return _limit; }
    constexpr std::uint64_t offset() const { return _offset; }
    constexpr Addr length() const
    { return enabled() ? _limit - _base : 0; }

    std::string toString() const;

    /** Checkpoint BASE, LIMIT and OFFSET. */
    template <class Ar>
    void persist(Ar &ar);

    constexpr bool operator==(const SegmentRegs &) const = default;

  private:
    Addr _base = 0;
    Addr _limit = 0;
    std::uint64_t _offset = 0;
};

} // namespace emv::segment

