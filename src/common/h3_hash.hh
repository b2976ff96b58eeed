/**
 * @file
 * H3 universal hash family.
 *
 * The escape filter (paper §V, §IX.C) is a 256-bit hardware parallel
 * Bloom filter with four H3 hash functions, following the signature
 * implementation study of Sanchez et al. [44].  An H3 hash of an
 * n-bit key is the XOR of per-bit random column vectors: for key
 * bits b_i, h(key) = XOR over set bits of matrix row q_i.  This is
 * trivially parallel in hardware (one XOR tree) which is why the
 * paper picks it.
 *
 * H3 is linear over GF(2), so the XOR tree splits by key byte: the
 * columns selected by byte i of the key XOR to table[i][byte], and
 * the hash is eight table lookups XORed together.  The tables are
 * built from the same column draws, so every hash value equals the
 * bit-serial definition's.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "common/logging.hh"

namespace emv {

/**
 * One H3 hash function over 64-bit keys producing values in
 * [0, 2^outputBits).
 */
class H3Hash
{
  public:
    /**
     * @param output_bits Width of the hash output in bits (<= 32).
     * @param seed        Seed for the random matrix.
     */
    H3Hash(unsigned output_bits, std::uint64_t seed);

    /** Hash a 64-bit key. */
    std::uint32_t
    operator()(std::uint64_t key) const
    {
        std::uint32_t result = 0;
        for (unsigned i = 0; i < kKeyBytes; ++i)
            result ^= table[i][(key >> (8 * i)) & 0xff];
        return result;
    }

    unsigned outputBits() const { return bits; }

  private:
    static constexpr unsigned kKeyBytes = 8;

    unsigned bits;
    /** table[i][b]: XOR of the columns of the set bits of byte b at
     *  key byte i. */
    std::uint32_t table[kKeyBytes][256];
};

/** A family of independent H3 functions sharing an output width. */
class H3Family
{
  public:
    H3Family(unsigned num_hashes, unsigned output_bits,
             std::uint64_t seed);

    std::uint32_t
    hash(unsigned index, std::uint64_t key) const
    {
        emv_assert(index < hashes.size(),
                   "H3 family index %u out of range", index);
        return hashes[index](key);
    }

    unsigned size() const
    { return static_cast<unsigned>(hashes.size()); }

  private:
    std::vector<H3Hash> hashes;
};

} // namespace emv
