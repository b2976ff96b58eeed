#include "common/h3_hash.hh"

#include <bit>

#include "common/rng.hh"

namespace emv {

H3Hash::H3Hash(unsigned output_bits, std::uint64_t seed)
    : bits(output_bits)
{
    emv_assert(output_bits >= 1 && output_bits <= 32,
               "H3 output width %u out of range [1, 32]", output_bits);
    std::uint64_t sm = seed;
    const std::uint32_t mask =
        output_bits == 32 ? 0xffffffffu : ((1u << output_bits) - 1);
    // One random column per input bit, drawn in bit order.
    std::uint32_t column[8 * kKeyBytes];
    for (auto &c : column)
        c = static_cast<std::uint32_t>(splitMix64(sm)) & mask;
    // Each byte value extends a smaller one by its lowest set bit.
    for (unsigned i = 0; i < kKeyBytes; ++i) {
        table[i][0] = 0;
        for (unsigned b = 1; b < 256; ++b) {
            table[i][b] = table[i][b & (b - 1)] ^
                          column[8 * i + std::countr_zero(b)];
        }
    }
}

H3Family::H3Family(unsigned num_hashes, unsigned output_bits,
                   std::uint64_t seed)
{
    hashes.reserve(num_hashes);
    std::uint64_t sm = seed;
    for (unsigned i = 0; i < num_hashes; ++i)
        hashes.emplace_back(output_bits, splitMix64(sm));
}

} // namespace emv
