/** @file Unit tests for the H3 universal hash family. */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/h3_hash.hh"
#include "common/rng.hh"

namespace emv {
namespace {

TEST(H3HashTest, DeterministicForSeed)
{
    H3Hash a(8, 42), b(8, 42);
    for (std::uint64_t key = 0; key < 100; ++key)
        EXPECT_EQ(a(key), b(key));
}

TEST(H3HashTest, ZeroKeyHashesToZero)
{
    // H3 is linear over GF(2): h(0) = 0 by construction.
    H3Hash h(8, 7);
    EXPECT_EQ(h(0), 0u);
}

TEST(H3HashTest, Linearity)
{
    // h(a ^ b) == h(a) ^ h(b) — the defining H3 property.
    H3Hash h(16, 99);
    std::uint64_t sm = 5;
    for (int i = 0; i < 50; ++i) {
        const std::uint64_t a = splitMix64(sm);
        const std::uint64_t b = splitMix64(sm);
        EXPECT_EQ(h(a ^ b), h(a) ^ h(b));
    }
}

TEST(H3HashTest, OutputWithinWidth)
{
    for (unsigned bits : {1u, 4u, 8u, 16u, 31u}) {
        H3Hash h(bits, 3);
        std::uint64_t sm = 11;
        for (int i = 0; i < 200; ++i) {
            const std::uint32_t mask =
                bits == 32 ? 0xffffffffu : (1u << bits) - 1;
            EXPECT_EQ(h(splitMix64(sm)) & ~mask, 0u);
        }
    }
}

TEST(H3HashTest, SpreadsKeys)
{
    H3Hash h(8, 1234);
    std::set<std::uint32_t> outputs;
    for (std::uint64_t key = 1; key <= 512; ++key)
        outputs.insert(h(key));
    // 512 keys into 256 buckets: expect most buckets used.
    EXPECT_GT(outputs.size(), 180u);
}

TEST(H3HashTest, HashIsXorOfSingleBitHashes)
{
    // The byte-sliced tables must reproduce the bit-serial definition:
    // h(k) = XOR of h(1 << i) over the set bits i of k, for every
    // output width and for keys with bits set above bit 32.
    for (unsigned bits = 1; bits <= 32; ++bits) {
        H3Hash h(bits, 0xfeed + bits);
        std::uint32_t column[64];
        for (unsigned i = 0; i < 64; ++i)
            column[i] = h(1ull << i);
        std::uint64_t sm = bits;
        for (int n = 0; n < 64; ++n) {
            std::uint64_t key = splitMix64(sm);
            if (n % 4 == 0)
                key |= 1ull << 63;
            if (n % 4 == 1)
                key &= ~0xffffffffull;  // High bits only.
            std::uint32_t expected = 0;
            for (unsigned i = 0; i < 64; ++i) {
                if (key >> i & 1)
                    expected ^= column[i];
            }
            ASSERT_EQ(h(key), expected)
                << "bits=" << bits << " key=" << key;
        }
    }
}

TEST(H3HashTest, GoldenValues)
{
    // Captured from the bit-serial implementation: the hash values
    // feed every escape-filter decision, so they must never change.
    const std::uint64_t keys[] = {0, 1, 0x80, 0xdeadbeefull,
                                  0xffffffffffffffffull,
                                  0x123456789abcdef0ull};
    const std::uint32_t family[][4] = {
        {0, 0, 0, 0},       {65, 170, 6, 230},  {97, 102, 211, 16},
        {147, 70, 75, 22},  {140, 111, 41, 36}, {168, 244, 122, 212},
    };
    const std::uint32_t wide[] = {0x00000000, 0x4c476be3, 0x70ee19c3,
                                  0xb2d2b664, 0xb2c3ad4c, 0xc75af3c4};
    H3Family fam(4, 8, 0x1234);
    H3Hash w32(32, 99);
    for (std::size_t k = 0; k < std::size(keys); ++k) {
        for (unsigned h = 0; h < 4; ++h)
            EXPECT_EQ(fam.hash(h, keys[k]), family[k][h]) << k;
        EXPECT_EQ(w32(keys[k]), wide[k]) << k;
    }
}

TEST(H3FamilyTest, MembersDiffer)
{
    H3Family family(4, 8, 77);
    int collisions = 0;
    for (std::uint64_t key = 1; key <= 100; ++key) {
        if (family.hash(0, key) == family.hash(1, key))
            ++collisions;
    }
    EXPECT_LT(collisions, 10);
}

TEST(H3FamilyTest, SizeAndDeterminism)
{
    H3Family a(4, 8, 5), b(4, 8, 5);
    EXPECT_EQ(a.size(), 4u);
    for (unsigned i = 0; i < 4; ++i)
        EXPECT_EQ(a.hash(i, 12345), b.hash(i, 12345));
}

} // namespace
} // namespace emv
