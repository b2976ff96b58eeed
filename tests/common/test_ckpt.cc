/** @file Unit tests for the emv-ckpt-v1 checkpoint container. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "common/ckpt.hh"
#include "common/stats.hh"

namespace emv::ckpt {
namespace {

std::vector<std::uint8_t>
twoChunkContainer()
{
    Writer writer;
    Encoder a;
    a.u8(7);
    a.u32(0xdeadbeef);
    a.u64(0x0123456789abcdefull);
    a.f64(3.5);
    a.str("hello");
    writer.chunk("alpha", a);
    Encoder b;
    b.u64(42);
    writer.chunk("beta", b);
    return writer.serialize();
}

std::string
parseError(std::vector<std::uint8_t> bytes)
{
    Reader reader;
    EXPECT_FALSE(reader.parse(bytes.data(), bytes.size()));
    EXPECT_FALSE(reader.error().empty());
    return reader.error();
}

TEST(CkptTest, EncoderDecoderRoundTripAllTypes)
{
    Encoder enc;
    enc.u8(0xab);
    enc.u32(0x12345678);
    enc.u64(0xfedcba9876543210ull);
    enc.f64(-0.0);
    enc.f64(1.0 / 3.0);
    enc.str("");
    enc.str("emv\ncheckpoint");

    Decoder dec(enc.buffer().data(), enc.buffer().size());
    EXPECT_EQ(dec.u8(), 0xabu);
    EXPECT_EQ(dec.u32(), 0x12345678u);
    EXPECT_EQ(dec.u64(), 0xfedcba9876543210ull);
    // f64 travels as the IEEE bit pattern: -0.0 survives exactly.
    const double neg_zero = dec.f64();
    EXPECT_EQ(neg_zero, 0.0);
    EXPECT_TRUE(std::signbit(neg_zero));
    EXPECT_EQ(dec.f64(), 1.0 / 3.0);
    EXPECT_EQ(dec.str(), "");
    EXPECT_EQ(dec.str(), "emv\ncheckpoint");
    EXPECT_TRUE(dec.ok());
    EXPECT_TRUE(dec.atEnd());
}

TEST(CkptTest, DecoderLatchesOnShortRead)
{
    Encoder enc;
    enc.u32(1);
    Decoder dec(enc.buffer().data(), enc.buffer().size());
    dec.u64();  // 8 bytes from a 4-byte payload.
    EXPECT_FALSE(dec.ok());
    EXPECT_FALSE(dec.error().empty());
    // Latched: every further read is a harmless zero.
    EXPECT_EQ(dec.u32(), 0u);
    EXPECT_EQ(dec.str(), "");
}

TEST(CkptTest, DecoderFailLatchesCallerError)
{
    Encoder enc;
    enc.u8(99);
    Decoder dec(enc.buffer().data(), enc.buffer().size());
    EXPECT_EQ(dec.u8(), 99u);
    dec.fail("mode out of range");
    EXPECT_FALSE(dec.ok());
    EXPECT_EQ(dec.error(), "mode out of range");
}

TEST(CkptTest, ContainerRoundTrip)
{
    const auto bytes = twoChunkContainer();
    Reader reader;
    ASSERT_TRUE(reader.parse(bytes.data(), bytes.size()))
        << reader.error();
    EXPECT_TRUE(reader.hasChunk("alpha"));
    EXPECT_TRUE(reader.hasChunk("beta"));
    EXPECT_FALSE(reader.hasChunk("gamma"));
    EXPECT_EQ(reader.tags(),
              (std::vector<std::string>{"alpha", "beta"}));

    Decoder a = reader.chunk("alpha");
    EXPECT_EQ(a.u8(), 7u);
    EXPECT_EQ(a.u32(), 0xdeadbeefu);
    EXPECT_EQ(a.u64(), 0x0123456789abcdefull);
    EXPECT_EQ(a.f64(), 3.5);
    EXPECT_EQ(a.str(), "hello");
    EXPECT_TRUE(a.ok());
    EXPECT_TRUE(a.atEnd());

    Decoder b = reader.chunk("beta");
    EXPECT_EQ(b.u64(), 42u);
    EXPECT_TRUE(b.atEnd());
}

TEST(CkptTest, MissingChunkYieldsLatchedDecoder)
{
    const auto bytes = twoChunkContainer();
    Reader reader;
    ASSERT_TRUE(reader.parse(bytes.data(), bytes.size()));
    Decoder missing = reader.chunk("gamma");
    EXPECT_FALSE(missing.ok());
    EXPECT_EQ(missing.u64(), 0u);
}

TEST(CkptTest, RejectsBadMagic)
{
    auto bytes = twoChunkContainer();
    bytes[0] ^= 0xff;
    const std::string error = parseError(bytes);
    EXPECT_NE(error.find("magic"), std::string::npos) << error;
}

TEST(CkptTest, RejectsWrongVersion)
{
    auto bytes = twoChunkContainer();
    bytes[8] = static_cast<std::uint8_t>(kVersion + 1);
    const std::string error = parseError(bytes);
    EXPECT_NE(error.find("version"), std::string::npos) << error;
}

TEST(CkptTest, RejectsCorruptPayloadCrc)
{
    auto bytes = twoChunkContainer();
    // Flip one bit in the last chunk's payload (the u64 just before
    // the trailing 4-byte CRC).
    bytes[bytes.size() - 5] ^= 0x01;
    const std::string error = parseError(bytes);
    EXPECT_NE(error.find("CRC"), std::string::npos) << error;
}

TEST(CkptTest, RejectsTruncation)
{
    const auto whole = twoChunkContainer();
    // Every proper prefix must fail cleanly — never read past the
    // buffer, never accept a partial container.
    for (std::size_t len : {std::size_t(0), std::size_t(4),
                            std::size_t(11), whole.size() / 2,
                            whole.size() - 1}) {
        std::vector<std::uint8_t> cut(whole.begin(),
                                      whole.begin() + len);
        Reader reader;
        EXPECT_FALSE(reader.parse(cut.data(), cut.size())) << len;
        EXPECT_FALSE(reader.error().empty());
    }
}

TEST(CkptTest, RejectsTrailingGarbage)
{
    auto bytes = twoChunkContainer();
    bytes.push_back(0x00);
    parseError(bytes);
}

TEST(CkptTest, RejectsDuplicateTag)
{
    // The Writer API can't produce duplicate tags (it overwrites),
    // so corrupt a well-formed two-chunk file: rename the
    // equal-length tag "bbbb" to "aaaa".  The CRC covers only the
    // payload, so the file is otherwise valid.
    Writer writer;
    Encoder a, b;
    a.u64(1);
    b.u64(2);
    writer.chunk("aaaa", a);
    writer.chunk("bbbb", b);
    auto bytes = writer.serialize();
    const std::string blob(bytes.begin(), bytes.end());
    const auto at = blob.find("bbbb");
    ASSERT_NE(at, std::string::npos);
    std::copy_n("aaaa", 4, bytes.begin() + static_cast<long>(at));
    const std::string error = parseError(bytes);
    EXPECT_NE(error.find("duplicate"), std::string::npos) << error;
}

TEST(CkptTest, WriteFileIsAtomicAndLoadable)
{
    const std::string path =
        testing::TempDir() + "/ckpt_roundtrip.bin";
    Writer writer;
    Encoder enc;
    enc.u64(123);
    writer.chunk("only", enc);
    std::string error;
    ASSERT_TRUE(writer.writeFile(path, &error)) << error;
    // No leftover temp file after the rename.
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

    Reader reader;
    ASSERT_TRUE(reader.loadFile(path)) << reader.error();
    Decoder dec = reader.chunk("only");
    EXPECT_EQ(dec.u64(), 123u);
    std::remove(path.c_str());
}

TEST(CkptTest, LoadFileReportsMissingFile)
{
    Reader reader;
    EXPECT_FALSE(reader.loadFile(testing::TempDir() +
                                 "/no_such_checkpoint.bin"));
    EXPECT_FALSE(reader.error().empty());
}

/** A component's stat group: two declared counters. */
struct HitStats : StatGroup
{
    HitStats() : StatGroup("cache") {}
    Counter hits{*this, "hits"};
    Counter misses{*this, "misses"};
};

TEST(CkptTest, StatRestoreRejectsUndeclaredStat)
{
    StatGroup saved("cache");
    Counter hits{saved, "hits"};
    Counter retired{saved, "retired"};
    retired += 4;
    Encoder enc;
    save(enc, saved);

    HitStats restored;
    Decoder dec(enc.buffer().data(), enc.buffer().size());
    EXPECT_FALSE(load(dec, restored));
    EXPECT_FALSE(dec.ok());
    EXPECT_NE(dec.error().find("retired"), std::string::npos)
        << dec.error();
}

TEST(CkptTest, StatRestoreZeroesDeclaredStatMissingFromBytes)
{
    StatGroup saved("cache");
    Counter hits{saved, "hits"};
    hits += 9;
    Encoder enc;
    save(enc, saved);

    HitStats restored;
    ++restored.misses;
    Decoder dec(enc.buffer().data(), enc.buffer().size());
    ASSERT_TRUE(load(dec, restored));
    EXPECT_TRUE(dec.atEnd());
    EXPECT_EQ(restored.hits.value(), 9u);
    EXPECT_EQ(restored.misses.value(), 0u);
}

TEST(CkptTest, Crc32MatchesKnownVector)
{
    // The IEEE 802.3 check value for "123456789".
    EXPECT_EQ(crc32("123456789", 9), 0xcbf43926u);
}

} // namespace
} // namespace emv::ckpt
