/** @file Unit tests for simulated physical memory. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/ckpt.hh"
#include "mem/phys_memory.hh"
#include "../test_support.hh"

namespace emv::mem {
namespace {

TEST(PhysMemoryTest, UntouchedReadsZero)
{
    PhysMemory mem(1 * MiB);
    EXPECT_EQ(mem.read64(0), 0u);
    EXPECT_EQ(mem.read64(0x8000), 0u);
    EXPECT_EQ(mem.residentFrames(), 0u);
}

TEST(PhysMemoryTest, WriteThenRead)
{
    PhysMemory mem(1 * MiB);
    mem.write64(0x1000, 0xdeadbeefcafebabeull);
    EXPECT_EQ(mem.read64(0x1000), 0xdeadbeefcafebabeull);
    EXPECT_EQ(mem.read64(0x1008), 0u);
    EXPECT_EQ(mem.residentFrames(), 1u);
}

TEST(PhysMemoryTest, SparseMaterialization)
{
    PhysMemory mem(1 * GiB);
    mem.write64(0, 1);
    mem.write64(512 * MiB, 2);
    EXPECT_EQ(mem.residentFrames(), 2u);
}

TEST(PhysMemoryTest, ZeroFrame)
{
    PhysMemory mem(1 * MiB);
    mem.write64(0x2000, 7);
    mem.write64(0x2ff8, 9);
    mem.zeroFrame(0x2000);
    EXPECT_EQ(mem.read64(0x2000), 0u);
    EXPECT_EQ(mem.read64(0x2ff8), 0u);
}

TEST(PhysMemoryTest, ZeroFrameMakesAnUntouchedFrameResident)
{
    PhysMemory mem(1 * MiB);
    mem.zeroFrame(0x4000);
    EXPECT_EQ(mem.residentFrames(), 1u);
    EXPECT_EQ(mem.read64(0x4000), 0u);
    EXPECT_EQ(mem.read64(0x4ff8), 0u);
    mem.zeroFrame(0x4000);
    EXPECT_EQ(mem.residentFrames(), 1u);
}

TEST(PhysMemoryTest, CopyFrame)
{
    PhysMemory mem(1 * MiB);
    mem.write64(0x1000, 11);
    mem.write64(0x1ff8, 22);
    mem.copyFrame(0x3000, 0x1000);
    EXPECT_EQ(mem.read64(0x3000), 11u);
    EXPECT_EQ(mem.read64(0x3ff8), 22u);
}

TEST(PhysMemoryTest, CopyFromUntouchedZeroes)
{
    PhysMemory mem(1 * MiB);
    mem.write64(0x3000, 5);
    mem.copyFrame(0x3000, 0x7000);
    EXPECT_EQ(mem.read64(0x3000), 0u);
}

TEST(PhysMemoryTest, HashDistinguishesContent)
{
    PhysMemory mem(1 * MiB);
    mem.write64(0x1000, 1);
    mem.write64(0x2000, 2);
    EXPECT_NE(mem.hashFrame(0x1000), mem.hashFrame(0x2000));
}

TEST(PhysMemoryTest, HashEqualForEqualContent)
{
    PhysMemory mem(1 * MiB);
    mem.write64(0x1008, 42);
    mem.write64(0x2008, 42);
    EXPECT_EQ(mem.hashFrame(0x1000), mem.hashFrame(0x2000));
    // Untouched frames hash like all-zero frames.
    EXPECT_EQ(mem.hashFrame(0x4000), mem.hashFrame(0x5000));
}

TEST(PhysMemoryTest, BadFrames)
{
    PhysMemory mem(1 * MiB);
    EXPECT_FALSE(mem.isBad(0x5000));
    mem.markBad(0x5123);
    EXPECT_TRUE(mem.isBad(0x5000));
    EXPECT_TRUE(mem.isBad(0x5fff));
    EXPECT_FALSE(mem.isBad(0x6000));
    EXPECT_EQ(mem.badFrameCount(), 1u);
    mem.clearBad(0x5000);
    EXPECT_FALSE(mem.isBad(0x5000));
}

TEST(PhysMemoryTest, AnyBadInRange)
{
    PhysMemory mem(1 * MiB);
    mem.markBad(0x40000);
    EXPECT_TRUE(mem.anyBadInRange(0x40000, kPage4K));
    EXPECT_TRUE(mem.anyBadInRange(0x3f000, 2 * kPage4K));
    EXPECT_FALSE(mem.anyBadInRange(0x41000, kPage4K));
}

TEST(PhysMemoryTest, EmptyRangeHasNoBadFrames)
{
    // The last frame of [0, 0) must not wrap to the top of memory.
    PhysMemory mem(1 * MiB);
    mem.markBad(0x5000);
    EXPECT_FALSE(mem.anyBadInRange(0, 0));
    EXPECT_TRUE(mem.badFramesInRange(0, 0).empty());
    EXPECT_FALSE(mem.anyBadInRange(0x5000, 0));
    EXPECT_TRUE(mem.badFramesInRange(0x5000, 0).empty());
}

TEST(PhysMemoryTest, BadFramesInRangeSorted)
{
    PhysMemory mem(1 * MiB);
    mem.markBad(0x9000);
    mem.markBad(0x3000);
    mem.markBad(0x6000);
    auto bad = mem.badFramesInRange(0, 1 * MiB);
    ASSERT_EQ(bad.size(), 3u);
    EXPECT_EQ(bad[0], 0x3000u);
    EXPECT_EQ(bad[1], 0x6000u);
    EXPECT_EQ(bad[2], 0x9000u);
}

TEST(PhysMemoryTest, FramesAcrossChunksAndAtTheTop)
{
    // A size that is not a multiple of 2 MB: the top chunk is
    // partial, and its last frame is still addressable.
    PhysMemory mem(3 * MiB + kPage4K);
    mem.write64(3 * MiB + 0xff8, 1);
    mem.write64(2 * MiB - 8, 2);
    mem.write64(2 * MiB, 3);
    EXPECT_EQ(mem.read64(3 * MiB + 0xff8), 1u);
    EXPECT_EQ(mem.read64(2 * MiB - 8), 2u);
    EXPECT_EQ(mem.read64(2 * MiB), 3u);
    EXPECT_EQ(mem.read64(3 * MiB), 0u);
    EXPECT_EQ(mem.residentFrames(), 3u);
}

TEST(PhysMemoryTest, CountsAccesses)
{
    PhysMemory mem(1 * MiB);
    mem.read64(0);
    mem.read64(8);
    mem.write64(16, 1);
    EXPECT_EQ(mem.stats().counterValue("reads"), 2u);
    EXPECT_EQ(mem.stats().counterValue("writes"), 1u);
}

TEST(PhysMemoryTest, WriteRunMatchesWordWrites)
{
    PhysMemory run(1 * MiB), words(1 * MiB);
    std::vector<std::uint64_t> values(40);
    for (std::size_t i = 0; i < values.size(); ++i)
        values[i] = 0x1000 * i + 7;
    const Addr base = 0x3000 + 8 * 100;
    run.writeRun(base, 40, values.data());
    for (std::size_t i = 0; i < values.size(); ++i)
        words.write64(base + 8 * i, values[i]);
    EXPECT_EQ(run.stats().counterValue("writes"), 40u);
    EXPECT_EQ(run.stats().counterValue("writes"),
              words.stats().counterValue("writes"));
    EXPECT_EQ(run.residentFrames(), words.residentFrames());
    EXPECT_EQ(run.hashFrame(0x3000), words.hashFrame(0x3000));
    EXPECT_EQ(test::ckptBytes(run), test::ckptBytes(words));

    std::vector<std::uint64_t> back(40);
    run.readRun(base, 40, back.data());
    EXPECT_EQ(back, values);
    EXPECT_EQ(run.stats().counterValue("reads"), 40u);
}

TEST(PhysMemoryTest, ReadRunOfUntouchedFrameIsZeroAndMakesNoFrame)
{
    PhysMemory mem(1 * MiB);
    std::vector<std::uint64_t> out(512, ~0ull);
    mem.readRun(0x7000, 512, out.data());
    EXPECT_EQ(out, std::vector<std::uint64_t>(512, 0));
    EXPECT_EQ(mem.stats().counterValue("reads"), 512u);
    EXPECT_EQ(mem.residentFrames(), 0u);
}

/** 512 words first + i * stride (mod 2^64). */
std::vector<std::uint64_t>
steppedWords(std::uint64_t first, std::uint64_t stride)
{
    std::vector<std::uint64_t> words(512);
    for (std::size_t i = 0; i < words.size(); ++i)
        words[i] = first + i * stride;
    return words;
}

TEST(PhysMemoryTest, SteppingFrameRunIsStoredLinear)
{
    PhysMemory mem(1 * MiB);
    // A leaf table mapping contiguous 4K pages, and a stride that
    // wraps past 2^64.
    for (const auto &words : {steppedWords(0x40000007, kPage4K),
                              steppedWords(~0ull - 700, 3)}) {
        mem.writeRun(0x5000, 512, words.data());
        for (unsigned i = 0; i < 512; ++i)
            ASSERT_EQ(mem.read64(0x5000 + 8 * i), words[i]) << i;
        std::vector<std::uint64_t> back(40);
        mem.readRun(0x5000 + 8 * 300, 40, back.data());
        EXPECT_TRUE(std::equal(back.begin(), back.end(),
                               words.begin() + 300));
        EXPECT_EQ(mem.residentFrames(), 1u);
        EXPECT_EQ(mem.storedFrames(), 0u);
    }
}

TEST(PhysMemoryTest, WriteStepEqualsWordRun)
{
    // Over a frame that is linear and over one that is materialized,
    // writeStep() leaves what a 512-word writeRun() of its words
    // leaves, and readStep() reads it back as the run would.
    const std::uint64_t kStrides[] = {0, kPage4K, 0 - kPage4K, 3};
    for (const std::uint64_t stride : kStrides) {
        const std::uint64_t first = stride == 3 ? ~0ull - 700 : 0x40000007;
        const auto words = steppedWords(first, stride);
        PhysMemory step(1 * MiB), run(1 * MiB);
        for (PhysMemory *mem : {&step, &run}) {
            mem->zeroFrame(0x5000);        // Linear.
            mem->write64(0x9000 + 8, 1);   // Materialized.
        }
        for (const Addr frame : {Addr{0x5000}, Addr{0x9000}}) {
            step.writeStep(frame, first, stride);
            run.writeRun(frame, 512, words.data());
        }
        EXPECT_EQ(step.residentFrames(), run.residentFrames());
        EXPECT_EQ(step.storedFrames(), run.storedFrames());
        EXPECT_EQ(step.storedFrames(), 0u) << stride;
        for (const Addr frame : {Addr{0x5000}, Addr{0x9000}}) {
            EXPECT_EQ(step.hashFrame(frame), run.hashFrame(frame));
            std::uint64_t got_first = 1, got_stride = 1;
            ASSERT_TRUE(step.readStep(frame, got_first, got_stride));
            EXPECT_EQ(got_first, first);
            EXPECT_EQ(got_stride, stride);
            std::vector<std::uint64_t> back(512);
            run.readRun(frame, 512, back.data());
            EXPECT_EQ(back, words);
        }
        EXPECT_EQ(step.stats().counterValue("writes"),
                  run.stats().counterValue("writes"));
        EXPECT_EQ(step.stats().counterValue("reads"),
                  run.stats().counterValue("reads"));
        EXPECT_EQ(test::ckptBytes(step), test::ckptBytes(run));
    }

    // A materialized frame has no step to read, and counts no read.
    PhysMemory mem(1 * MiB);
    mem.write64(0x2000, 5);
    std::uint64_t first = 0, stride = 0;
    EXPECT_FALSE(mem.readStep(0x2000, first, stride));
    EXPECT_EQ(mem.stats().counterValue("reads"), 0u);
}

TEST(PhysMemoryTest, WordWriteMaterializesLinearFrameKeepingItsWords)
{
    const auto words = steppedWords(0x200003, kPage4K);
    PhysMemory one(1 * MiB), run(1 * MiB);
    one.writeRun(0x3000, 512, words.data());
    run.writeRun(0x3000, 512, words.data());
    one.write64(0x3000 + 8 * 7, 99);
    const std::uint64_t three[3] = {1, 2, 3};
    run.writeRun(0x3000 + 8 * 500, 3, three);
    for (PhysMemory *mem : {&one, &run}) {
        EXPECT_EQ(mem->residentFrames(), 1u);
        EXPECT_EQ(mem->storedFrames(), 1u);
    }
    for (unsigned i = 0; i < 512; ++i) {
        EXPECT_EQ(one.read64(0x3000 + 8 * i), i == 7 ? 99 : words[i])
            << i;
        EXPECT_EQ(run.read64(0x3000 + 8 * i),
                  i >= 500 && i < 503 ? three[i - 500] : words[i])
            << i;
    }
}

TEST(PhysMemoryTest, CopyAndZeroKeepFramesLinear)
{
    const auto words = steppedWords(0x7, 2 * MiB);
    PhysMemory mem(1 * MiB);
    mem.writeRun(0x1000, 512, words.data());
    mem.copyFrame(0x9000, 0x1000);
    for (unsigned i = 0; i < 512; ++i)
        ASSERT_EQ(mem.read64(0x9000 + 8 * i), words[i]) << i;
    EXPECT_EQ(mem.residentFrames(), 2u);
    EXPECT_EQ(mem.storedFrames(), 0u);

    mem.write64(0x4000, 5);
    EXPECT_EQ(mem.storedFrames(), 1u);
    mem.zeroFrame(0x4000);
    EXPECT_EQ(mem.storedFrames(), 0u);
    EXPECT_EQ(mem.residentFrames(), 3u);
    EXPECT_EQ(mem.read64(0x4000), 0u);
}

TEST(PhysMemoryTest, LinearAndMaterializedFramesHashAndSaveAlike)
{
    const auto words = steppedWords(0x1000003, kPage4K);
    PhysMemory linear(1 * MiB), stored(1 * MiB);
    linear.writeRun(0x6000, 512, words.data());
    for (unsigned i = 0; i < 512; ++i)
        stored.write64(0x6000 + 8 * i, words[i]);
    stored.write64(0x8000, 1);  // A frame that stays materialized.
    linear.write64(0x8000, 1);
    EXPECT_EQ(linear.storedFrames(), 1u);
    EXPECT_EQ(stored.storedFrames(), 2u);
    EXPECT_EQ(linear.hashFrame(0x6000), stored.hashFrame(0x6000));
    const auto bytes = test::ckptBytes(stored);
    EXPECT_EQ(test::ckptBytes(linear), bytes);

    // A restore stores the stepping frame linear again.
    PhysMemory restored(1 * MiB);
    ASSERT_TRUE(test::ckptRestore(bytes, restored));
    EXPECT_EQ(restored.storedFrames(), linear.storedFrames());
    EXPECT_EQ(restored.residentFrames(), 2u);
    EXPECT_EQ(test::ckptBytes(restored), bytes);
}

TEST(PhysMemoryDeathTest, RunAcrossFramePanics)
{
    PhysMemory mem(1 * MiB);
    std::uint64_t words[2] = {1, 2};
    EXPECT_DEATH(mem.writeRun(0x1ff8, 2, words), "crosses a 4K frame");
    EXPECT_DEATH(mem.readRun(0x1ff8, 2, words), "crosses a 4K frame");
    EXPECT_DEATH(mem.writeStep(0x1008, 0, 0), "crosses a 4K frame");
}

TEST(PhysMemoryDeathTest, OutOfBoundsPanics)
{
    PhysMemory mem(1 * MiB);
    EXPECT_DEATH(mem.read64(2 * MiB), "beyond memory");
}

TEST(PhysMemoryDeathTest, MisalignedPanics)
{
    PhysMemory mem(1 * MiB);
    EXPECT_DEATH(mem.read64(4), "misaligned");
}

TEST(PhysMemoryTest, CheckpointRoundTripReplacesFrames)
{
    PhysMemory a(1 * MiB);
    a.write64(0x1000, 0xdeadbeefcafebabeull);
    a.write64(0x8ff8, 7);
    const auto bytes = test::ckptBytes(a);

    PhysMemory b(1 * MiB);
    b.write64(0x2000, 5);  // Stale resident frame; dropped.
    ASSERT_TRUE(test::ckptRestore(bytes, b));
    EXPECT_EQ(test::ckptBytes(b), bytes);
    EXPECT_EQ(b.read64(0x1000), 0xdeadbeefcafebabeull);
    EXPECT_EQ(b.read64(0x8ff8), 7u);
    EXPECT_EQ(b.read64(0x2000), 0u);
    EXPECT_EQ(b.residentFrames(), a.residentFrames());
}

TEST(PhysMemoryTest, CheckpointRejectsSizeMismatch)
{
    PhysMemory a(1 * MiB);
    PhysMemory b(2 * MiB);
    EXPECT_FALSE(test::ckptRestore(test::ckptBytes(a), b));
}

/** The checkpoint of @p mem with the frame index at byte @p offset
 *  replaced by @p index. */
std::vector<std::uint8_t>
withFrameIndex(const PhysMemory &mem, std::size_t offset,
               std::uint64_t index)
{
    auto bytes = test::ckptBytes(mem);
    std::memcpy(bytes.data() + offset, &index, sizeof(index));
    return bytes;
}

/** The decode error restoring @p bytes into @p mem; empty on success. */
std::string
restoreError(const std::vector<std::uint8_t> &bytes, PhysMemory &mem)
{
    ckpt::Decoder dec(bytes.data(), bytes.size());
    return ckpt::load(dec, mem) ? "" : dec.error();
}

// Layout: size, frame count, then per frame its index and 512 words.
constexpr std::size_t kFirstIndex = 16;
constexpr std::size_t kSecondIndex = kFirstIndex + 8 + 8 * 512;

TEST(PhysMemoryTest, CheckpointRejectsFrameBeyondSize)
{
    PhysMemory a(1 * MiB);
    a.write64(0x1000, 5);
    ASSERT_EQ(withFrameIndex(a, kFirstIndex, 1), test::ckptBytes(a));

    PhysMemory b(1 * MiB);
    const auto err =
        restoreError(withFrameIndex(a, kFirstIndex, 1 * MiB >> 12), b);
    EXPECT_NE(err.find("physmem: frame index"), std::string::npos)
        << err;
}

TEST(PhysMemoryTest, CheckpointRejectsIndexesOutOfOrder)
{
    PhysMemory a(1 * MiB);
    a.write64(0x2000, 5);
    a.write64(0x3000, 6);
    ASSERT_EQ(withFrameIndex(a, kSecondIndex, 3), test::ckptBytes(a));

    PhysMemory b(1 * MiB);
    for (std::uint64_t index : {2, 1}) {
        const auto err =
            restoreError(withFrameIndex(a, kSecondIndex, index), b);
        EXPECT_NE(err.find("physmem: frame index"), std::string::npos)
            << "index " << index << ": " << err;
    }
}

TEST(PhysMemoryTest, CheckpointBytesArePinned)
{
    // emv-ckpt-v1 physmem chunk as the hash-map store wrote it:
    // frames in ascending order whatever the touch order, untouched
    // reads materialize nothing, bad frames sorted, then the stats.
    PhysMemory mem(4 * MiB);
    mem.write64(0x201000, 0x1122334455667788ull);
    mem.write64(0x3000, 7);
    mem.write64(0x3ff8, 9);
    mem.write64(0x0, 1);
    mem.read64(0x5000);
    mem.markBad(0x3ff000);
    mem.markBad(0x1000);
    const auto bytes = test::ckptBytes(mem);
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (std::uint8_t byte : bytes)
        hash = (hash ^ byte) * 0x100000001b3ull;
    EXPECT_EQ(bytes.size(), 12447u);
    EXPECT_EQ(hash, 0xfb28a0b4714909e9ull);
}

} // namespace
} // namespace emv::mem
