/**
 * @file
 * Simulated physical memory.
 *
 * Page tables in emv are not abstract maps: they are genuine radix
 * trees of x86-64-encoded 64-bit entries stored in a PhysMemory, and
 * the page walk loads each entry with read64().  That keeps the paper's
 * headline count — up to 24 memory references per 2D walk (Fig. 2) —
 * an emergent property rather than an assertion.
 *
 * Frames are indexed by frame number through a two-level radix: a
 * top array with one slot per 2 MB of memory, each slot a lazily made
 * block of 512 frame slots.  A load is two array indexes, never a
 * hash lookup.  A frame is either materialized (4 KB of words) or
 * linear: word i is first + i * stride (mod 2^64), with no storage.
 * Untouched memory and zeroed frames are linear (0, 0), and a
 * whole-frame writeRun() whose words step evenly stores only its
 * (first, stride); a writer that knows the step passes it to
 * writeStep() and makes no words at all.  The VMM backs guest
 * memory with large contiguous host regions, so almost every leaf
 * table the model builds holds base + i * 4K | flags and costs
 * nothing; a single-word write makes a frame materialized.  A
 * simulated multi-GB machine costs only its materialized frames plus
 * 8 bytes per 2 MB of size (300 KB at the paper's 75 GB) and 16 KB
 * per touched 2 MB chunk.  PhysMemory also owns the hard-fault model:
 * frames can be marked bad (paper §V), and the escape filter
 * machinery consults that registry.
 */

#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_set>
#include <vector>

#include "common/audit.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace emv {
namespace ckpt {
class Encoder;
class Decoder;
} // namespace ckpt
} // namespace emv

namespace emv::mem {

/**
 * Word-addressable physical memory of a fixed size, with frames made
 * on first touch and stored linear or materialized, and a bad-frame
 * (hard fault) registry.
 */
class PhysMemory
{
  public:
    /** @param size_bytes Total physical address space size. */
    explicit PhysMemory(Addr size_bytes);

    PhysMemory(const PhysMemory &) = delete;
    PhysMemory &operator=(const PhysMemory &) = delete;

    Addr size() const { return sizeBytes; }

    /**
     * Load a naturally aligned 64-bit word.  Every walk step and
     * page-table descent is one of these, so an aligned, in-range
     * load with auditing off is inline; any other goes through
     * read64Checked().
     */
    std::uint64_t
    read64(Addr addr) const
    {
        if (!isAligned(addr, 8) || addr >= sizeBytes || audit::enabled())
            [[unlikely]] {
            return read64Checked(addr);
        }
        ++_stats.reads;
        const Block *block = blocks[addr >> 21].get();
        if (!block)
            return 0;  // Untouched memory reads as zero.
        const Slot &slot = (*block)[(addr >> 12) & 511];
        const std::uint64_t i = (addr & (kPage4K - 1)) >> 3;
        return slot.words ? (*slot.words)[i] : slot.first + i * slot.stride;
    }

    /** Store a naturally aligned 64-bit word. */
    void write64(Addr addr, std::uint64_t value);

    /**
     * Load the @p n (1..512) consecutive words at @p addr into
     * @p out: one alignment assert, one bounds check and one frame
     * lookup for the run, which must not cross a 4 KB frame.  Counts
     * @p n reads and, like read64(), makes no frame.
     */
    void readRun(Addr addr, unsigned n, std::uint64_t *out) const;

    /** Store @p n consecutive words inside one 4 KB frame, counting
     *  @p n writes: the run form of write64().  A whole frame whose
     *  words step evenly is stored linear. */
    void writeRun(Addr addr, unsigned n, const std::uint64_t *values);

    /**
     * Store the whole 4 KB frame at @p frame_base as word i =
     * @p first + i * @p stride (mod 2^64), counting 512 writes: the
     * frame a 512-word writeRun() of those words leaves, stored
     * linear without making the words.
     */
    void writeStep(Addr frame_base, std::uint64_t first,
                   std::uint64_t stride);

    /**
     * If the 4 KB frame at @p frame_base is linear (an untouched one
     * is (0, 0)), set @p first and @p stride to its step, count 512
     * reads and return true.  A materialized frame returns false and
     * counts nothing.
     */
    bool readStep(Addr frame_base, std::uint64_t &first,
                  std::uint64_t &stride) const;

    /** Zero a whole 4 KB frame (used for fresh page tables); the
     *  frame becomes linear (0, 0) and holds no storage. */
    void zeroFrame(Addr frame_base);

    /** Copy a 4 KB frame (compaction / page migration). */
    void copyFrame(Addr dst_base, Addr src_base);

    /** 64-bit FNV-1a content hash of a 4 KB frame. */
    std::uint64_t hashFrame(Addr frame_base) const;

    /** Mark the 4 KB frame containing @p addr as having hard faults. */
    void markBad(Addr addr);
    /** Clear a bad-frame mark. */
    void clearBad(Addr addr);
    /** True if the frame containing @p addr is faulty. */
    bool isBad(Addr addr) const;
    /** True if any 4 KB frame in [base, base+len) is faulty; false
     *  for an empty range. */
    bool anyBadInRange(Addr base, Addr len) const;
    /** Frame bases of faulty frames in [base, base+len), sorted;
     *  empty for an empty range. */
    std::vector<Addr> badFramesInRange(Addr base, Addr len) const;
    /** Number of faulty frames. */
    std::size_t badFrameCount() const { return badFrames.size(); }

    /** Number of frames made (touched by a write, zeroFrame() or
     *  copyFrame()), linear or not. */
    std::size_t residentFrames() const { return resident; }
    /** Number of made frames that hold 4 KB of words. */
    std::size_t storedFrames() const { return stored; }

    StatGroup &stats() { return _stats; }

    /**
     * Checkpoint all resident frame contents (512 words each, linear
     * or not) in ascending frame order plus the bad-frame registry
     * (sorted, so files are byte-stable across runs).  This is the
     * chunk that captures every page-table radix tree.  A load stores
     * evenly stepping frames linear again, and rejects a frame index
     * beyond size() and indexes that do not strictly ascend.
     */
    template <class Ar>
    void persist(Ar &ar);

  private:
    using Frame = std::array<std::uint64_t, 512>;
    /** One 4 KB frame: @c words when materialized, otherwise linear
     *  with word i = first + i * stride. */
    struct alignas(32) Slot
    {
        std::unique_ptr<Frame> words;
        std::uint64_t first = 0;
        std::uint64_t stride = 0;
        /** Touched by a write, zeroFrame() or copyFrame(). */
        bool made = false;
    };
    /** The frames of one 2 MB chunk, indexed by frame number. */
    using Block = std::array<Slot, 512>;

    /** The slot of the frame containing @p addr; an untouched chunk's
     *  frames read as the linear (0, 0) slot. */
    const Slot &slotAt(Addr addr) const;

    /** The slot of the frame containing @p addr, marked made; its
     *  words are unchanged (zero if untouched). */
    Slot &slotFor(Addr addr);

    /** The words of @p slot, made into storage first if linear. */
    Frame &materialize(Slot &slot);
    /** Store the 512 @p words in @p slot: linear if they step evenly,
     *  else materialized. */
    void storeFrame(Slot &slot, const std::uint64_t *words);
    /** Make @p slot linear (@p first, @p stride), freeing any storage. */
    void setLinear(Slot &slot, std::uint64_t first, std::uint64_t stride);

    /** Words [from, from + n) of @p slot into @p out. */
    static void copyWords(const Slot &slot, unsigned from, unsigned n,
                          std::uint64_t *out);

    /** read64() with its alignment assert, audit check and bounds
     *  assert. */
    std::uint64_t read64Checked(Addr addr) const;

    /** The asserts of the run and step calls. */
    void checkRun(Addr addr, unsigned n, const char *op) const;

    Addr sizeBytes;
    struct Stats : StatGroup
    {
        Stats() : StatGroup("physmem") {}
        Counter reads{*this, "reads"};
        Counter writes{*this, "writes"};
        Counter frameCopies{*this, "frame_copies"};
    };
    /** Bumped by the const read path too. */
    mutable Stats _stats;
    /** One slot per 2 MB chunk; a block is made on first touch. */
    std::vector<std::unique_ptr<Block>> blocks;
    std::size_t resident = 0;
    std::size_t stored = 0;
    std::unordered_set<std::uint64_t> badFrames;
};

} // namespace emv::mem

