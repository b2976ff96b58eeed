/**
 * @file
 * Binary buddy frame allocator.
 *
 * Both the guest OS (over gPA) and the VMM (over hPA) need a real
 * physical-frame allocator: the paper's mechanisms — reservation of
 * contiguous segment memory at boot (§VI.A), fragmentation that
 * defeats segment creation (§IV), ballooning out an *arbitrary* set
 * of frames, hot-unplugging *specific* frames below the I/O gap, and
 * compaction migrating frames to restore contiguity — are all
 * operations on the free-frame map.  A Linux-style buddy system (
 * orders 0..18, i.e. 4 KB to 1 GB blocks) gives them an honest
 * substrate.
 *
 * Blocks always coalesce with a free buddy, so the free lists are a
 * function of the set of free frames.  That makes batch operations
 * exact: allocateRun() and allocateRange() only have to take the same
 * frames as the per-block calls they replace.  Beside the lists the
 * allocator keeps the free frames as an IntervalSet of runs, updated
 * by every operation, which the planners (fragmenter, compaction,
 * segment and pool placement) query without a rebuild.
 */

#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <vector>

#include "common/intervals.hh"
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
 * Buddy allocator managing 4 KB frames within [base, base + size).
 *
 * Order n manages blocks of 2^n frames; maxOrder 18 covers 1 GB.
 */
class BuddyAllocator
{
  public:
    static constexpr unsigned kMaxOrder = 18;

    /**
     * @param base Base address of the managed range (4K aligned).
     * @param size_bytes Length of the managed range (4K multiple).
     */
    BuddyAllocator(Addr base, Addr size_bytes);

    BuddyAllocator(const BuddyAllocator &) = delete;
    BuddyAllocator &operator=(const BuddyAllocator &) = delete;

    /**
     * Allocate a block of 2^order frames, naturally aligned.
     * @return Block base address, or nullopt if no memory.
     */
    std::optional<Addr> allocate(unsigned order);

    /**
     * Allocate @p frames 4 KB frames: the ones, in the order, that
     * @p frames calls of allocate(0) would return (the highest free
     * frames, descending), appended to @p out, and counted as that
     * many allocations.  The cost follows the blocks taken, not the
     * frames.  @return false, changing nothing, when fewer frames are
     * free.
     */
    bool allocateRun(std::uint64_t frames, std::vector<Addr> &out);

    /**
     * The frames allocateRun(@p frames) would take, as runs from the
     * highest down; empty when fewer frames are free.
     */
    std::vector<Interval> nextRun(std::uint64_t frames) const
    { return freeRuns.highest(frames * kPage4K); }

    /** Allocate @p bytes of contiguous memory (rounded to a block). */
    std::optional<Addr> allocateBytes(Addr bytes);

    /**
     * Reserve a specific range [start, start+length) if it is
     * entirely free (hot-unplug of *specific* addresses, boot-time
     * segment reservation).  @return true on success.
     */
    bool allocateRange(Addr start, Addr length);

    /** Free a block previously returned by allocate(). */
    void free(Addr block, unsigned order);

    /**
     * Free 4 KB frames given in any order: the lists, the run index
     * and the stats end as one free(frame, 0) per frame would leave
     * them.  The work follows the contiguous runs among the frames.
     */
    void freeFrames(std::vector<Addr> frames);

    /** Free a specific range previously reserved. */
    void freeRange(Addr start, Addr length);

    /** True if every frame of [start, start+length) is free. */
    bool rangeFree(Addr start, Addr length) const;

    /** Total free bytes. */
    Addr freeBytes() const;

    /** Size in bytes of the largest free contiguous block run. */
    Addr largestFreeRun() const;

    /** Bases of the free blocks of @p order, ascending. */
    const std::set<Addr> &freeBlocks(unsigned order) const
    { return freeLists.at(order); }

    /** Free memory as a coalesced interval set (for planners),
     *  maintained by every operation. */
    const IntervalSet &freeIntervals() const { return freeRuns; }

    /**
     * Fraction of free memory NOT in the largest free run — a
     * simple external-fragmentation index in [0, 1].
     */
    double fragmentationIndex() const;

    Addr base() const { return rangeBase; }
    Addr size() const { return rangeSize; }

    StatGroup &stats() { return _stats; }

    /**
     * Audit-mode structural check (EMV_INVARIANT): every free block
     * is naturally aligned and inside the managed range, no two
     * buddies sit uncoalesced on the same free list, the free lists'
     * byte accounting matches their coalesced interval coverage
     * (i.e. no block is on two lists and none overlap), and that
     * coverage is exactly the maintained free-run index.
     * Called automatically by the allocation paths under auditing.
     */
    void auditInvariants() const;

    /** Order of the smallest block covering @p bytes. */
    static unsigned orderForBytes(Addr bytes);

    /** Checkpoint the free lists and stats. */
    template <class Ar>
    void persist(Ar &ar);

  private:
    /** Insert a free block and coalesce with its buddy upward. */
    void insertFree(Addr block, unsigned order);

    /** Return [start, end) to the lists and the run index. */
    void insertRange(Addr start, Addr end);

    /**
     * Take the free range [start, end) off the free lists and the
     * run index: each block it intersects is split, and the pieces
     * outside go back on the lists.
     */
    void carve(Addr start, Addr end);

    /** The free lists' coverage, rebuilt (audit only). */
    IntervalSet listCoverage() const;

    Addr rangeBase;
    Addr rangeSize;
    /** freeLists[n] holds bases of free blocks of order n. */
    std::vector<std::set<Addr>> freeLists;
    /** The free frames as coalesced runs. */
    IntervalSet freeRuns;
    struct Stats : StatGroup
    {
        Stats() : StatGroup("buddy") {}
        Counter allocations{*this, "allocations"};
        Counter frees{*this, "frees"};
        Counter allocFailures{*this, "alloc_failures"};
        Counter rangeAllocations{*this, "range_allocations"};
        Counter rangeFrees{*this, "range_frees"};
    };
    Stats _stats;
};

} // namespace emv::mem

