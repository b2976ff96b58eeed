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

    /** Free memory as a coalesced interval set (for planners). */
    IntervalSet freeIntervals() const;

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
     * buddies sit uncoalesced on the same free list, and the free
     * lists' byte accounting matches their coalesced interval
     * coverage (i.e. no block is on two lists and none overlap).
     * Called automatically by the allocation paths under auditing.
     */
    void auditInvariants() const;

    /** Order of the smallest block covering @p bytes. */
    static unsigned orderForBytes(Addr bytes);

    /** Checkpoint the free lists and stats. */
    void serialize(ckpt::Encoder &enc) const;
    bool deserialize(ckpt::Decoder &dec);

  private:
    /** Split blocks down until a block of @p order is available. */
    bool splitTo(unsigned order);

    /** Insert a free block and coalesce with its buddy upward. */
    void insertFree(Addr block, unsigned order);

    Addr rangeBase;
    Addr rangeSize;
    /** freeLists[n] holds bases of free blocks of order n. */
    std::vector<std::set<Addr>> freeLists;
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

