/**
 * @file
 * The physical frame manager of one kernel.
 *
 * In the paper both kernels are Linux: the guest kernel and KVM's
 * host kernel manage frames with the same buddy allocator, retire
 * bad pages the same way (§V) and compact the same way (§IV, §VI.C).
 * FrameManager is that one manager.  GuestOs owns one over its
 * guest-physical RAM and Vmm one over host RAM; each differs only in
 * the PhysAccessor it reaches memory through and in where the table
 * pool sits (§III.B's guest module moves the guest's above the I/O
 * gap, into the VMM segment).
 *
 * It is also the MemSpace of its owner's page tables: process tables
 * use the guest's manager, nested and shadow tables the VMM's.  Words
 * pass to the PhysAccessor; table frames come from the pool.
 */

#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/intervals.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "mem/buddy_allocator.hh"
#include "mem/phys_accessor.hh"
#include "paging/page_table.hh"

namespace emv::os {

/** Buddy allocator, unmovable set, bad-frame list and table pool. */
class FrameManager final : public paging::MemSpace
{
  public:
    /** Table-pool growth granule. */
    static constexpr Addr kPoolChunkBytes = 4 * MiB;

    /**
     * @param phys        Access to the managed memory.
     * @param span        The buddy manages [0, span), all free.
     * @param pool_base   Pool chunks go at the lowest fit at or above
     *                    this address (else the lowest anywhere).
     * @param bad_retired Bumped for each frame allocBlock() retires.
     * @param pool_chunks Bumped for each chunk the pool grows by.
     */
    FrameManager(mem::PhysAccessor &phys, Addr span, Addr pool_base,
                 Counter &bad_retired, Counter &pool_chunks);

    mem::BuddyAllocator &buddy() { return _buddy; }
    const mem::BuddyAllocator &buddy() const { return _buddy; }

    /** @{ Data blocks. */
    /**
     * Allocate a block of @p size, retiring faulty frames to the
     * bad-frame list (commodity-OS behaviour [26]) until a healthy
     * block comes up.  nullopt when out of memory.
     */
    std::optional<Addr> allocBlock(PageSize size);
    void freeBlock(Addr base, PageSize size);

    /** Frames retired due to hard faults, in retirement order. */
    const std::vector<Addr> &badFrames() const { return retired; }
    /** @} */

    /** @{ Movability: table frames, retired frames, segment backing
     *     and pinned pages cannot be migrated by compaction. */
    void markUnmovable(Addr base, Addr bytes)
    { unmovableSet.insert(base, base + bytes); }
    void clearUnmovable(Addr base, Addr bytes)
    { unmovableSet.erase(base, base + bytes); }
    const IntervalSet &unmovable() const { return unmovableSet; }
    /** @} */

    /** @{ Compaction primitives; each owner migrates its own victims
     *     (process leaves for the guest, backing extents for the VMM). */
    /** A candidate window and the bytes allocated in it. */
    struct Window
    {
        Addr base = 0;
        Addr allocatedBytes = 0;
    };

    /**
     * The window of @p bytes inside one of @p ranges that holds no
     * unmovable frame and the fewest allocated bytes.  Bases step by
     * 2M from each range's 2M-aligned start, and only those aligned
     * to @p align count; the first of equals wins.
     */
    std::optional<Window> bestWindow(const std::vector<Interval> &ranges,
                                     Addr bytes, Addr align) const;

    /** Allocate every free piece of [@p base, @p base + @p bytes), so
     *  later allocations land outside it.  @return the pieces. */
    std::vector<Interval> reserveFree(Addr base, Addr bytes);

    /** Free held pieces (what reserveFree() returned, plus any frames
     *  a compactor vacated inside the window). */
    void release(const std::vector<Interval> &pieces);
    /** @} */

    /** Frames the table pool holds free. */
    std::size_t poolFrames() const { return pool.size(); }

    /** @{ paging::MemSpace: words go to the owner's PhysAccessor. */
    std::uint64_t read64(Addr addr) const override
    { return phys.read64(addr); }
    void write64(Addr addr, std::uint64_t value) override
    { phys.write64(addr, value); }
    void readRun(Addr addr, unsigned n, std::uint64_t *out) const override
    { phys.readRun(addr, n, out); }
    void
    writeRun(Addr addr, unsigned n, const std::uint64_t *values) override
    { phys.writeRun(addr, n, values); }
    void
    writeStep(Addr frame_base, std::uint64_t first, std::uint64_t stride)
        override
    { phys.writeStep(frame_base, first, stride); }
    bool
    readStep(Addr frame_base, std::uint64_t &first,
             std::uint64_t &stride) const override
    { return phys.readStep(frame_base, first, stride); }
    void zeroFrame(Addr frame_base) override { phys.zeroFrame(frame_base); }
    void copyFrame(Addr dst_base, Addr src_base) override
    { phys.copyFrame(dst_base, src_base); }
    bool isBad(Addr addr) const override { return phys.isBad(addr); }
    bool anyBadInRange(Addr base, Addr len) const override
    { return phys.anyBadInRange(base, len); }

    /**
     * Take a frame from the unmovable table pool and zero it.  An
     * empty pool grows by one kPoolChunkBytes chunk placed low above
     * the pool base (its bad frames skipped), or by one frame from
     * allocBlock() when no chunk fits.  Fatal when out of memory.
     */
    Addr allocTableFrame() override;

    /** Return a frame to the pool (chunks never shrink). */
    void freeTableFrame(Addr frame) override { pool.push_back(frame); }
    /** @} */

    /**
     * Checkpoint the bad-frame list, the unmovable set and the pool;
     * @p bad_first puts the bad-frame list before the unmovable set
     * (each owner keeps its chunk layout).  The buddy and the
     * counters are the owner's to persist.
     */
    template <class Ar>
    void persist(Ar &ar, bool bad_first);

  private:
    mem::PhysAccessor &phys;
    mem::BuddyAllocator _buddy;
    Addr poolBase;
    Counter &badRetired;
    Counter &poolChunks;
    IntervalSet unmovableSet;
    std::vector<Addr> retired;
    std::vector<Addr> pool;
};

} // namespace emv::os
