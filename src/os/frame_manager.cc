#include "os/frame_manager.hh"

#include <algorithm>

#include "common/ckpt.hh"
#include "common/logging.hh"

namespace emv::os {

FrameManager::FrameManager(mem::PhysAccessor &phys, Addr span,
                           Addr pool_base, Counter &bad_retired,
                           Counter &pool_chunks)
    : phys(phys), _buddy(0, span), poolBase(pool_base),
      badRetired(bad_retired), poolChunks(pool_chunks)
{
}

std::optional<Addr>
FrameManager::allocBlock(PageSize size)
{
    const Addr bytes = pageBytes(size);
    for (;;) {
        auto block = _buddy.allocateBytes(bytes);
        if (!block)
            return std::nullopt;
        if (!phys.anyBadInRange(*block, bytes))
            return block;
        // Retire the faulty frames and try again; healthy 4K
        // siblings of a large block go back to the allocator.
        for (Addr pa = *block; pa < *block + bytes; pa += kPage4K) {
            if (phys.isBad(pa)) {
                retired.push_back(pa);
                markUnmovable(pa, kPage4K);
                ++badRetired;
            } else {
                _buddy.freeRange(pa, kPage4K);
            }
        }
    }
}

void
FrameManager::freeBlock(Addr base, PageSize size)
{
    _buddy.free(base, mem::BuddyAllocator::orderForBytes(pageBytes(size)));
}

std::optional<FrameManager::Window>
FrameManager::bestWindow(const std::vector<Interval> &ranges, Addr bytes,
                         Addr align) const
{
    const IntervalSet &free_set = _buddy.freeIntervals();
    // Bases 2M apart that are also aligned to align: steps of the
    // larger of the two.
    const Addr step = std::max(kPage2M, align);
    std::optional<Window> best;
    for (const Interval &range : ranges) {
        for (Addr w = alignUp(range.start, step); w + bytes <= range.end;
             w += step) {
            if (unmovableSet.intersectsRange(w, w + bytes))
                continue;
            const Addr allocated =
                bytes - free_set.coveredBytesInRange(w, w + bytes);
            if (!best || allocated < best->allocatedBytes)
                best = Window{w, allocated};
            if (best->allocatedBytes == 0)
                return best;
        }
    }
    return best;
}

std::vector<Interval>
FrameManager::reserveFree(Addr base, Addr bytes)
{
    std::vector<Interval> pieces;
    for (const Interval &piece : _buddy.freeIntervals().intervals()) {
        const Addr lo = std::max(piece.start, base);
        const Addr hi = std::min(piece.end, base + bytes);
        if (hi > lo)
            pieces.push_back({lo, hi});
    }
    for (const Interval &piece : pieces) {
        const bool ok = _buddy.allocateRange(piece.start, piece.length());
        emv_assert(ok, "window free piece vanished");
    }
    return pieces;
}

void
FrameManager::release(const std::vector<Interval> &pieces)
{
    for (const Interval &piece : pieces)
        _buddy.freeRange(piece.start, piece.length());
}

Addr
FrameManager::allocTableFrame()
{
    if (pool.empty()) {
        // Chunks cluster low above the pool base, keeping unmovable
        // memory out of compaction windows (and, for the guest under
        // VMM Direct, inside the VMM segment).
        auto fit = _buddy.freeIntervals().findFitLowAbove(
            kPoolChunkBytes, kPage4K, poolBase);
        if (fit && _buddy.allocateRange(fit->start, kPoolChunkBytes)) {
            markUnmovable(fit->start, kPoolChunkBytes);
            ++poolChunks;
            for (Addr off = 0; off < kPoolChunkBytes; off += kPage4K) {
                if (!phys.isBad(fit->start + off))
                    pool.push_back(fit->start + off);
            }
        } else {
            // Desperate path: single frames from the allocator.
            auto frame = allocBlock(PageSize::Size4K);
            if (!frame)
                emv_fatal("out of physical memory for page tables");
            markUnmovable(*frame, kPage4K);
            pool.push_back(*frame);
        }
    }
    const Addr frame = pool.back();
    pool.pop_back();
    phys.zeroFrame(frame);
    return frame;
}

template <class Ar>
void
FrameManager::persist(Ar &ar, bool bad_first)
{
    if (bad_first)
        ar.u64s(retired);
    unmovableSet.persist(ar);
    if (!bad_first)
        ar.u64s(retired);
    ar.u64s(pool);
}

template void FrameManager::persist(ckpt::Encoder &, bool);
template void FrameManager::persist(ckpt::Decoder &, bool);

} // namespace emv::os
