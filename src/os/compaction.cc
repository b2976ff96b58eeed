#include "os/compaction.hh"

#include <algorithm>
#include <vector>

#include "common/ckpt.hh"
#include "common/logging.hh"
#include "common/profile.hh"
#include "common/trace.hh"
#include "os/guest_os.hh"

namespace emv::os {

CompactionDaemon::CompactionDaemon(GuestOs &os, RemapHook on_remap)
    : os(os), onRemap(std::move(on_remap))
{
}

std::optional<CompactionDaemon::Window>
CompactionDaemon::bestWindow(Addr bytes) const
{
    const IntervalSet &free_set = os.buddy().freeIntervals();
    const IntervalSet &unmovable = os.unmovable();

    std::optional<Window> best;
    // Slide a window at 2M steps inside each RAM interval.
    for (const auto &ram : os.ram().intervals()) {
        if (ram.length() < bytes)
            continue;
        for (Addr w = alignUp(ram.start, kPage2M);
             w + bytes <= ram.end; w += kPage2M) {
            if (unmovable.intersectsRange(w, w + bytes))
                continue;
            const Addr free_in =
                free_set.coveredBytesInRange(w, w + bytes);
            const Addr allocated = bytes - free_in;
            if (!best || allocated < best->allocatedBytes)
                best = Window{w, allocated};
            if (best->allocatedBytes == 0)
                return best;
        }
    }
    return best;
}

std::optional<std::uint64_t>
CompactionDaemon::estimateMigrations(Addr bytes)
{
    if (os.buddy().largestFreeRun() >= bytes)
        return 0;
    auto window = bestWindow(bytes);
    if (!window)
        return std::nullopt;
    EMV_TRACE(Compaction,
              "window base=%s bytes=%s allocated=%s",
              hexAddr(window->base).c_str(),
              hexAddr(bytes).c_str(),
              hexAddr(window->allocatedBytes).c_str());
    return window->allocatedBytes / kPage4K;
}

std::optional<Interval>
CompactionDaemon::createFreeRun(Addr bytes, std::uint64_t
                                                max_migrations)
{
    prof::Scope compaction_scope(prof::Phase::Compaction);
    emv_assert(bytes > 0 && isAligned(bytes, kPage4K),
               "compaction target must be a positive 4K multiple");
    if (faultHook && faultHook()) {
        EMV_TRACE(Compaction, "createFreeRun failed (injected)");
        return std::nullopt;
    }

    // Already available?
    if (auto run = os.buddy().freeIntervals().largest();
        run && run->length() >= bytes) {
        return Interval{run->start, run->start + bytes};
    }

    auto window = bestWindow(bytes);
    if (!window)
        return std::nullopt;
    if (max_migrations &&
        window->allocatedBytes / kPage4K > max_migrations) {
        return std::nullopt;
    }

    const Addr wstart = window->base;
    const Addr wend = window->base + bytes;
    auto &buddy = os.buddy();

    // 1. Reserve every currently free piece of the window so the
    //    migration targets we allocate land outside it.  A copy:
    //    the abort path below needs the pieces as they were.
    const IntervalSet free_pieces = buddy.freeIntervals();
    for (const auto &piece : free_pieces.intervals()) {
        const Addr lo = std::max(piece.start, wstart);
        const Addr hi = std::min(piece.end, wend);
        if (hi > lo) {
            const bool ok = buddy.allocateRange(lo, hi - lo);
            emv_assert(ok, "window free piece vanished");
        }
    }

    // 2. Reverse-map the window: find every leaf whose frame block
    //    overlaps it.
    struct Victim
    {
        Process *proc;
        Addr va;
        Addr pa;
        PageSize size;
    };
    std::vector<Victim> victims;
    for (Process *proc : os.liveProcesses()) {
        proc->pageTable().forEachLeaf(
            [&](const paging::PageTable::Leaf &leaf) {
                const Addr lo = leaf.pa;
                const Addr hi = leaf.pa + pageBytes(leaf.size);
                if (hi > wstart && lo < wend) {
                    victims.push_back(
                        {proc, leaf.va, leaf.pa, leaf.size});
                }
            });
    }

    // 2b. Every allocated byte of the window must belong to some
    //     page-table leaf; anonymous allocations cannot be migrated
    //     safely.  Undo the reservations and fail if any exist.
    Addr victim_bytes = 0;
    for (const auto &victim : victims) {
        const Addr lo = std::max(victim.pa, wstart);
        const Addr hi =
            std::min(victim.pa + pageBytes(victim.size), wend);
        victim_bytes += hi - lo;
    }
    if (victim_bytes != window->allocatedBytes) {
        emv_warn("compaction: window holds %llu unowned bytes; "
                 "aborting",
                 static_cast<unsigned long long>(
                     window->allocatedBytes - victim_bytes));
        for (const auto &piece : free_pieces.intervals()) {
            const Addr lo = std::max(piece.start, wstart);
            const Addr hi = std::min(piece.end, wend);
            if (hi > lo)
                buddy.freeRange(lo, hi - lo);
        }
        return std::nullopt;
    }

    // 3. Migrate each victim to freshly allocated memory (outside
    //    the window by construction of step 1).
    for (const auto &victim : victims) {
        auto target = os.allocDataBlock(victim.size);
        if (!target) {
            emv_warn("compaction: out of migration targets");
            return std::nullopt;
        }
        const Addr block_bytes = pageBytes(victim.size);
        for (Addr off = 0; off < block_bytes; off += kPage4K)
            os.phys().copyFrame(*target + off, victim.pa + off);
        victim.proc->pageTable().unmap(victim.va, victim.size);
        victim.proc->pageTable().map(victim.va, *target, victim.size);
        if (onRemap)
            onRemap(*victim.proc, victim.va, victim.size);
        ++migrated;
        // Pieces of the old block outside the window return to the
        // allocator; pieces inside join our window reservation.
        const Addr lo = victim.pa;
        const Addr hi = victim.pa + block_bytes;
        if (lo < wstart)
            buddy.freeRange(lo, wstart - lo);
        if (hi > wend)
            buddy.freeRange(wend, hi - wend);
    }

    // 4. The entire window is now reserved by the daemon; release it
    //    as one contiguous free run.
    buddy.freeRange(wstart, bytes);
    EMV_TRACE(Compaction,
              "free run [%s, %s) after %llu migrations",
              hexAddr(wstart).c_str(), hexAddr(wend).c_str(),
              static_cast<unsigned long long>(migrated));
    return Interval{wstart, wend};
}

template <class Ar>
void
CompactionDaemon::persist(Ar &ar)
{
    ar.u64(migrated);
}

template void CompactionDaemon::persist(ckpt::Encoder &);
template void CompactionDaemon::persist(ckpt::Decoder &);

} // namespace emv::os
