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

std::optional<std::uint64_t>
CompactionDaemon::estimateMigrations(Addr bytes)
{
    auto &frames = os.frames();
    if (frames.buddy().largestFreeRun() >= bytes)
        return 0;
    // Windows slide at 2M steps inside each RAM interval.
    auto window = frames.bestWindow(os.ram().intervals(), bytes, kPage2M);
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

    auto &frames = os.frames();
    auto &buddy = frames.buddy();
    // Already available?
    if (auto run = buddy.freeIntervals().largest();
        run && run->length() >= bytes) {
        return Interval{run->start, run->start + bytes};
    }

    auto window = frames.bestWindow(os.ram().intervals(), bytes, kPage2M);
    if (!window)
        return std::nullopt;
    if (max_migrations &&
        window->allocatedBytes / kPage4K > max_migrations) {
        return std::nullopt;
    }

    const Addr wstart = window->base;
    const Addr wend = window->base + bytes;

    // 1. Reserve every currently free piece of the window so the
    //    migration targets we allocate land outside it.  `held`
    //    lists the window frames the daemon holds; a failure
    //    releases them.
    std::vector<Interval> held = frames.reserveFree(wstart, bytes);

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
        frames.release(held);
        return std::nullopt;
    }

    // 3. Migrate each victim to freshly allocated memory (outside
    //    the window by construction of step 1).
    for (const auto &victim : victims) {
        auto target = frames.allocBlock(victim.size);
        if (!target) {
            emv_warn("compaction: out of migration targets");
            frames.release(held);
            return std::nullopt;
        }
        const Addr block_bytes = pageBytes(victim.size);
        for (Addr off = 0; off < block_bytes; off += kPage4K)
            frames.copyFrame(*target + off, victim.pa + off);
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
        held.push_back({std::max(lo, wstart), std::min(hi, wend)});
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
