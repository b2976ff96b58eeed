#include "os/guest_os.hh"

#include <algorithm>

#include "common/ckpt.hh"
#include "common/logging.hh"
#include "common/trace.hh"

namespace emv::os {

GuestOs::GuestOs(mem::PhysAccessor &phys, Addr span,
                 const std::vector<Interval> &ram, OsConfig config)
    : config(config), span(span),
      _frames(phys, span, config.kernelAllocBase,
              _stats.badPagesRetired, _stats.kernelChunks)
{
    // Nothing is RAM until declared: reserve the whole span, then
    // hot-add the boot RAM ranges.
    const bool reserved = _frames.buddy().allocateRange(0, span);
    emv_assert(reserved, "fresh buddy must allow full reservation");
    for (const auto &range : ram)
        hotAdd(range.start, range.length());
}

Process &
GuestOs::createProcess()
{
    processes.push_back(
        std::make_unique<Process>(nextPid++, _frames));
    return *processes.back();
}

std::vector<Process *>
GuestOs::liveProcesses()
{
    std::vector<Process *> out;
    out.reserve(processes.size());
    for (auto &proc : processes)
        out.push_back(proc.get());
    return out;
}

void
GuestOs::hotAdd(Addr base, Addr bytes)
{
    emv_assert(base + bytes <= span,
               "hot-add [%s, +%s) beyond the physical span",
               hexAddr(base).c_str(), hexAddr(bytes).c_str());
    emv_assert(!ramSet.containsRange(base, base + bytes) || bytes == 0,
               "hot-add of already present RAM at %s",
               hexAddr(base).c_str());
    EMV_TRACE(Hotplug, "hot-add [%s, +%s)",
              hexAddr(base).c_str(), hexAddr(bytes).c_str());
    ramSet.insert(base, base + bytes);
    _frames.buddy().freeRange(base, bytes);
    ++_stats.hotAdds;
    _stats.hotAddedBytes += bytes;
}

bool
GuestOs::hotRemove(Addr base, Addr bytes)
{
    if (!ramSet.containsRange(base, base + bytes))
        return false;
    if (!_frames.buddy().allocateRange(base, bytes))
        return false;  // In use: hot-unplug needs free memory.
    EMV_TRACE(Hotplug, "hot-remove [%s, +%s)",
              hexAddr(base).c_str(), hexAddr(bytes).c_str());
    ramSet.erase(base, base + bytes);
    ++_stats.hotRemoves;
    _stats.hotRemovedBytes += bytes;
    return true;
}

void
GuestOs::defineRegion(Process &proc, std::string name, Addr va,
                      Addr bytes, PageSize preferred, bool primary)
{
    Region region;
    region.name = std::move(name);
    region.base = va;
    region.bytes = bytes;
    region.primary = primary;
    region.pageSize = preferred;
    proc.addRegion(region);
}

std::optional<PageSize>
GuestOs::mapPage(Process &proc, const Region &region, Addr va_page)
{
    auto &pt = proc.pageTable();
    if (auto mapping = pt.translate(va_page))
        return mapping->size;  // Raced / already mapped.

    // Segment-backed pages: compute the physical address from the
    // segment offset (§VI.B) unless the target frame is faulty.
    const auto &seg = proc.guestSegment();
    if (seg.contains(va_page)) {
        const Addr pa = seg.translate(va_page);
        if (!_frames.isBad(pa)) {
            pt.map(va_page, pa, PageSize::Size4K);
            ++_stats.segmentOffsetMaps;
            if (mappingHook) {
                mappingHook(proc, va_page, kPage4K, PageSize::Size4K,
                            true);
            }
            return PageSize::Size4K;
        }
        // Escape: remap the faulty page to a healthy frame.
        auto healthy = _frames.allocBlock(PageSize::Size4K);
        if (!healthy)
            return std::nullopt;
        pt.map(va_page, *healthy, PageSize::Size4K);
        ++_stats.escapeRemaps;
        if (mappingHook) {
            mappingHook(proc, va_page, kPage4K, PageSize::Size4K,
                        true);
        }
        return PageSize::Size4K;
    }

    PageSize size = region.pageSize;
    Addr base = alignDown(va_page, pageBytes(size));

    // THP: opportunistically promote 4K regions to 2M mappings.
    if (config.thp && size == PageSize::Size4K &&
        thpRng.nextBool(config.thpCoverage)) {
        const Addr base2m = alignDown(va_page, kPage2M);
        if (base2m >= region.base &&
            base2m + kPage2M <= region.end() &&
            !pt.leafRangeOccupied(base2m, PageSize::Size2M)) {
            if (auto frame = _frames.allocBlock(PageSize::Size2M)) {
                pt.map(base2m, *frame, PageSize::Size2M);
                ++_stats.thpPromotions;
                if (mappingHook) {
                    mappingHook(proc, base2m, kPage2M,
                                PageSize::Size2M, true);
                }
                return PageSize::Size2M;
            }
        }
    }

    // Fall back to smaller sizes when large blocks are unavailable
    // or the region edge does not fit one.
    while (true) {
        base = alignDown(va_page, pageBytes(size));
        const bool fits = base >= region.base &&
                          base + pageBytes(size) <= region.end();
        if (fits) {
            if (auto frame = _frames.allocBlock(size)) {
                proc.pageTable().map(base, *frame, size);
                ++_stats.pagesMapped;
                if (mappingHook) {
                    mappingHook(proc, base, pageBytes(size), size,
                                true);
                }
                return size;
            }
        }
        if (size == PageSize::Size4K)
            return std::nullopt;
        size = size == PageSize::Size1G ? PageSize::Size2M
                                        : PageSize::Size4K;
        ++_stats.sizeFallbacks;
    }
}

FaultOutcome
GuestOs::handleFault(Process &proc, Addr gva)
{
    FaultOutcome outcome;
    const Region *region = proc.findRegion(gva);
    if (!region) {
        ++_stats.segfaults;
        return outcome;
    }
    ++_stats.faults;
    const Addr page = alignDown(gva, kPage4K);
    const bool in_segment = proc.guestSegment().contains(page);
    if (!mapPage(proc, *region, page))
        return outcome;
    auto mapping = proc.pageTable().translate(page);
    emv_assert(mapping.has_value(), "fault handler failed to map");
    outcome.ok = true;
    outcome.mappedSize = mapping->size;
    outcome.usedSegmentOffset = in_segment;
    outcome.remappedBadPage =
        in_segment &&
        mapping->pa != proc.guestSegment().translate(page);
    return outcome;
}

bool
GuestOs::mapWindow(Process &proc, const Region &region, Addr va,
                   Addr end)
{
    // Pages that could map differently from each other take the
    // per-page path: other page sizes, THP draws, segment offsets.
    const auto &seg = proc.guestSegment();
    if (region.pageSize != PageSize::Size4K || config.thp ||
        (seg.enabled() && va < seg.base() + seg.length() &&
         end > seg.base())) {
        return false;
    }
    // The per-page path makes the window's tables after its first
    // data frame.  Tables from the pool keep the buddy out of that,
    // so the order cannot matter; a pool that may have to grow
    // cannot promise it.
    if (_frames.poolFrames() < std::size_t{paging::kLevels - 1})
        return false;

    const std::uint64_t pages = (end - va) / kPage4K;
    std::vector<Addr> frames;
    const bool mapped = proc.pageTable().mapIfUnmapped(
        va, end - va, PageSize::Size4K, [&]() -> const Addr * {
            // allocBlock() would retire a bad frame and take
            // another: leave such a window to it.
            for (const Interval &run : _frames.buddy().nextRun(pages)) {
                if (_frames.anyBadInRange(run.start, run.length()))
                    return nullptr;
            }
            frames.reserve(pages);
            return _frames.buddy().allocateRun(pages, frames)
                       ? frames.data()
                       : nullptr;
        });
    if (!mapped)
        return false;
    _stats.pagesMapped += pages;
    if (mappingHook)
        mappingHook(proc, va, end - va, PageSize::Size4K, true);
    return true;
}

void
GuestOs::populateRange(Process &proc, Addr va, Addr bytes)
{
    const Addr end = va + bytes;
    Addr page = alignDown(va, kPage4K);
    while (page < end) {
        const Region *region = proc.findRegion(page);
        emv_assert(region, "populate outside any region at %s",
                   hexAddr(page).c_str());
        const Addr window_end =
            std::min({alignDown(page, kPage2M) + kPage2M,
                      alignUp(end, kPage4K), region->end()});
        if (mapWindow(proc, *region, page, window_end)) {
            page = window_end;
            continue;
        }
        while (page < window_end) {
            const auto size = mapPage(proc, *region, page);
            if (!size)
                emv_fatal("out of memory populating %s",
                          hexAddr(page).c_str());
            page = alignDown(page, pageBytes(*size)) + pageBytes(*size);
        }
    }
}

std::uint64_t
GuestOs::unmapRange(Process &proc, Addr va, Addr bytes)
{
    auto &pt = proc.pageTable();
    const auto &seg = proc.guestSegment();
    // Every leaf the range touches goes, including those that
    // straddle its ends.
    const Addr start = alignDown(va, kPage4K);
    std::vector<paging::PageTable::Leaf> doomed;
    pt.forEachLeafIn(start, va + bytes - start,
                     [&](const paging::PageTable::Leaf &leaf) {
                         doomed.push_back(leaf);
                     });

    // One table call and one hook call per run of VA-contiguous,
    // same-size leaves; a hole or a size change ends a run.  Doing
    // the table work before the data frees changes no order anything
    // observes: the tables it frees go only to the kernel pool, and
    // the hook never reads this table or touches this allocator.
    for (std::size_t i = 0; i < doomed.size();) {
        const PageSize size = doomed[i].size;
        const Addr run_va = doomed[i].va;
        Addr run_bytes = pageBytes(size);
        std::size_t j = i + 1;
        while (j < doomed.size() && doomed[j].size == size &&
               doomed[j].va == run_va + run_bytes) {
            run_bytes += pageBytes(size);
            ++j;
        }
        pt.unmapRange(run_va, run_bytes, size);
        if (mappingHook)
            mappingHook(proc, run_va, run_bytes, size, false);
        i = j;
    }

    // 4K data frames go back in one call after the loop: the free
    // lists depend only on which frames are free.
    std::vector<Addr> frames;
    for (const auto &leaf : doomed) {
        // Frames inside a segment reservation stay reserved; frames
        // the escape path allocated (or ordinary data frames) are
        // returned to the allocator.
        const bool segment_backed =
            seg.contains(leaf.va) && leaf.pa == seg.translate(leaf.va);
        if (!segment_backed) {
            if (leaf.size == PageSize::Size4K)
                frames.push_back(leaf.pa);
            else
                _frames.freeBlock(leaf.pa, leaf.size);
        }
        ++_stats.pagesUnmapped;
    }
    _frames.buddy().freeFrames(std::move(frames));
    return doomed.size();
}

std::optional<segment::SegmentRegs>
GuestOs::createGuestSegment(Process &proc)
{
    const Region *primary = proc.primaryRegion();
    if (!primary) {
        ++_stats.segmentFailures;
        return std::nullopt;
    }
    // Take the highest fit: post-reclaim this is the hot-added /
    // high memory that a VMM segment covers, and it keeps low
    // kernel memory free (2M-aligned so Guest Direct can compose
    // with 2M nested pages).
    auto &buddy = _frames.buddy();
    auto fit = buddy.freeIntervals().findFitHigh(primary->bytes, kPage2M);
    if (!fit || !buddy.allocateRange(fit->start, primary->bytes)) {
        ++_stats.segmentFailures;
        return std::nullopt;
    }
    auto regs = segment::SegmentRegs::fromRanges(
        primary->base, primary->bytes, fit->start);
    proc.setGuestSegment(regs);
    // Segment backing cannot be migrated out from under the regs.
    _frames.markUnmovable(fit->start, primary->bytes);
    ++_stats.segmentsCreated;
    EMV_TRACE(Segment, "guest segment created: %s",
              regs.toString().c_str());
    return regs;
}

void
GuestOs::releaseGuestSegment(Process &proc)
{
    const auto &seg = proc.guestSegment();
    if (!seg.enabled())
        return;
    // Drop PTEs created by the §VI.B emulation path first so their
    // frames are not double-freed.
    unmapRange(proc, seg.base(), seg.length());
    _frames.clearUnmovable(seg.base() + seg.offset(), seg.length());
    _frames.buddy().freeRange(seg.base() + seg.offset(), seg.length());
    proc.clearGuestSegment();
    ++_stats.segmentsReleased;
}

template <class Ar>
void
GuestOs::persist(Ar &ar)
{
    ramSet.persist(ar);
    _frames.buddy().persist(ar);
    if (!ar.fixed(processes, "os: process count mismatch (restore "
                             "requires the same boot configuration)"))
        return;
    for (auto &proc : processes)
        proc->persist(ar);
    _frames.persist(ar, /*bad_first=*/true);
    thpRng.persist(ar);
    _stats.persist(ar);
    ar.u32(nextPid);
}

template void GuestOs::persist(ckpt::Encoder &);
template void GuestOs::persist(ckpt::Decoder &);

} // namespace emv::os
