/**
 * @file
 * The operating-system model.
 *
 * GuestOs manages one physical address space: a Linux-like buddy
 * allocator over its RAM, demand paging into per-process x86-64
 * page tables, primary-region tracking and guest-segment creation,
 * hot-add/hot-remove of RAM ranges (the hotplug substrate used by
 * self-ballooning and I/O-gap reclaim), and a commodity-OS bad-page
 * list (§V).
 *
 * The same class serves as the native OS (PhysAccessor = host
 * memory, RAM = host RAM) and as the guest OS inside a VM
 * (PhysAccessor provided by the VMM, RAM = guest-physical layout
 * with the x86-64 I/O gap carved out).
 *
 * Per the paper's own prototype strategy (§VI.B), direct segments
 * are also *emulated* in the page tables: a fault on a
 * segment-backed address computes its physical address from the
 * segment offset and installs a conventional PTE.  This is what
 * keeps escape-filter fallbacks (bad pages, false positives) and
 * non-segment modes functionally correct.
 */

#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/intervals.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "mem/phys_accessor.hh"
#include "os/frame_manager.hh"
#include "os/process.hh"
#include "segment/direct_segment.hh"

namespace emv {
namespace ckpt {
class Encoder;
class Decoder;
} // namespace ckpt
} // namespace emv

namespace emv::os {

/** OS-level policy knobs. */
struct OsConfig
{
    /** Transparent huge pages: opportunistic 2M mappings for
     *  regions whose preferred size is 4K. */
    bool thp = false;

    /** Fraction of 4K faults THP manages to promote (alignment and
     *  availability permitting); models THP's imperfect coverage. */
    double thpCoverage = 0.9;

    /**
     * Preferred placement for kernel (page-table) pool chunks.
     * The machine layer sets this to the end of the I/O gap for
     * virtualized builds so guest page tables land inside the VMM
     * direct segment — the paper's "guest kernel module" change
     * (§III.B).  Kernel chunks cluster here, keeping unmovable
     * memory out of compaction's way.
     */
    Addr kernelAllocBase = 0;
};

/** Outcome of a fault (for cost accounting). */
struct FaultOutcome
{
    bool ok = false;
    bool usedSegmentOffset = false;  //!< §VI.B emulation path.
    bool remappedBadPage = false;    //!< Escaped a faulty frame.
    PageSize mappedSize = PageSize::Size4K;
};

/** The OS. */
class GuestOs
{
  public:
    /**
     * @param phys     Access to this OS's physical address space.
     * @param span     Total physical address-space span [0, span).
     * @param ram      Initially present RAM ranges within the span.
     * @param config   Policy knobs.
     */
    GuestOs(mem::PhysAccessor &phys, Addr span,
            const std::vector<Interval> &ram, OsConfig config = {});

    GuestOs(const GuestOs &) = delete;
    GuestOs &operator=(const GuestOs &) = delete;

    /** @{ Processes and regions. */
    Process &createProcess();

    void defineRegion(Process &proc, std::string name, Addr va,
                      Addr bytes, PageSize preferred,
                      bool primary = false);

    /** Demand-page the address @p gva (guest page-fault handler). */
    FaultOutcome handleFault(Process &proc, Addr gva);

    /**
     * Eagerly populate [va, va+bytes) of defined regions, one 2 MB
     * window at a time.  A window of 4K pages that is unmapped, not
     * THP-managed, not segment-backed and whose frames would all be
     * healthy gets its frames as one buddy run, one page-table call
     * and one mapping-hook call, when the kernel pool can supply its
     * tables; any other window is faulted in page by page.  Either
     * way every frame and table is the per-page one, and the hook
     * hears of the same pages in the same order.
     */
    void populateRange(Process &proc, Addr va, Addr bytes);

    /**
     * Unmap [va, va+bytes), freeing backing frames (except frames
     * owned by a segment reservation, which stay reserved).
     * @return Number of pages unmapped.
     */
    std::uint64_t unmapRange(Process &proc, Addr va, Addr bytes);
    /** @} */

    /**
     * Create a guest segment backing the process's primary region
     * with contiguous physical memory (best-fit in the buddy's free
     * intervals).  Fails if fragmentation prevents a single run.
     */
    std::optional<segment::SegmentRegs>
    createGuestSegment(Process &proc);

    /** Release a process's guest-segment reservation. */
    void releaseGuestSegment(Process &proc);

    /** @{ Hotplug (memory-hotplug substrate [38]). */
    /** Hot-add RAM (must lie in the span and not be present). */
    void hotAdd(Addr base, Addr bytes);
    /** Hot-remove RAM; fails unless the range is entirely free. */
    bool hotRemove(Addr base, Addr bytes);
    /** Present RAM ranges. */
    const IntervalSet &ram() const { return ramSet; }
    /** @} */

    /**
     * The frame manager of this OS's physical memory: buddy
     * allocator, bad-page list, unmovable set and the kernel
     * (page-table) pool, placed at OsConfig::kernelAllocBase.  It is
     * the MemSpace of every process page table.
     */
    FrameManager &frames() { return _frames; }

    /** All live processes (compaction reverse maps, tests). */
    std::vector<Process *> liveProcesses();

    /**
     * Observer of mapping changes: fired after a run of leaves is
     * mapped (mapped=true) or unmapped (mapped=false).  A run is
     * [va, va+bytes) of VA-contiguous leaves of one @p size, and runs
     * arrive in ascending VA order within one call of the OS: a
     * populated 2 MB window is one run, an unmapped range one run per
     * stretch without a hole or a size change, and a page mapped on
     * its own (a fault, a page of a window populate leaves to the
     * fault path) is a run of one.  The machine layer uses it for
     * TLB invalidation (per leaf) and shadow-table coherence (per
     * run).
     */
    using MappingHook = std::function<void(
        Process &, Addr va, Addr bytes, PageSize size, bool mapped)>;
    void setMappingHook(MappingHook hook)
    { mappingHook = std::move(hook); }

    StatGroup &stats() { return _stats; }

    /**
     * Checkpoint RAM layout, buddy state, every process (by index —
     * the roster is fixed after boot), bad pages, unmovable set,
     * kernel pool, THP RNG and stats.  Hooks are not checkpointed;
     * owners re-wire them after restore.
     */
    template <class Ar>
    void persist(Ar &ar);

  private:
    /**
     * Map one page of @p region at @p va_page.
     * @return the size of the leaf now covering @p va_page, or
     *         nullopt when out of memory.
     */
    std::optional<PageSize> mapPage(Process &proc, const Region &region,
                                    Addr va_page);

    /**
     * populateRange()'s extent path: map the 4K pages of [@p va,
     * @p end), inside one 2 MB window of @p region, exactly as
     * mapPage() would one by one, if the window qualifies.
     * @return false, changing nothing, when it does not.
     */
    bool mapWindow(Process &proc, const Region &region, Addr va,
                   Addr end);

    OsConfig config;
    Addr span;
    IntervalSet ramSet;
    struct Stats : StatGroup
    {
        Stats() : StatGroup("os") {}
        Counter hotAdds{*this, "hot_adds"};
        Counter hotAddedBytes{*this, "hot_added_bytes"};
        Counter hotRemoves{*this, "hot_removes"};
        Counter hotRemovedBytes{*this, "hot_removed_bytes"};
        Counter badPagesRetired{*this, "bad_pages_retired"};
        Counter kernelChunks{*this, "kernel_chunks"};
        Counter segmentOffsetMaps{*this, "segment_offset_maps"};
        Counter escapeRemaps{*this, "escape_remaps"};
        Counter thpPromotions{*this, "thp_promotions"};
        Counter pagesMapped{*this, "pages_mapped"};
        Counter sizeFallbacks{*this, "size_fallbacks"};
        Counter segfaults{*this, "segfaults"};
        Counter faults{*this, "faults"};
        Counter pagesUnmapped{*this, "pages_unmapped"};
        Counter segmentFailures{*this, "segment_failures"};
        Counter segmentsCreated{*this, "segments_created"};
        Counter segmentsReleased{*this, "segments_released"};
    };
    Stats _stats;
    FrameManager _frames;
    /** After the frames: page tables free theirs on teardown. */
    std::vector<std::unique_ptr<Process>> processes;
    MappingHook mappingHook;
    Rng thpRng{0x7709};
    int nextPid = 1;
};

} // namespace emv::os

