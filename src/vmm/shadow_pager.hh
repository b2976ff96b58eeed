/**
 * @file
 * Shadow paging (§II.A, §IX.D) — the classic software alternative.
 *
 * The VMM composes the guest page table (gVA→gPA) with its own
 * gPA→hPA mapping into a *shadow* table (gVA→hPA) that the hardware
 * walks natively in 1D.  TLB misses are cheap; the cost moves to
 * coherence: every guest page-table update traps to the VMM so the
 * shadow can be kept in sync.  Workloads with frequent mapping
 * churn (memcached, omnetpp, ...) pay heavily; static ones do not —
 * exactly the split the paper observes.
 */

#pragma once

#include <memory>

#include "common/stats.hh"
#include "common/types.hh"
#include "os/process.hh"
#include "paging/page_table.hh"

namespace emv {
namespace ckpt {
class Encoder;
class Decoder;
} // namespace ckpt
} // namespace emv

namespace emv::vmm {

class Vm;

/** Shadow page table for one guest process. */
class ShadowPager
{
  public:
    ShadowPager(Vm &vm, os::Process &proc);
    ~ShadowPager();

    ShadowPager(const ShadowPager &) = delete;
    ShadowPager &operator=(const ShadowPager &) = delete;

    /** Host-physical root for the hardware's 1D walk. */
    Addr shadowRoot() const;

    /** Full resync from the guest table (VM start / CR3 write). */
    void rebuildAll();

    /**
     * Guest mapped [gva, gva+bytes): sync the shadow.  Each synced
     * guest leaf costs one VM exit (write-protected guest PT trap).
     */
    void onGuestMapped(Addr gva, Addr bytes);

    /**
     * Guest unmapped [gva, gva+bytes): drop every shadow leaf the
     * range touches, one VM exit each.
     */
    void onGuestUnmapped(Addr gva, Addr bytes);

    /** Nested mapping changed under a gPA: drop affected entries. */
    void onBackingChanged(Addr gpa, Addr bytes);

    /** Coherence VM exits charged so far. */
    std::uint64_t syncExits() const
    { return _stats.syncExits.value(); }

    StatGroup &stats() { return _stats; }

    /**
     * Checkpoint shadow-table metadata and stats (the table nodes
     * live in host physical memory and travel with that chunk).
     */
    template <class Ar>
    void persist(Ar &ar);

  private:
    /**
     * Writable 4K guest leaves at consecutive VAs inside one 2 MB
     * span, waiting to go into one shadow leaf table.
     */
    struct Run
    {
        Addr va = 0;          //!< First page.
        unsigned pages = 0;
        Addr gpaLo = 0;       //!< Lowest gPA of the run's pages.
        Addr gpaHi = 0;       //!< Highest gPA of the run's pages.
        /** gPA per page; flush() turns them into hPAs. */
        Addr frames[paging::kEntriesPerTable] = {};
    };

    /** Add one guest leaf to @p run, or flush the run and sync the
     *  leaf alone when it cannot join one. */
    void sync(const paging::PageTable::Leaf &guest, Run &run);

    /**
     * Translate @p run's gPAs and map each stretch of backed pages
     * with mapRun(); an unbacked page goes through syncLeaf().
     * Empties the run.
     */
    void flush(Run &run);

    /**
     * Map the 4K pages from @p gva to the frames @p hpa with one
     * mapIfUnmapped(); when a shadow mapping is already in the span,
     * page by page as syncLeaf() would.
     */
    void mapRun(Addr gva, const Addr *hpa, unsigned pages);

    /** Sync one guest leaf into the shadow on its own. */
    void syncLeaf(const paging::PageTable::Leaf &guest);

    /**
     * Remove every shadow leaf that intersects [@p gva, @p gva +
     * @p bytes), one unmapRange() per run of VA-contiguous leaves of
     * one size.  @return the number of leaves removed.
     */
    std::uint64_t dropShadow(Addr gva, Addr bytes);

    Vm &vm;
    os::Process &proc;
    std::unique_ptr<paging::PageTable> shadowPt;
    struct Stats : StatGroup
    {
        Stats() : StatGroup("shadow") {}
        Counter rebuilds{*this, "rebuilds"};
        Counter syncExits{*this, "sync_exits"};
    };
    Stats _stats;
};

} // namespace emv::vmm

