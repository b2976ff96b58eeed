/**
 * @file
 * The KVM-like hypervisor model.
 *
 * Vmm owns host physical memory management: the same
 * os::FrameManager a guest kernel uses, over host RAM.  Each Vm
 * owns: KVM-style memory slots (Fig. 10), the authoritative gPA→hPA
 * BackingMap, a real nested page table derived from it, the
 * VMM-segment machinery (creation over contiguous backing,
 * escape-filter remapping of faulty host frames), the
 * balloon/hotplug backend used by
 * self-ballooning (§IV/§VI.C), and host-side compaction that
 * "slowly converts" fragmented systems to segment-capable ones
 * (Table III).
 */

#pragma once

#include <array>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/intervals.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "mem/phys_accessor.hh"
#include "mem/phys_memory.hh"
#include "os/balloon.hh"
#include "os/frame_manager.hh"
#include "paging/page_table.hh"
#include "segment/direct_segment.hh"
#include "vmm/backing_map.hh"
#include "vmm/memory_slots.hh"

namespace emv {
namespace ckpt {
class Encoder;
class Decoder;
} // namespace ckpt
} // namespace emv

namespace emv::vmm {

class Vmm;

/** Why a VM exited to the VMM; each has a vm_exits_<reason> stat. */
enum class ExitReason : std::uint8_t {
    NestedRepair,
    SwapIn,
    NestedFault,
    Balloon,
    HotAdd,
    HotRemove,
    NumReasons,
};

/** Per-VM construction parameters. */
struct VmConfig
{
    /** Total guest RAM (split around the I/O gap). */
    Addr ramBytes = 4 * GiB;

    /** RAM below the I/O gap ([0, lowRamBytes)). */
    Addr lowRamBytes = 3 * GiB;

    /** I/O gap location (x86-64: [3 GB, 4 GB)). */
    Addr ioGapStart = 3 * GiB;
    Addr ioGapEnd = 4 * GiB;

    /** gPA reserve for hot-add (§VI.C pre-extended second slot). */
    Addr extensionReserve = 0;

    /** Nested page-table mapping granularity (the "+4K/+2M/+1G" of
     *  the paper's configuration labels). */
    PageSize nestedPageSize = PageSize::Size4K;

    /** Back all guest RAM at creation (vs on nested faults). */
    bool eagerBacking = true;

    /** Reserve one contiguous host block per RAM range (§VI.A);
     *  when false, eager backing allocates page-by-page. */
    bool contiguousHostReservation = true;
};

/**
 * The runs in which a nested table maps [@p gpa, @p gpa + @p bytes)
 * to the host frames from @p hpa.  A run's granule is the largest
 * size up to @p nested that the alignment of its start, in both
 * spaces, and the remainder allow; the run lasts while that granule
 * stays the same.  Calls @p run(pos, run_bytes, size) for each run
 * in ascending order, with O(1) work per run.
 */
void forEachGranuleRun(Addr gpa, Addr bytes, Addr hpa, PageSize nested,
                       const std::function<void(Addr, Addr, PageSize)>
                           &run);

/** VMM segment creation result. */
struct VmmSegmentInfo
{
    segment::SegmentRegs regs;
    std::vector<Addr> escapedGpas;  //!< Remapped faulty pages (§V).
};

/** One virtual machine. */
class Vm : public os::BalloonBackend
{
  public:
    Vm(Vmm &vmm, StatName name, const VmConfig &config);
    ~Vm() override;

    Vm(const Vm &) = delete;
    Vm &operator=(const Vm &) = delete;

    /** @{ Guest-visible geometry. */
    /** Initially present guest RAM ranges (around the I/O gap). */
    std::vector<Interval> guestRamLayout() const;
    /** Total gPA span (RAM + gap + extension reserve). */
    Addr gpaSpan() const;
    const MemorySlots &slots() const { return _slots; }
    /** @} */

    /** @{ Backing and nested paging. */
    /** Physical-memory view handed to the guest OS. */
    mem::PhysAccessor &guestPhys();

    /** Nested page-table root (host PA), for the MMU. */
    Addr nestedRoot() const { return nestedPt->root(); }

    /** Nested fault handler: back @p gpa, mapping nestedPageSize.
     *  @return false when gpa is outside guest memory or the host
     *  is out of memory. */
    bool ensureBacked(Addr gpa);

    std::optional<Addr> gpaToHpa(Addr gpa) const
    { return backing.toHpa(gpa); }

    const BackingMap &backingMap() const { return backing; }

    /** Repoint one 4K gPA page to a different host frame (page
     *  sharing / COW break).  Does not free the old frame. */
    void repointBacking(Addr gpa, Addr new_hpa);

    /**
     * Back one currently unbacked 4K gPA page with a specific
     * (already allocated) host frame.  Used to model pre-existing
     * neighbour-VM allocations that fragment the host.
     */
    bool backWithFrame(Addr gpa, Addr hpa);
    /** @} */

    /** @{ VMM segment (Dual/VMM Direct support). */
    /**
     * Create a VMM segment over the largest contiguous backing
     * extent.  Faulty host frames inside it are remapped to healthy
     * memory and reported for escape-filter insertion.
     * @param min_bytes Fail if the best extent is smaller.
     */
    std::optional<VmmSegmentInfo> createVmmSegment(Addr min_bytes);

    /**
     * Table III slow path: compact host memory and relocate the
     * backing of [gpa_base, gpa_base+bytes) onto one contiguous
     * host run so a VMM segment can cover it.
     *
     * @param max_migrations Work budget in pages (0 = unlimited).
     * @return Pages migrated, or nullopt on failure/over-budget.
     */
    std::optional<std::uint64_t>
    materializeVmmSegmentBacking(Addr gpa_base, Addr bytes,
                                 std::uint64_t max_migrations = 0);
    /** @} */

    /** @{ VMM-level swapping (Table II).
     *
     * Swapping reclaims a backed frame to a software swap store;
     * the next nested fault on the gPA swaps it back in.  Pages
     * inside an active VMM segment are declined — their frames
     * cannot leave the segment's linear backing, which is exactly
     * Table II's "limited" VMM swapping under Dual/VMM Direct. */
    /** Swap one 4K page out. @return false if declined/unbacked. */
    bool swapOutPage(Addr gpa);
    /** True if @p gpa currently lives in the swap store. */
    bool isSwappedOut(Addr gpa) const;
    /** Pages currently swapped out. */
    std::size_t swappedPages() const { return swapStore.size(); }
    /** @} */

    /** gPA range covered by the active VMM segment (empty if no
     *  segment was created). */
    const Interval &activeSegmentRegion() const
    { return segmentRegion; }

    /** @{ Fault recovery (graceful degradation support).
     *
     * offlineFrame() handles a DRAM hard fault on the frame backing
     * @p gpa: copy the (still readable) contents to a healthy frame,
     * repoint the backing, and retire the faulty frame so it is
     * never reallocated.  dropNestedMapping() models nested-PTE
     * corruption detection: the poisoned leaf is discarded and the
     * next nested fault re-derives it from the BackingMap (see
     * ensureBacked()'s repair path). */
    /** Migrate @p gpa's backing off its (faulty) host frame.
     *  @return false if gpa is unbacked or the host is out of
     *  healthy memory. */
    bool offlineFrame(Addr gpa);

    /** Discard the nested leaf for @p gpa without touching the
     *  backing map.  @return false if gpa is not backed. */
    bool dropNestedMapping(Addr gpa);

    /** Inject transient failures into balloon/hotplug requests:
     *  while the hook returns true, grantExtension() fails. */
    void setExtensionFaultHook(std::function<bool()> hook)
    { extensionFaultHook = std::move(hook); }

    /** Inject failures into segment-backing materialization: while
     *  the hook returns true, materializeVmmSegmentBacking() fails. */
    void setCompactionFaultHook(std::function<bool()> hook)
    { compactionFaultHook = std::move(hook); }
    /** @} */

    /** @{ Balloon/hotplug backend (guest driver calls these). */
    void reclaimGuestPages(const std::vector<Addr> &gpas) override;
    void reclaimGuestRange(Addr base, Addr bytes) override;
    std::optional<Addr> grantExtension(Addr bytes) override;
    /** @} */

    /** @{ Accounting and wiring. */
    std::uint64_t vmExits() const
    { return _stats.vmExits.value(); }

    /** Machine layer hook: nested mapping changed for a gPA page. */
    void setNestedChangeHook(
        std::function<void(Addr gpa, PageSize size)> hook)
    { nestedChangeHook = std::move(hook); }

    StatGroup &stats() { return _stats; }
    const std::string &name() const { return _name; }
    const VmConfig &config() const { return cfg; }
    Vmm &vmm() { return _vmm; }
    /** @} */

    /**
     * Checkpoint all mutable VM state: slots, backing map, nested
     * page-table metadata, extension cursors, segment region, swap
     * store and stats.  (Nested table *contents* travel with host
     * physical memory; hooks are re-wired by the owner.)
     */
    template <class Ar>
    void persist(Ar &ar);

  private:
    friend class Vmm;
    class GuestPhysAccessor;

    /** Map [gpa, gpa+bytes) -> [hpa, ...) in the nested table using
     *  the largest granules that alignment allows. */
    void mapNestedRange(Addr gpa, Addr bytes, Addr hpa);

    /** Replace any large nested leaf covering @p gpa with 4K
     *  mappings so a single page can be changed. */
    void splitNestedLeaf(Addr gpa);

    /** Back a range eagerly; fatal on host exhaustion. */
    void backRange(Addr gpa, Addr bytes);

    void countExit(ExitReason reason);

    struct Stats : StatGroup
    {
        using StatGroup::StatGroup;
        Counter vmExits{*this, "vm_exits"};
        /** Indexed by ExitReason. */
        Counter exitsByReason[static_cast<std::size_t>(
            ExitReason::NumReasons)] = {
            {*this, "vm_exits_nested_repair"},
            {*this, "vm_exits_swap_in"},
            {*this, "vm_exits_nested_fault"},
            {*this, "vm_exits_balloon"},
            {*this, "vm_exits_hot_add"},
            {*this, "vm_exits_hot_remove"},
        };
        Counter contiguousReservations{*this, "contiguous_reservations"};
        Counter nestedLeafSplits{*this, "nested_leaf_splits"};
        Counter nestedMappingsRepaired{*this, "nested_mappings_repaired"};
        Counter pagesSwappedIn{*this, "pages_swapped_in"};
        Counter framesOfflined{*this, "frames_offlined"};
        Counter nestedMappingsDropped{*this, "nested_mappings_dropped"};
        Counter swapDeclined{*this, "swap_declined"};
        Counter pagesSwappedOut{*this, "pages_swapped_out"};
        Counter vmmSegmentFailures{*this, "vmm_segment_failures"};
        Counter escapeRemaps{*this, "escape_remaps"};
        Counter vmmSegmentsCreated{*this, "vmm_segments_created"};
        Counter balloonPagesDeclined{*this, "balloon_pages_declined"};
        Counter balloonPagesReclaimed{*this, "balloon_pages_reclaimed"};
        Counter extensionFaultsInjected{*this, "extension_faults_injected"};
        Counter extensionFailures{*this, "extension_failures"};
        Counter extensionsGranted{*this, "extensions_granted"};
        Counter extensionBytes{*this, "extension_bytes"};
        Counter rangeReclaimedBytes{*this, "range_reclaimed_bytes"};
        Counter compactionFaultsInjected{*this, "compaction_faults_injected"};
        Counter compactionFailures{*this, "compaction_failures"};
        Counter hostCompactions{*this, "host_compactions"};
        Counter pagesMigrated{*this, "pages_migrated"};
    };

    Vmm &_vmm;
    std::string _name;
    VmConfig cfg;
    MemorySlots _slots;
    BackingMap backing;
    std::unique_ptr<paging::PageTable> nestedPt;
    std::unique_ptr<GuestPhysAccessor> accessor;
    Addr extensionCursor = 0;
    /** Host memory pre-reserved for the extension area when the
     *  boot reservation was contiguous; 0 = back on demand.  Keeps
     *  [ioGapEnd, top) one extent so a VMM segment can cover the
     *  whole post-reclaim high range. */
    Addr extensionHostBase = 0;
    /** gPA range of the active VMM segment.  Ballooning inside it
     *  is declined (Table II: "limited") — harvesting those frames
     *  would punch holes in the segment's linear backing. */
    Interval segmentRegion{};
    /** Swapped-out page contents, keyed by gPA page base. */
    std::unordered_map<Addr, std::array<std::uint64_t, 512>>
        swapStore;
    std::function<void(Addr, PageSize)> nestedChangeHook;
    std::function<bool()> extensionFaultHook;
    std::function<bool()> compactionFaultHook;
    Stats _stats;
};

/** The hypervisor: host memory authority + VM factory. */
class Vmm
{
  public:
    /**
     * @param host_mem Host physical memory.
     * @param host_ram_bytes Managed host RAM (<= host_mem.size()).
     */
    Vmm(mem::PhysMemory &host_mem, Addr host_ram_bytes);

    Vm &createVm(StatName name, const VmConfig &config);

    /**
     * The frame manager of host RAM: host buddy, retired bad frames,
     * unmovable host frames (which host compaction avoids) and the
     * table pool, clustered low so compaction windows stay clean.
     * It is the MemSpace of every nested and shadow page table.
     */
    os::FrameManager &frames() { return _frames; }

    mem::PhysMemory &hostMem() { return _hostMem; }

    std::vector<Vm *> vms();
    StatGroup &stats() { return _stats; }

    /**
     * Checkpoint host-memory management plus every VM (by index;
     * the VM roster itself is fixed at boot and rebuilt by
     * deterministic construction before restore).
     */
    template <class Ar>
    void persist(Ar &ar);

  private:
    mem::PhysMemory &_hostMem;
    mem::HostPhysAccessor hostPhys{_hostMem};
    struct Stats : StatGroup
    {
        Stats() : StatGroup("vmm") {}
        Counter badFramesRetired{*this, "bad_frames_retired"};
        Counter tableChunks{*this, "table_chunks"};
    };
    Stats _stats;
    os::FrameManager _frames;
    /** Last member: Vm teardown frees table frames to the frame
     *  manager above. */
    std::vector<std::unique_ptr<Vm>> _vms;
};

} // namespace emv::vmm

