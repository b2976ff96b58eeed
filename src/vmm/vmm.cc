#include "vmm/vmm.hh"

#include <algorithm>

#include "common/audit.hh"
#include "common/ckpt.hh"
#include "common/logging.hh"
#include "common/trace.hh"

namespace emv::vmm {

namespace {

constexpr Addr kGuestHvaBase = 0x7f0000000000ull;

} // namespace

/** The guest's view of its physical memory. */
class Vm::GuestPhysAccessor : public mem::PhysAccessor
{
  public:
    explicit GuestPhysAccessor(Vm &vm) : vm(vm) {}

    std::uint64_t
    read64(Addr gpa) const override
    {
        auto hpa = vm.backing.toHpa(gpa);
        if (!hpa)
            return 0;  // Unbacked guest memory reads as zero.
        return vm._vmm.hostMem().read64(*hpa);
    }

    void
    write64(Addr gpa, std::uint64_t value) override
    {
        vm._vmm.hostMem().write64(backedHpa(gpa), value);
    }

    // A 4 KB guest frame is contiguous in host memory, so a run
    // translates once.
    void
    readRun(Addr gpa, unsigned n, std::uint64_t *out) const override
    {
        auto hpa = vm.backing.toHpa(gpa);
        if (!hpa) {
            std::fill(out, out + n, 0);
            return;
        }
        vm._vmm.hostMem().readRun(*hpa, n, out);
    }

    void
    writeRun(Addr gpa, unsigned n, const std::uint64_t *values) override
    {
        vm._vmm.hostMem().writeRun(backedHpa(gpa), n, values);
    }

    void
    writeStep(Addr frame_base, std::uint64_t first,
              std::uint64_t stride) override
    {
        vm._vmm.hostMem().writeStep(backedHpa(frame_base), first, stride);
    }

    bool
    readStep(Addr frame_base, std::uint64_t &first,
             std::uint64_t &stride) const override
    {
        auto hpa = vm.backing.toHpa(frame_base);
        if (!hpa) {
            // Unbacked: zeros, counting nothing, as readRun() reads.
            first = stride = 0;
            return true;
        }
        return vm._vmm.hostMem().readStep(*hpa, first, stride);
    }

    void
    zeroFrame(Addr frame_base) override
    {
        vm._vmm.hostMem().zeroFrame(backedHpa(frame_base));
    }

    void
    copyFrame(Addr dst_base, Addr src_base) override
    {
        const Addr dst = backedHpa(dst_base);
        auto src = vm.backing.toHpa(src_base);
        if (!src) {
            vm._vmm.hostMem().zeroFrame(dst);
            return;
        }
        vm._vmm.hostMem().copyFrame(dst, *src);
    }

    // isBad() keeps its default: the VMM hides host hard faults from
    // the guest.

  private:
    /** The host address of @p gpa, backing its page on demand. */
    Addr
    backedHpa(Addr gpa)
    {
        auto hpa = vm.backing.toHpa(gpa);
        if (hpa)
            return *hpa;
        if (!vm.ensureBacked(gpa))
            emv_fatal("guest access to unbackable gPA %s",
                      hexAddr(gpa).c_str());
        return *vm.backing.toHpa(gpa);
    }

    Vm &vm;
};

Vmm::Vmm(mem::PhysMemory &host_mem, Addr host_ram_bytes)
    : _hostMem(host_mem),
      _frames(hostPhys, host_ram_bytes, 0, _stats.badFramesRetired,
              _stats.tableChunks)
{
    emv_assert(host_ram_bytes <= host_mem.size(),
               "host RAM exceeds physical memory size");
}

Vm &
Vmm::createVm(StatName name, const VmConfig &config)
{
    _vms.push_back(std::make_unique<Vm>(*this, name, config));
    EMV_TRACE(Vmm, "created VM \"%s\" ram=%llu nested=%s",
              _vms.back()->name().c_str(),
              static_cast<unsigned long long>(config.ramBytes),
              pageSizeName(config.nestedPageSize));
    return *_vms.back();
}

std::vector<Vm *>
Vmm::vms()
{
    std::vector<Vm *> out;
    out.reserve(_vms.size());
    for (auto &vm : _vms)
        out.push_back(vm.get());
    return out;
}

Vm::Vm(Vmm &vmm, StatName name, const VmConfig &config)
    : _vmm(vmm), _name(name.c_str()), cfg(config), _stats("vm", name)
{
    emv_assert(cfg.ramBytes > cfg.lowRamBytes,
               "VM needs RAM above the I/O gap");
    emv_assert(cfg.lowRamBytes <= cfg.ioGapStart,
               "low RAM overlaps the I/O gap");
    emv_assert(isAligned(cfg.ramBytes, kPage2M) &&
               isAligned(cfg.lowRamBytes, kPage2M) &&
               isAligned(cfg.extensionReserve, kPage2M),
               "VM memory sizes must be 2M aligned");

    const Addr high_ram = cfg.ramBytes - cfg.lowRamBytes;
    // KVM's two big slots (Fig. 10); the second is pre-extended by
    // the hot-add reserve per §VI.C.
    _slots.addSlot("low", 0, cfg.lowRamBytes, kGuestHvaBase);
    _slots.addSlot("high", cfg.ioGapEnd,
                   high_ram + cfg.extensionReserve,
                   kGuestHvaBase + cfg.ioGapEnd);

    nestedPt = std::make_unique<paging::PageTable>(vmm.frames());
    accessor = std::make_unique<GuestPhysAccessor>(*this);

    if (cfg.eagerBacking) {
        backRange(0, cfg.lowRamBytes);
        // Try to reserve the high range *and* the extension area as
        // one host block, so hot-added memory extends the same
        // extent and a single VMM segment can cover [gap end, top).
        if (cfg.contiguousHostReservation &&
            cfg.extensionReserve > 0) {
            auto &buddy = _vmm.frames().buddy();
            auto fit = buddy.freeIntervals().findFit(
                high_ram + cfg.extensionReserve,
                pageBytes(cfg.nestedPageSize));
            if (fit &&
                buddy.allocateRange(fit->start,
                                    high_ram + cfg.extensionReserve)) {
                backing.add(cfg.ioGapEnd, high_ram, fit->start);
                mapNestedRange(cfg.ioGapEnd, high_ram, fit->start);
                extensionHostBase = fit->start + high_ram;
                ++_stats.contiguousReservations;
                return;
            }
        }
        backRange(cfg.ioGapEnd, high_ram);
    }
}

Vm::~Vm() = default;

mem::PhysAccessor &
Vm::guestPhys()
{
    return *accessor;
}

std::vector<Interval>
Vm::guestRamLayout() const
{
    return {Interval{0, cfg.lowRamBytes},
            Interval{cfg.ioGapEnd,
                     cfg.ioGapEnd + (cfg.ramBytes - cfg.lowRamBytes)}};
}

Addr
Vm::gpaSpan() const
{
    return cfg.ioGapEnd + (cfg.ramBytes - cfg.lowRamBytes) +
           cfg.extensionReserve;
}

void
Vm::countExit(ExitReason reason)
{
    ++_stats.vmExits;
    ++_stats.exitsByReason[static_cast<std::size_t>(reason)];
}

void
forEachGranuleRun(Addr gpa, Addr bytes, Addr hpa, PageSize nested,
                  const std::function<void(Addr, Addr, PageSize)> &run)
{
    // Largest granule that alignment and the remainder allow at pos.
    const auto granule = [&](Addr pos) {
        PageSize size = nested;
        while (size != PageSize::Size4K &&
               (!isAligned(gpa + pos, pageBytes(size)) ||
                !isAligned(hpa + pos, pageBytes(size)) ||
                pos + pageBytes(size) > bytes)) {
            size = size == PageSize::Size1G ? PageSize::Size2M
                                            : PageSize::Size4K;
        }
        return size;
    };
    // A run ends at its last whole granule, or earlier at the first
    // boundary of a larger size that gpa - hpa is aligned to, if that
    // size fits there.
    for (Addr pos = 0; pos < bytes;) {
        const PageSize size = granule(pos);
        const Addr page = pageBytes(size);
        Addr end = pos + (bytes - pos) / page * page;
        for (const PageSize larger : {PageSize::Size2M, PageSize::Size1G}) {
            const Addr big = pageBytes(larger);
            if (big <= page || big > pageBytes(nested) ||
                !isAligned(gpa - hpa, big))
                continue;
            const Addr next = alignDown(gpa + pos, big) + big - gpa;
            if (next + big <= bytes)
                end = std::min(end, next);
        }
        run(pos, end - pos, size);
        pos = end;
    }
}

void
Vm::mapNestedRange(Addr gpa, Addr bytes, Addr hpa)
{
    forEachGranuleRun(gpa, bytes, hpa, cfg.nestedPageSize,
                      [&](Addr pos, Addr run_bytes, PageSize size) {
                          nestedPt->mapRange(gpa + pos, hpa + pos,
                                             run_bytes, size);
                      });
}

void
Vm::splitNestedLeaf(Addr gpa)
{
    auto mapping = nestedPt->translate(gpa);
    if (!mapping || mapping->size == PageSize::Size4K)
        return;
    const Addr leaf_bytes = pageBytes(mapping->size);
    const Addr gpa_base = alignDown(gpa, leaf_bytes);
    const Addr hpa_base = mapping->pa - (gpa - gpa_base);
    nestedPt->unmap(gpa_base, mapping->size);
    nestedPt->mapRange(gpa_base, hpa_base, leaf_bytes, PageSize::Size4K);
    ++_stats.nestedLeafSplits;
}

void
Vm::backRange(Addr gpa, Addr bytes)
{
    if (bytes == 0)
        return;
    auto &buddy = _vmm.frames().buddy();
    if (cfg.contiguousHostReservation) {
        // §VI.A: reserve one contiguous host block for the range.
        auto fit = buddy.freeIntervals().findFit(
            bytes, pageBytes(cfg.nestedPageSize));
        if (fit && buddy.allocateRange(fit->start, bytes)) {
            backing.add(gpa, bytes, fit->start);
            mapNestedRange(gpa, bytes, fit->start);
            ++_stats.contiguousReservations;
            return;
        }
        emv_warn("VM %s: no contiguous host block for %llu bytes; "
                 "falling back to paged backing",
                 _name.c_str(),
                 static_cast<unsigned long long>(bytes));
    }
    // Paged backing: block-by-block at the nested granularity, and a
    // tail shorter than that in the largest blocks that fit.
    for (Addr pos = 0; pos < bytes;) {
        PageSize size = cfg.nestedPageSize;
        while (size != PageSize::Size4K && pageBytes(size) > bytes - pos)
            size = size == PageSize::Size1G ? PageSize::Size2M
                                            : PageSize::Size4K;
        auto block = _vmm.frames().allocBlock(size);
        if (!block)
            emv_fatal("host out of memory backing VM %s",
                      _name.c_str());
        backing.add(gpa + pos, pageBytes(size), *block);
        mapNestedRange(gpa + pos, pageBytes(size), *block);
        pos += pageBytes(size);
    }
}

bool
Vm::ensureBacked(Addr gpa)
{
    if (!_slots.gpaToHva(gpa))
        return false;  // Outside guest memory (e.g. I/O gap).
    if (backing.toHpa(gpa)) {
        // Backed but missing its nested leaf: a dropped (corrupted)
        // nested PTE.  The BackingMap is authoritative — re-derive
        // the mapping from it instead of allocating a new frame.
        const Addr page = alignDown(gpa, kPage4K);
        if (!nestedPt->translate(page)) {
            splitNestedLeaf(page);
            nestedPt->map(page, *backing.toHpa(page),
                          PageSize::Size4K);
            countExit(ExitReason::NestedRepair);
            ++_stats.nestedMappingsRepaired;
        }
        return true;
    }

    // Swapped-out page: the nested fault swaps it back in.
    const Addr swap_page = alignDown(gpa, kPage4K);
    if (auto it = swapStore.find(swap_page); it != swapStore.end()) {
        auto frame = _vmm.frames().allocBlock(PageSize::Size4K);
        if (!frame)
            return false;
        for (unsigned i = 0; i < 512; ++i)
            _vmm.hostMem().write64(*frame + 8ull * i,
                                   it->second[i]);
        backing.add(swap_page, kPage4K, *frame);
        splitNestedLeaf(swap_page);
        nestedPt->map(swap_page, *frame, PageSize::Size4K);
        swapStore.erase(it);
        countExit(ExitReason::SwapIn);
        ++_stats.pagesSwappedIn;
        return true;
    }

    countExit(ExitReason::NestedFault);
    const Addr block_bytes = pageBytes(cfg.nestedPageSize);
    const Addr base = alignDown(gpa, block_bytes);

    // Use the full nested granule only when the whole naturally
    // aligned block is inside the slot and completely unbacked;
    // otherwise back just this 4K page.
    bool whole_block_free = _slots.gpaToHva(base).has_value() &&
                            _slots.gpaToHva(base + block_bytes - 1)
                                .has_value();
    if (whole_block_free) {
        bool any = false;
        backing.forEachIn(base, block_bytes,
                          [&](const Extent &) { any = true; });
        whole_block_free = !any;
    }

    if (whole_block_free && cfg.nestedPageSize != PageSize::Size4K) {
        auto block = _vmm.frames().allocBlock(cfg.nestedPageSize);
        if (block) {
            backing.add(base, block_bytes, *block);
            mapNestedRange(base, block_bytes, *block);
            return true;
        }
    }
    auto frame = _vmm.frames().allocBlock(PageSize::Size4K);
    if (!frame)
        return false;
    const Addr page = alignDown(gpa, kPage4K);
    backing.add(page, kPage4K, *frame);
    splitNestedLeaf(page);
    nestedPt->map(page, *frame, PageSize::Size4K);
    return true;
}

void
Vm::repointBacking(Addr gpa, Addr new_hpa)
{
    emv_assert(isAligned(gpa, kPage4K) && isAligned(new_hpa, kPage4K),
               "repointBacking arguments must be 4K aligned");
    splitNestedLeaf(gpa);
    if (nestedPt->translate(gpa))
        nestedPt->unmap(gpa, PageSize::Size4K);
    nestedPt->map(gpa, new_hpa, PageSize::Size4K);
    backing.remove(gpa, kPage4K);
    backing.add(gpa, kPage4K, new_hpa);
    if (nestedChangeHook)
        nestedChangeHook(gpa, PageSize::Size4K);
}

bool
Vm::offlineFrame(Addr gpa)
{
    const Addr page = alignDown(gpa, kPage4K);
    auto hpa = backing.toHpa(page);
    if (!hpa)
        return false;
    auto healthy = _vmm.frames().allocBlock(PageSize::Size4K);
    if (!healthy)
        return false;
    _vmm.hostMem().copyFrame(*healthy, *hpa);
    repointBacking(page, *healthy);
    // Retire the faulty frame: keep it allocated, never reuse.
    _vmm.frames().markUnmovable(*hpa, kPage4K);
    ++_stats.framesOfflined;
    EMV_TRACE(Vmm, "frame offlined: gpa=%s hpa %s -> %s",
              hexAddr(page).c_str(), hexAddr(*hpa).c_str(),
              hexAddr(*healthy).c_str());
    return true;
}

bool
Vm::dropNestedMapping(Addr gpa)
{
    const Addr page = alignDown(gpa, kPage4K);
    if (!backing.toHpa(page))
        return false;
    splitNestedLeaf(page);
    if (nestedPt->translate(page))
        nestedPt->unmap(page, PageSize::Size4K);
    if (nestedChangeHook)
        nestedChangeHook(page, PageSize::Size4K);
    ++_stats.nestedMappingsDropped;
    EMV_TRACE(Vmm, "nested mapping dropped: gpa=%s",
              hexAddr(page).c_str());
    return true;
}

bool
Vm::swapOutPage(Addr gpa)
{
    emv_assert(isAligned(gpa, kPage4K),
               "swapOutPage needs a 4K-aligned gPA");
    if (segmentRegion.contains(gpa)) {
        // Table II: VMM swapping is limited under an active
        // segment — this frame is part of the linear backing.
        ++_stats.swapDeclined;
        return false;
    }
    auto hpa = backing.toHpa(gpa);
    if (!hpa)
        return false;

    auto &contents = swapStore[gpa];
    for (unsigned i = 0; i < 512; ++i)
        contents[i] = _vmm.hostMem().read64(*hpa + 8ull * i);

    splitNestedLeaf(gpa);
    nestedPt->unmap(gpa, PageSize::Size4K);
    backing.remove(gpa, kPage4K);
    _vmm.frames().freeBlock(*hpa, PageSize::Size4K);
    if (nestedChangeHook)
        nestedChangeHook(gpa, PageSize::Size4K);
    ++_stats.pagesSwappedOut;
    return true;
}

bool
Vm::isSwappedOut(Addr gpa) const
{
    return swapStore.count(alignDown(gpa, kPage4K)) != 0;
}

bool
Vm::backWithFrame(Addr gpa, Addr hpa)
{
    emv_assert(isAligned(gpa, kPage4K) && isAligned(hpa, kPage4K),
               "backWithFrame arguments must be 4K aligned");
    if (!_slots.gpaToHva(gpa) || backing.toHpa(gpa))
        return false;
    backing.add(gpa, kPage4K, hpa);
    splitNestedLeaf(gpa);
    nestedPt->map(gpa, hpa, PageSize::Size4K);
    return true;
}

std::optional<VmmSegmentInfo>
Vm::createVmmSegment(Addr min_bytes)
{
    auto extent = backing.largestExtent();
    if (!extent || extent->bytes < min_bytes) {
        ++_stats.vmmSegmentFailures;
        return std::nullopt;
    }

    VmmSegmentInfo info;
    info.regs = segment::SegmentRegs::fromRanges(
        extent->gpa, extent->bytes, extent->hpa);

    // §V: faulty host frames inside the segment escape to paging —
    // remap each to healthy memory and report it for the filter.
    for (Addr bad :
         _vmm.hostMem().badFramesInRange(extent->hpa, extent->bytes)) {
        const Addr gpa_bad = extent->gpa + (bad - extent->hpa);
        auto healthy = _vmm.frames().allocBlock(PageSize::Size4K);
        if (!healthy)
            emv_fatal("host out of memory remapping faulty frame");
        _vmm.hostMem().copyFrame(*healthy, bad);
        splitNestedLeaf(gpa_bad);
        nestedPt->unmap(gpa_bad, PageSize::Size4K);
        nestedPt->map(gpa_bad, *healthy, PageSize::Size4K);
        backing.remove(gpa_bad, kPage4K);
        backing.add(gpa_bad, kPage4K, *healthy);
        // Retire the faulty frame: keep it allocated, never reuse.
        _vmm.frames().markUnmovable(bad, kPage4K);
        info.escapedGpas.push_back(gpa_bad);
        if (nestedChangeHook)
            nestedChangeHook(gpa_bad, PageSize::Size4K);
        ++_stats.escapeRemaps;
    }
    segmentRegion = Interval{extent->gpa, extent->gpa + extent->bytes};
    for (Addr gpa : info.escapedGpas) {
        EMV_CHECK(info.regs.contains(gpa),
                  "vmm segment: escaped gpa %s outside segment %s",
                  hexAddr(gpa).c_str(), info.regs.toString().c_str());
        EMV_CHECK([&] {
                      auto xlat = nestedPt->translate(gpa);
                      auto hpa = backing.toHpa(gpa);
                      return xlat && hpa && *hpa == xlat->pa;
                  }(),
                  "vmm segment: escaped gpa %s nested mapping "
                  "disagrees with backing map", hexAddr(gpa).c_str());
    }
    ++_stats.vmmSegmentsCreated;
    EMV_TRACE(Vmm, "VMM segment created: %s (%zu escapes)",
              info.regs.toString().c_str(),
              info.escapedGpas.size());
    return info;
}

void
Vm::reclaimGuestPages(const std::vector<Addr> &gpas)
{
    for (Addr gpa : gpas) {
        emv_assert(isAligned(gpa, kPage4K),
                   "balloon page %s not 4K aligned",
                   hexAddr(gpa).c_str());
        if (segmentRegion.contains(gpa)) {
            // Table II: ballooning is limited under an active VMM
            // segment — freeing this frame would puncture the
            // segment's linear backing, so keep it.
            ++_stats.balloonPagesDeclined;
            continue;
        }
        auto hpa = backing.toHpa(gpa);
        if (!hpa)
            continue;  // Already unbacked (extension never touched).
        splitNestedLeaf(gpa);
        nestedPt->unmap(gpa, PageSize::Size4K);
        backing.remove(gpa, kPage4K);
        _vmm.frames().freeBlock(*hpa, PageSize::Size4K);
        if (nestedChangeHook)
            nestedChangeHook(gpa, PageSize::Size4K);
        ++_stats.balloonPagesReclaimed;
    }
    countExit(ExitReason::Balloon);
}

std::optional<Addr>
Vm::grantExtension(Addr bytes)
{
    emv_assert(isAligned(bytes, kPage4K),
               "extension must be 4K aligned");
    if (extensionFaultHook && extensionFaultHook()) {
        ++_stats.extensionFaultsInjected;
        EMV_TRACE(Vmm, "extension grant failed (injected fault)");
        return std::nullopt;
    }
    if (extensionCursor + bytes > cfg.extensionReserve) {
        ++_stats.extensionFailures;
        return std::nullopt;
    }
    const Addr high_ram = cfg.ramBytes - cfg.lowRamBytes;
    const Addr base = cfg.ioGapEnd + high_ram + extensionCursor;
    if (extensionHostBase) {
        // Pre-reserved host memory: back eagerly so the extension
        // coalesces with the high-RAM extent.
        const Addr hpa = extensionHostBase + extensionCursor;
        backing.add(base, bytes, hpa);
        mapNestedRange(base, bytes, hpa);
    }
    extensionCursor += bytes;
    countExit(ExitReason::HotAdd);
    ++_stats.extensionsGranted;
    _stats.extensionBytes += bytes;
    return base;
}

void
Vm::reclaimGuestRange(Addr base, Addr bytes)
{
    // Free backing of a hot-unplugged range; nested mappings and
    // host frames both go.
    std::vector<Extent> doomed;
    backing.forEachIn(base, bytes,
                      [&](const Extent &e) { doomed.push_back(e); });
    for (const auto &e : doomed) {
        // A large nested leaf covers whole aligned 2M windows, so one
        // split check at the first page of each window does what a
        // check at every page would.
        const Addr end = e.gpa + e.bytes;
        for (Addr pos = e.gpa; pos < end;) {
            const Addr next = std::min(alignDown(pos, kPage2M) + kPage2M,
                                       end);
            splitNestedLeaf(pos);
            nestedPt->unmapRange(pos, next - pos, PageSize::Size4K);
            pos = next;
        }
        // One free per extent.  The buddy allocator coalesces fully on
        // every insert, so its free lists end exactly as they would
        // after freeing the extent 4K at a time.
        _vmm.frames().buddy().freeRange(e.hpa, e.bytes);
        backing.remove(e.gpa, e.bytes);
        if (nestedChangeHook) {
            for (Addr off = 0; off < e.bytes; off += kPage4K)
                nestedChangeHook(e.gpa + off, PageSize::Size4K);
        }
    }
    countExit(ExitReason::HotRemove);
    _stats.rangeReclaimedBytes += bytes;
}

std::optional<std::uint64_t>
Vm::materializeVmmSegmentBacking(Addr gpa_base, Addr bytes,
                                 std::uint64_t max_migrations)
{
    emv_assert(isAligned(gpa_base, kPage4K) &&
               isAligned(bytes, kPage4K),
               "segment backing range must be 4K aligned");
    if (compactionFaultHook && compactionFaultHook()) {
        ++_stats.compactionFaultsInjected;
        EMV_TRACE(Vmm, "segment materialization failed "
                  "(injected compaction fault)");
        return std::nullopt;
    }
    auto &frames = _vmm.frames();
    auto &buddy = frames.buddy();
    const Addr align = pageBytes(cfg.nestedPageSize);
    std::uint64_t migrations = 0;

    // Phase B relocates every currently backed page of the target
    // range; budget that up front.
    std::uint64_t phase_b_pages = 0;
    backing.forEachIn(gpa_base, bytes, [&](const Extent &e) {
        phase_b_pages += e.bytes / kPage4K;
    });
    if (max_migrations && phase_b_pages > max_migrations)
        return std::nullopt;

    // --- Phase A: obtain one contiguous free host run of `bytes`.
    std::optional<Interval> run;
    if (auto fit = buddy.freeIntervals().findFit(bytes, align)) {
        const bool ok = buddy.allocateRange(fit->start, bytes);
        emv_assert(ok, "free fit vanished");
        run = Interval{fit->start, fit->start + bytes};
    } else {
        // Compact: pick the host window needing the least migration.
        auto window =
            frames.bestWindow({Interval{0, buddy.size()}}, bytes, align);
        if (!window) {
            ++_stats.compactionFailures;
            return std::nullopt;
        }
        if (max_migrations &&
            window->allocatedBytes / kPage4K + phase_b_pages >
                max_migrations) {
            return std::nullopt;
        }
        const Addr wstart = window->base;
        const Addr wend = wstart + bytes;
        const auto held = frames.reserveFree(wstart, bytes);

        // Reverse-map: backed sub-extents (any VM) inside the window.
        struct Victim
        {
            Vm *vm;
            Addr gpa;
            Addr bytes;
            Addr hpa;
        };
        std::vector<Victim> victims;
        Addr victim_bytes = 0;
        for (Vm *vm : _vmm.vms()) {
            for (const auto &e : vm->backing.extents()) {
                const Addr lo = std::max(e.hpa, wstart);
                const Addr hi = std::min(e.hpa + e.bytes, wend);
                if (hi > lo) {
                    victims.push_back({vm, e.gpa + (lo - e.hpa),
                                       hi - lo, lo});
                    victim_bytes += hi - lo;
                }
            }
        }
        if (victim_bytes != window->allocatedBytes) {
            emv_warn("host compaction: %llu unowned bytes in window",
                     static_cast<unsigned long long>(
                         window->allocatedBytes - victim_bytes));
            frames.release(held);
            ++_stats.compactionFailures;
            return std::nullopt;
        }

        // Migrate victims out, 4K at a time.
        for (const auto &victim : victims) {
            for (Addr off = 0; off < victim.bytes; off += kPage4K) {
                const Addr gpa = victim.gpa + off;
                const Addr old_hpa = victim.hpa + off;
                auto newh = frames.allocBlock(PageSize::Size4K);
                if (!newh)
                    emv_fatal("host compaction out of targets");
                _vmm.hostMem().copyFrame(*newh, old_hpa);
                victim.vm->splitNestedLeaf(gpa);
                victim.vm->nestedPt->unmap(gpa, PageSize::Size4K);
                victim.vm->nestedPt->map(gpa, *newh,
                                         PageSize::Size4K);
                victim.vm->backing.remove(gpa, kPage4K);
                victim.vm->backing.add(gpa, kPage4K, *newh);
                if (victim.vm->nestedChangeHook)
                    victim.vm->nestedChangeHook(gpa,
                                                PageSize::Size4K);
                ++migrations;
            }
        }
        run = Interval{wstart, wend};
        ++_stats.hostCompactions;
    }

    // --- Phase B: relocate the target gPA range onto the run so it
    //     is contiguous in both spaces.
    for (Addr off = 0; off < bytes; off += kPage4K) {
        const Addr gpa = gpa_base + off;
        const Addr target = run->start + off;
        auto cur = backing.toHpa(gpa);
        if (cur && *cur == target)
            continue;
        if (cur) {
            _vmm.hostMem().copyFrame(target, *cur);
            _vmm.frames().freeBlock(*cur, PageSize::Size4K);
            ++migrations;
        }
        splitNestedLeaf(gpa);
        if (nestedPt->translate(gpa))
            nestedPt->unmap(alignDown(gpa, kPage4K),
                            PageSize::Size4K);
        nestedPt->map(alignDown(gpa, kPage4K), target,
                      PageSize::Size4K);
        backing.remove(gpa, kPage4K);
        backing.add(gpa, kPage4K, target);
        if (nestedChangeHook)
            nestedChangeHook(gpa, PageSize::Size4K);
    }
    _stats.pagesMigrated += migrations;
    return migrations;
}

template <class Ar>
void
Vm::persist(Ar &ar)
{
    _slots.persist(ar);
    backing.persist(ar);
    nestedPt->persist(ar);
    ar.u64(extensionCursor);
    ar.u64(extensionHostBase);
    ar.u64(segmentRegion.start);
    ar.u64(segmentRegion.end);

    std::vector<Addr> swapped;  // gPA page bases, ascending.
    if constexpr (!Ar::loading) {
        for (const auto &entry : swapStore)
            swapped.push_back(entry.first);
        std::sort(swapped.begin(), swapped.end());
    } else {
        swapStore.clear();
    }
    std::uint64_t nswapped = swapped.size();
    ar.u64(nswapped);
    for (std::uint64_t i = 0; ar.ok() && i < nswapped; ++i) {
        Addr gpa = Ar::loading ? 0 : swapped[i];
        ar.u64(gpa);
        // A save finds the page; a load inserts it.
        for (std::uint64_t &word : swapStore[gpa])
            ar.u64(word);
    }

    _stats.persist(ar);
}

template void Vm::persist(ckpt::Encoder &);
template void Vm::persist(ckpt::Decoder &);

template <class Ar>
void
Vmm::persist(Ar &ar)
{
    _frames.buddy().persist(ar);
    _frames.persist(ar, /*bad_first=*/false);
    _stats.persist(ar);
    if (!ar.fixed(_vms, "vmm: VM count mismatch (restore requires "
                        "the same boot configuration)"))
        return;
    for (auto &vm : _vms)
        vm->persist(ar);
}

template void Vmm::persist(ckpt::Encoder &);
template void Vmm::persist(ckpt::Decoder &);

} // namespace emv::vmm
