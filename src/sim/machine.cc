#include "sim/machine.hh"

#include <algorithm>

#include "common/ckpt.hh"
#include "common/logging.hh"
#include "common/profile.hh"
#include "common/telemetry.hh"
#include "common/trace.hh"
#include "os/hotplug.hh"

namespace emv::sim {

using core::FaultSpace;
using core::Mode;

namespace {

constexpr Addr kRegionBase = 1ull << 40;     // 1 TB.
constexpr Addr kRegionStride = 1ull << 39;   // 512 GB apart.
constexpr Addr kIoGapStart = 3 * GiB;
constexpr Addr kIoGapEnd = 4 * GiB;
constexpr Addr kKernelKeepBytes = 256 * MiB;

Addr
autoGuestRam(Addr footprint)
{
    // Footprint + page tables + kernel + generous slack, so the
    // segment reservation and ordinary allocations both fit.
    return alignUp(footprint + footprint / 4 + 4 * GiB, kPage2M);
}

Addr
autoHostRam(Addr guest_ram)
{
    return alignUp(guest_ram + guest_ram / 16 + 2 * GiB, kPage2M);
}

} // namespace

Machine::Machine(const MachineConfig &config,
                 workload::Workload &workload)
    : cfg(config), wl(workload)
{
    prof::Scope build_scope(prof::Phase::MachineBuild);
    emv_assert(!cfg.shadowPaging ||
               cfg.mode == Mode::BaseVirtualized,
               "shadow paging replaces nested paging; use "
               "BaseVirtualized as the mode");

    if (core::isVirtualized(cfg.mode))
        buildVirtualized();
    else
        buildNative();

    placeRegions();

    // Guest segment first: populate() then skips its region.
    if (core::usesGuestSegment(cfg.mode)) {
        auto regs = _os->createGuestSegment(*proc);
        if (!regs) {
            emv_warn("guest segment creation failed (fragmented "
                     "gPA); falling back to paging");
        }
    }

    if (cfg.prePopulate)
        populate();

    injectBadFrames();
    setupSegments();
    wireMmu();
}

Machine::~Machine() = default;

void
Machine::buildNative()
{
    const Addr footprint = wl.info().footprintBytes;
    Addr ram = cfg.hostRamBytes ? cfg.hostRamBytes
                                : autoGuestRam(footprint);
    emv_assert(ram > kIoGapStart, "native machine too small");
    // Native physical space keeps the architectural I/O gap too.
    const Addr span = ram + (kIoGapEnd - kIoGapStart);
    _hostMem = std::make_unique<mem::PhysMemory>(span);
    hostAccessor = std::make_unique<mem::HostPhysAccessor>(*_hostMem);

    os::OsConfig os_cfg;
    os_cfg.thp = cfg.thp;
    std::vector<Interval> ram_ranges = {
        Interval{0, kIoGapStart}, Interval{kIoGapEnd, span}};
    _os = std::make_unique<os::GuestOs>(*hostAccessor, span,
                                        ram_ranges, os_cfg);

    if (cfg.guestFragmentation.enabled)
        applyGuestFragmentation();

    proc = &_os->createProcess();
}

void
Machine::buildVirtualized()
{
    // VMM-segment modes relocate the memory below the I/O gap to
    // the top (§VI.C); reserve gPA (and host) room for the move *in
    // addition to* any reserve the experiment wants for
    // self-ballooning.
    if (cfg.reclaimIoGap && core::usesVmmSegment(cfg.mode))
        cfg.extensionReserve += kIoGapStart - kKernelKeepBytes;

    const Addr footprint = wl.info().footprintBytes;
    const Addr guest_ram = cfg.guestRamBytes
                               ? cfg.guestRamBytes
                               : autoGuestRam(footprint);
    const Addr host_ram = cfg.hostRamBytes
                              ? cfg.hostRamBytes
                              : autoHostRam(guest_ram +
                                            cfg.extensionReserve);

    _hostMem = std::make_unique<mem::PhysMemory>(host_ram);
    _vmm = std::make_unique<vmm::Vmm>(*_hostMem, host_ram);

    if (cfg.hostFragmentation.enabled) {
        // Host fragmentation comes from *another VM's* scattered
        // pages: movable by host compaction, unlike pinned memory.
        mem::Fragmenter frag(cfg.hostFragmentation.seed);
        auto pins = frag.fragmentToRun(
            _vmm->frames().buddy(), cfg.hostFragmentation.maxRunBytes);
        vmm::VmConfig neighbor_cfg;
        neighbor_cfg.ramBytes =
            alignUp(pins.size() * kPage4K + 64 * MiB, kPage2M) +
            kIoGapEnd;
        neighbor_cfg.lowRamBytes = kIoGapStart;
        neighbor_cfg.eagerBacking = false;
        auto &neighbor = _vmm->createVm("neighbor", neighbor_cfg);
        Addr gpa = kIoGapEnd;
        for (const auto &pin : pins) {
            for (Addr off = 0; off < (kPage4K << pin.order);
                 off += kPage4K) {
                const bool ok =
                    neighbor.backWithFrame(gpa, pin.base + off);
                emv_assert(ok, "neighbor backing failed");
                gpa += kPage4K;
            }
        }
    }

    vmm::VmConfig vm_cfg;
    vm_cfg.ramBytes = guest_ram;
    vm_cfg.lowRamBytes = kIoGapStart;
    vm_cfg.ioGapStart = kIoGapStart;
    vm_cfg.ioGapEnd = kIoGapEnd;
    vm_cfg.extensionReserve = cfg.extensionReserve;
    vm_cfg.nestedPageSize = cfg.vmmPageSize;
    vm_cfg.eagerBacking = cfg.eagerBacking;
    vm_cfg.contiguousHostReservation = cfg.contiguousHostReservation;
    _vm = &_vmm->createVm("vm0", vm_cfg);

    os::OsConfig os_cfg;
    os_cfg.thp = cfg.thp;
    // Guest page tables go above the I/O gap so they live inside a
    // VMM direct segment (§III.B's kernel-module change).
    os_cfg.kernelAllocBase = kIoGapEnd;
    _os = std::make_unique<os::GuestOs>(_vm->guestPhys(),
                                        _vm->gpaSpan(),
                                        _vm->guestRamLayout(), os_cfg);

    // Reclaim the I/O gap when a VMM segment should cover (almost)
    // all guest memory (§VI.C).  This is a boot-time step: it must
    // precede the fragmentation that accumulates at runtime.
    if (cfg.reclaimIoGap && core::usesVmmSegment(cfg.mode)) {
        auto moved = os::reclaimIoGap(*_os, *_vm, kIoGapStart,
                                      kKernelKeepBytes);
        if (!moved)
            emv_warn("I/O gap reclamation failed");
    }

    if (cfg.guestFragmentation.enabled)
        applyGuestFragmentation();

    proc = &_os->createProcess();
}

void
Machine::applyGuestFragmentation()
{
    mem::Fragmenter frag(cfg.guestFragmentation.seed);
    auto pins = frag.fragmentToRun(
        _os->frames().buddy(), cfg.guestFragmentation.maxRunBytes);
    if (!cfg.guestFragmentation.movable) {
        // Pinned fragmentation (driver buffers, balloons): immune
        // to compaction.
        for (const auto &pin : pins)
            _os->frames().markUnmovable(pin.base, kPage4K << pin.order);
        return;
    }
    // Movable fragmentation: the scattered pages belong to a
    // background process, so compaction can migrate them.
    auto &background = _os->createProcess();
    Addr total = 0;
    for (const auto &pin : pins)
        total += kPage4K << pin.order;
    const Addr region_base = 1ull << 39;  // Below workload regions.
    _os->defineRegion(background, "background", region_base,
                      alignUp(std::max<Addr>(total, kPage4K),
                              kPage4K),
                      PageSize::Size4K);
    Addr va = region_base;
    for (const auto &pin : pins) {
        for (Addr off = 0; off < (kPage4K << pin.order);
             off += kPage4K) {
            background.pageTable().map(va, pin.base + off,
                                       PageSize::Size4K);
            va += kPage4K;
        }
    }
}

void
Machine::placeRegions()
{
    const auto &specs = wl.regions();
    std::vector<Addr> bases;
    bases.reserve(specs.size());
    Addr next = kRegionBase;
    for (const auto &spec : specs) {
        bases.push_back(next);
        _os->defineRegion(*proc, spec.name, next, spec.bytes,
                          cfg.guestPageSize, spec.primary);
        next = alignUp(next + spec.bytes + kRegionStride,
                       kRegionStride);
    }
    wl.bindRegions(bases);
}

void
Machine::populate()
{
    const auto &seg = proc->guestSegment();
    for (const auto &region : proc->regions()) {
        // Segment-covered memory needs no page tables: translation
        // bypasses them entirely (Table I), and escape/fallback
        // pages are faulted in lazily per §VI.B.
        if (seg.enabled() && seg.contains(region.base) &&
            seg.contains(region.end() - 1)) {
            continue;
        }
        _os->populateRange(*proc, region.base, region.bytes);
    }
}

void
Machine::injectBadFrames()
{
    if (cfg.badFrames == 0)
        return;
    // Faults land inside the (future) segment backing, where they
    // would otherwise forbid segment creation (§V).
    Addr lo = 0;
    Addr len = 0;
    if (core::isVirtualized(cfg.mode)) {
        auto extent = _vm->backingMap().largestExtent();
        emv_assert(extent.has_value(), "no backing to poison");
        lo = extent->hpa;
        len = extent->bytes;
    } else {
        const auto &seg = proc->guestSegment();
        emv_assert(seg.enabled(),
                   "bad-frame injection needs a native segment");
        lo = seg.base() + seg.offset();
        len = seg.length();
    }
    Rng rng(cfg.badFrameSeed);
    unsigned injected = 0;
    while (injected < cfg.badFrames) {
        const Addr frame =
            lo + alignDown(rng.nextBelow(len), kPage4K);
        if (_hostMem->isBad(frame))
            continue;
        _hostMem->markBad(frame);
        ++injected;
    }
}

void
Machine::setupSegments()
{
    if (core::usesVmmSegment(cfg.mode)) {
        const Addr high_ram =
            _vm->config().ramBytes - _vm->config().lowRamBytes;
        // Cover at least the RAM above the gap (plus whatever the
        // I/O-gap reclaim moved there).
        auto info = _vm->createVmmSegment(high_ram);
        if (info) {
            vmmSegmentInfo = *info;
        } else {
            emv_warn("VMM segment creation failed (fragmented "
                     "host); staying on nested paging");
        }
    }
}

void
Machine::wireMmu()
{
    _mmu = std::make_unique<core::Mmu>(*_hostMem, cfg.mmu);

    if (cfg.shadowPaging) {
        shadow = std::make_unique<vmm::ShadowPager>(*_vm, *proc);
        shadow->rebuildAll();
        _mmu->setMode(Mode::Native);
        _mmu->setNativeRoot(shadow->shadowRoot());
    } else {
        _mmu->setMode(cfg.mode);
        if (core::isVirtualized(cfg.mode)) {
            _mmu->setGuestRoot(proc->pageTable().root());
            _mmu->setNestedRoot(_vm->nestedRoot());
        } else {
            _mmu->setNativeRoot(proc->pageTable().root());
        }
    }

    // Segments + escape filters.
    if (core::usesGuestSegment(cfg.mode) &&
        proc->guestSegment().enabled()) {
        _mmu->setGuestSegment(proc->guestSegment());
        if (cfg.mode == Mode::NativeDirect) {
            const auto &seg = proc->guestSegment();
            for (Addr bad : _hostMem->badFramesInRange(
                     seg.base() + seg.offset(), seg.length())) {
                _mmu->guestFilter().insertPage(bad - seg.offset());
            }
        }
    }
    if (vmmSegmentInfo) {
        _mmu->setVmmSegment(vmmSegmentInfo->regs);
        for (Addr gpa : vmmSegmentInfo->escapedGpas)
            _mmu->vmmFilter().insertPage(gpa);
    }

    // TLB / shadow coherence hooks.
    if (_vm) {
        _vm->setNestedChangeHook([this](Addr gpa, PageSize size) {
            _mmu->invalidateNestedPage(gpa, size);
            if (shadow)
                shadow->onBackingChanged(gpa, pageBytes(size));
        });
    }
    _os->setMappingHook([this](os::Process &p, Addr va, Addr bytes,
                               PageSize size, bool mapped) {
        if (&p != proc)
            return;
        if (mapped) {
            if (shadow)
                shadow->onGuestMapped(va, bytes);
        } else {
            // One INVLPG and one shootdown per leaf of the run.
            for (Addr at = va; at < va + bytes; at += pageBytes(size)) {
                _mmu->invalidateGuestPage(at, size);
                shootdownCyclesPool += static_cast<double>(
                    cfg.mmu.costs.shootdownCycles);
            }
            if (shadow)
                shadow->onGuestUnmapped(va, bytes);
        }
    });

    vmExitBase = _vm ? _vm->vmExits() : 0;
    shadowExitBase = shadow ? shadow->syncExits() : 0;

    // Fault injection: always built so the hot loop's pending()
    // check is one branch; an empty plan never fires.
    injector = std::make_unique<fault::FaultInjector>(cfg.faultPlan,
                                                      cfg.faultSeed);

    // Export every component under a common "machine" root so stat
    // dumps read "machine.mmu.l1_misses", "machine.os.major_faults".
    _mmu->stats().setParent("machine");
    _os->stats().setParent("machine");
    _os->frames().buddy().stats().setParent(&_os->stats());
    _hostMem->stats().setParent("machine");
    if (_vmm) {
        _vmm->stats().setParent("machine");
        _vmm->frames().buddy().stats().setParent(&_vmm->stats());
    }
    if (_vm)
        _vm->stats().setParent("machine");
    if (shadow)
        shadow->stats().setParent("machine");
    injector->stats().setParent("machine");
}

bool
Machine::serviceFault(const core::TranslationResult &result)
{
    prof::Scope fault_scope(prof::Phase::FaultService);
    if (result.faultSpace == FaultSpace::Nested) {
        emv_assert(_vm, "nested fault without a VM");
        if (!_vm->ensureBacked(result.faultAddr)) {
            return recordTerminalFault("unbackable nested fault",
                                       FaultSpace::Nested,
                                       result.faultAddr);
        }
        return true;
    }
    auto outcome = _os->handleFault(*proc, result.faultAddr);
    if (!outcome.ok) {
        return recordTerminalFault("guest segfault",
                                   FaultSpace::Guest,
                                   result.faultAddr);
    }
    ++guestFaultCount;
    faultCyclesPool +=
        static_cast<double>(cfg.mmu.costs.guestFaultCycles);
    return true;
}

std::vector<const StatGroup *>
Machine::statGroups() const
{
    std::vector<const StatGroup *> groups = _mmu->statGroups();
    groups.insert(groups.end(),
                  {&_os->stats(), &_os->frames().buddy().stats(),
                   &_hostMem->stats(), &injector->stats()});
    if (_vmm) {
        groups.push_back(&_vmm->stats());
        groups.push_back(&_vmm->frames().buddy().stats());
    }
    if (_vm)
        groups.push_back(&_vm->stats());
    if (shadow)
        groups.push_back(&shadow->stats());
    return groups;
}

void
Machine::resetStats()
{
    _mmu->stats().resetAll();
    _mmu->resetTranslationLatency();
    faultCyclesPool = 0.0;
    shootdownCyclesPool = 0.0;
    guestFaultCount = 0;
    remapCount = 0;
    accessCount = 0;
    baseCyclesPool = 0.0;
    vmExitBase = _vm ? _vm->vmExits() : 0;
    shadowExitBase = shadow ? shadow->syncExits() : 0;
    // Counter sources just moved backwards; re-baseline the window.
    if (telem)
        telem->rebase();
}

void
Machine::attachTelemetry(telemetry::TelemetryRecorder *recorder)
{
    telem = recorder;
    if (!telem)
        return;

    const auto &stats = _mmu->stats();
    const auto ctr = [](const Counter &counter) {
        return [&counter] { return counter.value(); };
    };
    telem->addCounter("accesses", ctr(stats.accesses));
    telem->addCounter("l1_misses", ctr(stats.l1Misses));
    telem->addCounter("l2_misses", ctr(stats.l2Misses));
    telem->addCounter("walks", ctr(stats.walks));
    telem->addCounter("guest_refs", ctr(stats.guestRefs));
    telem->addCounter("nested_refs", ctr(stats.nestedRefs));
    telem->addCounter("native_refs", ctr(stats.nativeRefs));
    telem->addCounter("dd_fast_hits", ctr(stats.ddFastHits));
    telem->addCounter("ds_fast_hits", ctr(stats.dsFastHits));
    telem->addCounter("escape_slow_paths",
                      ctr(stats.escapeSlowPaths));
    telem->addCounter("faults", ctr(stats.faults));
    telem->addCounter("guest_faults",
                      [this] { return guestFaultCount; });
    telem->addCounter("remaps", [this] { return remapCount; });
    telem->addCounter("downgrades", ctr(injector->stats().downgrades));
    telem->addScalar("translation_cycles", [&stats] {
        return stats.translationCycles.value();
    });
    telem->addScalar("base_cycles",
                     [this] { return baseCyclesPool; });
    telem->addScalar("fault_cycles",
                     [this] { return faultCyclesPool; });
    telem->addScalar("shootdown_cycles",
                     [this] { return shootdownCyclesPool; });
    telem->addGauge("guest_filter_fill", [this] {
        return _mmu->guestFilter().fillRatio();
    });
    telem->addGauge("vmm_filter_fill", [this] {
        return _mmu->vmmFilter().fillRatio();
    });
    telem->setLatencySource(&_mmu->translationLatency());
    telem->setModeSource(
        [this] { return std::string(core::modeName(cfg.mode)); });
    telem->rebase();
}

RunResult
Machine::run(std::uint64_t ops)
{
    if (_terminalFault) {
        // A previous interval aborted; there is nothing to replay.
        RunResult out;
        out.completed = false;
        return out;
    }
    const auto &stats = _mmu->stats();
    struct Snapshot
    {
        std::uint64_t l1m, l2m, walks, dd, ds, cb, cv, cg, cn;
        double walkCycles, transCycles;
    };
    auto snap = [&]() {
        return Snapshot{
            stats.l1Misses.value(),
            stats.l2Misses.value(),
            stats.walks.value(),
            stats.ddFastHits.value(),
            stats.dsFastHits.value(),
            stats.catBoth.value(),
            stats.catVmmOnly.value(),
            stats.catGuestOnly.value(),
            stats.catNeither.value(),
            stats.walkCycles.value(),
            stats.translationCycles.value(),
        };
    };
    const Snapshot before = snap();
    const double fault0 = faultCyclesPool;
    const double shoot0 = shootdownCyclesPool;
    const double base0 = baseCyclesPool;
    const std::uint64_t faults0 = guestFaultCount;
    const std::uint64_t access0 = accessCount;
    const std::uint64_t remap0 = remapCount;
    const std::uint64_t exits0 = _vm ? _vm->vmExits() : 0;
    const std::uint64_t shadow0 = shadow ? shadow->syncExits() : 0;

    const double base_per_access = wl.info().baseCyclesPerAccess;

    for (std::uint64_t i = 0; i < ops; ++i) {
        // Deliver scheduled faults before the op they precede.
        if (injector->pending(opCursor))
            applyScheduledFaults();
        if (_terminalFault)
            break;
        const auto op = wl.next();
        ++opCursor;
        if (op.kind == workload::Op::Kind::Remap) {
            prof::Scope remap_scope(prof::Phase::Remap);
            ++remapCount;
            _os->unmapRange(*proc, op.va, op.bytes);
            _os->populateRange(*proc, op.va, op.bytes);
            // First-touch faults for the fresh mapping.
            faultCyclesPool +=
                static_cast<double>(op.bytes / kPage4K) *
                static_cast<double>(cfg.mmu.costs.guestFaultCycles) /
                512.0;
            if (telem)
                telem->onOp();
            continue;
        }
        ++accessCount;
        baseCyclesPool += base_per_access;
        prof::Scope xlate_scope(prof::Phase::Translate);
        auto result = _mmu->translate(op.va);
        int retries = 0;
        bool aborted = false;
        while (!result.ok) {
            emv_assert(retries++ < 4, "translation livelock at %s",
                       hexAddr(op.va).c_str());
            if (!serviceFault(result)) {
                aborted = true;
                break;
            }
            result = _mmu->translate(op.va);
        }
        if (aborted)
            break;
        if (telem)
            telem->onOp();
    }

    const Snapshot after = snap();
    RunResult out;
    out.completed = !_terminalFault;
    out.accessOps = accessCount - access0;
    out.remapOps = remapCount - remap0;
    out.baseCycles = baseCyclesPool - base0;
    out.translationCycles = after.transCycles - before.transCycles;
    out.faultCycles = faultCyclesPool - fault0;
    out.shootdownCycles = shootdownCyclesPool - shoot0;
    const std::uint64_t exits =
        (_vm ? _vm->vmExits() : 0) - exits0 +
        (shadow ? shadow->syncExits() : 0) - shadow0;
    out.vmExitCycles = static_cast<double>(exits) *
                       static_cast<double>(cfg.mmu.costs.vmExitCycles);
    out.l1Misses = after.l1m - before.l1m;
    out.l2Misses = after.l2m - before.l2m;
    out.walks = after.walks - before.walks;
    out.guestFaults = guestFaultCount - faults0;
    out.ddFastHits = after.dd - before.dd;
    out.dsFastHits = after.ds - before.ds;
    const double walk_cycles = after.walkCycles - before.walkCycles;
    out.cyclesPerWalk =
        out.walks ? walk_cycles / static_cast<double>(out.walks)
                  : 0.0;
    const double denom = static_cast<double>(out.walks + out.ddFastHits +
                                             out.dsFastHits);
    if (denom > 0.0) {
        out.fractionBoth =
            static_cast<double>(after.cb - before.cb) / denom;
        out.fractionVmmOnly =
            static_cast<double>(after.cv - before.cv) / denom;
        out.fractionGuestOnly =
            static_cast<double>(after.cg - before.cg) / denom;
    }
    return out;
}

RunResult
Machine::measuredResult() const
{
    const auto &stats = _mmu->stats();
    RunResult out;
    out.completed = !_terminalFault;
    out.accessOps = accessCount;
    out.remapOps = remapCount;
    out.baseCycles = baseCyclesPool;
    out.translationCycles = stats.translationCycles.value();
    out.faultCycles = faultCyclesPool;
    out.shootdownCycles = shootdownCyclesPool;
    const std::uint64_t exits =
        (_vm ? _vm->vmExits() : 0) - vmExitBase +
        (shadow ? shadow->syncExits() : 0) - shadowExitBase;
    out.vmExitCycles = static_cast<double>(exits) *
                       static_cast<double>(cfg.mmu.costs.vmExitCycles);
    out.l1Misses = stats.l1Misses.value();
    out.l2Misses = stats.l2Misses.value();
    out.walks = stats.walks.value();
    out.guestFaults = guestFaultCount;
    out.ddFastHits = stats.ddFastHits.value();
    out.dsFastHits = stats.dsFastHits.value();
    const double walk_cycles = stats.walkCycles.value();
    out.cyclesPerWalk =
        out.walks ? walk_cycles / static_cast<double>(out.walks)
                  : 0.0;
    const double denom = static_cast<double>(out.walks + out.ddFastHits +
                                             out.dsFastHits);
    if (denom > 0.0) {
        out.fractionBoth =
            static_cast<double>(stats.catBoth.value()) / denom;
        out.fractionVmmOnly =
            static_cast<double>(stats.catVmmOnly.value()) / denom;
        out.fractionGuestOnly =
            static_cast<double>(stats.catGuestOnly.value()) / denom;
    }
    return out;
}

void
Machine::serialize(ckpt::Writer &writer) const
{
    writer.save("machine", *this);
    writer.save("workload", wl);
    writer.save("physmem", *_hostMem);
    if (_vmm)
        writer.save("vmm", *_vmm);
    writer.save("os", *_os);
    writer.save("mmu", *_mmu);
    if (shadow)
        writer.save("shadow", *shadow);
    writer.save("fault", *injector);
}

bool
Machine::deserialize(const ckpt::Reader &reader, std::string &error)
{
    // Presence of the optional layers is fixed at construction, so
    // a mismatch means the checkpoint was taken under a different
    // boot configuration.
    if (static_cast<bool>(_vmm) != reader.hasChunk("vmm")) {
        error = "vmm state mismatch (checkpoint was taken under a "
                "different configuration)";
        return false;
    }
    if (static_cast<bool>(shadow) != reader.hasChunk("shadow")) {
        error = "shadow-pager state mismatch (checkpoint was taken "
                "under a different configuration)";
        return false;
    }

    // Physical memory first: it holds every page-table node the
    // later layers' roots point into.
    return reader.load("physmem", *_hostMem, error) &&
           (!_vmm || reader.load("vmm", *_vmm, error)) &&
           reader.load("os", *_os, error) &&
           reader.load("mmu", *_mmu, error) &&
           (!shadow || reader.load("shadow", *shadow, error)) &&
           reader.load("fault", *injector, error) &&
           reader.load("workload", wl, error) &&
           reader.load("machine", *this, error);
}

template <class Ar>
void
Machine::persist(Ar &ar)
{
    ar.u8(cfg.mode);
    ar.u64(opCursor);
    ar.f64(faultCyclesPool);
    ar.f64(shootdownCyclesPool);
    ar.f64(baseCyclesPool);
    ar.u64(guestFaultCount);
    ar.u64(remapCount);
    ar.u64(accessCount);
    ar.u64(vmExitBase);
    ar.u64(shadowExitBase);
    ar.opt(_terminalFault, [&](auto &fault) {
        ar.str(fault.reason);
        ar.u8(fault.space);
        ar.u64(fault.addr);
        ar.u64(fault.opIndex);
    });
    ar.opt(vmmSegmentInfo, [&](auto &info) {
        info.regs.persist(ar);
        ar.u64s(info.escapedGpas);
    });

    // The balloon driver and compaction daemon are created lazily
    // mid-run; an existence flag lets restore recreate them.
    bool has_balloon = static_cast<bool>(balloon);
    ar.u8(has_balloon);
    if constexpr (Ar::loading) {
        if (!has_balloon)
            balloon.reset();
        else if (!ar.check(_vm != nullptr,
                           "machine: balloon state without a VM"))
            return;
        else if (!balloon)
            balloon = std::make_unique<os::BalloonDriver>(*_os, *_vm);
    }
    if (has_balloon)
        balloon->persist(ar);
    bool has_compactor = static_cast<bool>(compactor);
    ar.u8(has_compactor);
    if constexpr (Ar::loading) {
        if (has_compactor)
            compactionDaemon();
        else
            compactor.reset();
    }
    if (has_compactor)
        compactor->persist(ar);
    if constexpr (Ar::loading)
        validate(ar);
}

template void Machine::persist(ckpt::Encoder &);
template void Machine::persist(ckpt::Decoder &);

void
Machine::validate(ckpt::Decoder &dec) const
{
    dec.check(cfg.mode <= Mode::GuestDirect,
              "machine: invalid mode value");
    dec.check(!_terminalFault ||
                  _terminalFault->space <= FaultSpace::Nested,
              "machine: invalid fault space");
}

std::optional<std::uint64_t>
Machine::upgradeWithHostCompaction(std::uint64_t max_migrations)
{
    emv_assert(_vm, "host compaction needs a VM");
    // GuestDirect -> DualDirect only needs the *guest segment's*
    // backing to be host-contiguous (segment-covered translations
    // never touch the guest page tables).  BaseVirtualized -> VMM
    // Direct needs the whole high range (page tables included).
    Addr target_base = kIoGapEnd;
    Addr target_bytes =
        _vm->config().ramBytes - _vm->config().lowRamBytes;
    const auto &gseg = proc->guestSegment();
    if (cfg.mode == Mode::GuestDirect && gseg.enabled()) {
        target_base = gseg.base() + gseg.offset();
        target_bytes = gseg.length();
    }
    std::optional<std::uint64_t> migrated;
    retryWithBackoff("host compaction", [&] {
        migrated = _vm->materializeVmmSegmentBacking(
            target_base, target_bytes, max_migrations);
        return migrated.has_value();
    });
    if (!migrated)
        return std::nullopt;
    auto info = _vm->createVmmSegment(target_bytes);
    if (!info)
        return std::nullopt;
    vmmSegmentInfo = *info;
    _mmu->setVmmSegment(info->regs);
    for (Addr gpa : info->escapedGpas)
        _mmu->vmmFilter().insertPage(gpa);
    const Mode next = cfg.mode == Mode::GuestDirect
                          ? Mode::DualDirect
                          : Mode::VmmDirect;
    if (telem) {
        telem->event("upgrade",
                     std::string(core::modeName(cfg.mode)) + "->" +
                         core::modeName(next));
    }
    cfg.mode = next;
    _mmu->setMode(next);
    return migrated;
}

bool
Machine::selfBalloonGuestSegment()
{
    emv_assert(_vm, "self-ballooning needs a VM");
    const auto *primary = proc->primaryRegion();
    if (!primary)
        return false;
    if (!balloon)
        balloon = std::make_unique<os::BalloonDriver>(*_os, *_vm);
    std::optional<Interval> ext;
    retryWithBackoff("self-balloon", [&] {
        ext = balloon->selfBalloon(primary->bytes);
        return ext.has_value();
    });
    if (!ext) {
        // Table III slow path: when the balloon/hotplug protocol
        // keeps failing, compact guest memory into one free run the
        // segment allocator can use instead.
        if (!compactionDaemon().createFreeRun(primary->bytes))
            return false;
        ++injector->stats().compactionFallbacks;
    }
    auto regs = _os->createGuestSegment(*proc);
    if (!regs)
        return false;
    _mmu->setGuestSegment(*regs);
    _mmu->flushGuestContext();

    // The hot-added extension enlarged the backing extent; refresh
    // the VMM segment so Dual Direct covers the new guest segment.
    if (core::usesVmmSegment(cfg.mode)) {
        auto info = _vm->createVmmSegment(primary->bytes);
        if (info) {
            vmmSegmentInfo = *info;
            _mmu->setVmmSegment(info->regs);
            _mmu->vmmFilter().clear();
            for (Addr gpa : info->escapedGpas)
                _mmu->vmmFilter().insertPage(gpa);
            _mmu->flushAll();
        }
    }
    return true;
}

bool
Machine::downgradeMode()
{
    Mode next;
    switch (cfg.mode) {
      case Mode::DualDirect:
        next = Mode::VmmDirect;
        _mmu->retireGuestSegment();
        break;
      case Mode::VmmDirect:
        next = Mode::BaseVirtualized;
        _mmu->retireVmmSegment();
        vmmSegmentInfo.reset();
        break;
      case Mode::GuestDirect:
        next = Mode::BaseVirtualized;
        _mmu->retireGuestSegment();
        break;
      case Mode::NativeDirect:
        next = Mode::Native;
        _mmu->retireGuestSegment();
        break;
      default:
        return false;  // Native / BaseVirtualized: lattice bottom.
    }
    // The process keeps its segment registers: §VI.B's emulation
    // lazily re-faults retired-segment addresses onto conventional
    // PTEs with byte-identical translations, so a differential
    // audit stays clean across the transition.
    EMV_TRACE(Fault, "mode downgrade %s -> %s",
              core::modeName(cfg.mode), core::modeName(next));
    if (telem) {
        telem->event("downgrade",
                     std::string(core::modeName(cfg.mode)) + "->" +
                         core::modeName(next));
    }
    cfg.mode = next;
    _mmu->setMode(next);
    ++injector->stats().downgrades;
    faultCyclesPool +=
        static_cast<double>(cfg.recovery.recoveryCycles);
    return true;
}

void
Machine::maybeDowngradeForSaturation()
{
    const double fill = cfg.recovery.filterSaturationFill;
    const bool guest_sat = _mmu->guestSegment().enabled() &&
                           _mmu->guestFilter().saturated(fill);
    const bool vmm_sat = _mmu->vmmSegment().enabled() &&
                         _mmu->vmmFilter().saturated(fill);
    if (guest_sat || vmm_sat)
        downgradeMode();
}

bool
Machine::recordTerminalFault(const char *what, core::FaultSpace space,
                             Addr addr)
{
    if (_terminalFault)
        return false;
    _terminalFault = FaultReport{what, space, addr, opCursor};
    ++injector->stats().terminalFaults;
    if (telem)
        telem->event("terminal_fault", what);
    EMV_TRACE(Fault, "terminal fault: %s space=%s addr=%s op=%llu",
              what, core::toString(space), hexAddr(addr).c_str(),
              static_cast<unsigned long long>(opCursor));
    emv_warn("terminal fault: %s at %s (op %llu)", what,
             hexAddr(addr).c_str(),
             static_cast<unsigned long long>(opCursor));
    return false;
}

bool
Machine::retryWithBackoff(const char *what,
                          const std::function<bool()> &attempt)
{
    const unsigned budget =
        cfg.faultPolicy == fault::FaultPolicy::Degrade
            ? cfg.recovery.maxRetries
            : 0;
    Cycles backoff = cfg.recovery.backoffBaseCycles;
    for (unsigned tries = 0;; ++tries) {
        if (attempt()) {
            if (tries > 0)
                ++injector->stats().recoveries;
            return true;
        }
        if (tries >= budget)
            break;
        ++injector->stats().retries;
        faultCyclesPool += static_cast<double>(backoff);
        backoff *= 2;
        EMV_TRACE(Fault, "%s request failed; retry %u of %u", what,
                  tries + 1, budget);
    }
    ++injector->stats().requestFailures;
    emv_warn("%s request failed after %u attempts", what, budget + 1);
    return false;
}

os::CompactionDaemon &
Machine::compactionDaemon()
{
    if (!compactor) {
        compactor = std::make_unique<os::CompactionDaemon>(
            *_os, [this](os::Process &p, Addr va, PageSize size) {
                if (&p != proc)
                    return;
                _mmu->invalidateGuestPage(va, size);
                shootdownCyclesPool += static_cast<double>(
                    cfg.mmu.costs.shootdownCycles);
            });
    }
    return *compactor;
}

void
Machine::applyScheduledFaults()
{
    for (const auto &event : injector->eventsDue(opCursor)) {
        if (_terminalFault)
            break;
        if (telem) {
            telem->event("fault",
                         std::string(
                             fault::faultKindName(event.kind)) +
                             "x" + std::to_string(event.count));
        }
        applyFault(event);
    }
}

void
Machine::applyFault(const fault::FaultEvent &event)
{
    using fault::FaultKind;
    switch (event.kind) {
      case FaultKind::DramFault:
        for (unsigned i = 0; i < event.count && !_terminalFault; ++i)
            injectDramFault();
        break;
      case FaultKind::GuestPteCorrupt:
        for (unsigned i = 0; i < event.count && !_terminalFault; ++i)
            injectGuestPteCorruption();
        break;
      case FaultKind::NestedPteCorrupt:
        for (unsigned i = 0; i < event.count && !_terminalFault; ++i)
            injectNestedPteCorruption();
        break;
      case FaultKind::FilterSaturate:
        injectFilterSaturation();
        break;
      case FaultKind::BalloonFail:
        performBalloonRequest(event.count);
        break;
      case FaultKind::HotplugFail:
        performHotplugRequest(event.count);
        break;
      case FaultKind::CompactionFail:
        performCompactionRequest(event.count);
        break;
      case FaultKind::SlotRevoke:
        for (unsigned i = 0; i < event.count && !_terminalFault; ++i)
            injectSlotRevocation();
        break;
      default:
        break;
    }
}

void
Machine::injectDramFault()
{
    auto &fstats = injector->stats();
    auto &rng = injector->rng();

    if (core::isVirtualized(cfg.mode)) {
        // Fault a backed frame — preferentially under the active
        // VMM segment, where a hard fault is most disruptive (§V).
        Interval region = _vm->activeSegmentRegion();
        if (region.empty()) {
            auto extent = _vm->backingMap().largestExtent();
            if (!extent) {
                ++fstats.injectedSkipped;
                return;
            }
            region = Interval{extent->gpa,
                              extent->gpa + extent->bytes};
        }
        for (unsigned tries = 0; tries < 64; ++tries) {
            const Addr gpa =
                region.start +
                alignDown(rng.nextBelow(region.length()), kPage4K);
            auto hpa = _vm->gpaToHpa(gpa);
            if (!hpa || _hostMem->isBad(*hpa))
                continue;
            _hostMem->markBad(*hpa);
            ++fstats.injectedDram;
            EMV_TRACE(Fault, "dram fault: gpa=%s hpa=%s",
                      hexAddr(gpa).c_str(), hexAddr(*hpa).c_str());
            if (cfg.faultPolicy == fault::FaultPolicy::FailFast) {
                recordTerminalFault("dram hard fault (failfast)",
                                    FaultSpace::Nested, gpa);
                return;
            }
            // Recover: copy to a healthy frame and repoint; under a
            // segment the page then escapes through the filter.
            if (!_vm->offlineFrame(gpa)) {
                recordTerminalFault("dram fault: no healthy frame",
                                    FaultSpace::Nested, gpa);
                return;
            }
            faultCyclesPool +=
                static_cast<double>(cfg.recovery.recoveryCycles);
            const auto &vseg = _mmu->vmmSegment();
            if (vseg.enabled() && vseg.contains(gpa)) {
                _mmu->vmmFilter().insertPage(gpa);
                ++fstats.filterEscapes;
                maybeDowngradeForSaturation();
            }
            return;
        }
        ++fstats.injectedSkipped;
        return;
    }

    // Native: fault a frame inside the direct segment's backing.
    const auto &seg = proc->guestSegment();
    if (!seg.enabled()) {
        ++fstats.injectedSkipped;
        return;
    }
    for (unsigned tries = 0; tries < 64; ++tries) {
        const Addr pa = seg.base() + seg.offset() +
                        alignDown(rng.nextBelow(seg.length()),
                                  kPage4K);
        if (_hostMem->isBad(pa))
            continue;
        _hostMem->markBad(pa);
        ++fstats.injectedDram;
        const Addr va = pa - seg.offset();
        EMV_TRACE(Fault, "dram fault: va=%s pa=%s",
                  hexAddr(va).c_str(), hexAddr(pa).c_str());
        if (cfg.faultPolicy == fault::FaultPolicy::FailFast) {
            recordTerminalFault("dram hard fault (failfast)",
                                FaultSpace::Guest, va);
            return;
        }
        // Recover: escape the page so the next access walks the
        // page table; the fault handler's §VI.B path remaps it to a
        // healthy frame.
        _os->unmapRange(*proc, va, kPage4K);
        if (_mmu->guestSegment().enabled() &&
            _mmu->guestSegment().contains(va)) {
            _mmu->guestFilter().insertPage(va);
            ++fstats.filterEscapes;
        }
        _mmu->invalidateGuestPage(va, PageSize::Size4K);
        faultCyclesPool +=
            static_cast<double>(cfg.recovery.recoveryCycles);
        maybeDowngradeForSaturation();
        return;
    }
    ++fstats.injectedSkipped;
}

void
Machine::injectGuestPteCorruption()
{
    auto &fstats = injector->stats();
    auto &rng = injector->rng();
    const auto &regions = proc->regions();
    if (regions.empty()) {
        ++fstats.injectedSkipped;
        return;
    }
    for (unsigned tries = 0; tries < 32; ++tries) {
        const auto &region = regions[static_cast<std::size_t>(
            rng.nextBelow(regions.size()))];
        const Addr page =
            region.base +
            alignDown(rng.nextBelow(region.bytes), kPage4K);
        auto xlat = proc->pageTable().translate(page);
        if (!xlat)
            continue;  // Segment-covered or never faulted in.
        ++fstats.injectedGuestPte;
        EMV_TRACE(Fault, "guest pte corrupt: va=%s",
                  hexAddr(page).c_str());
        if (cfg.faultPolicy == fault::FaultPolicy::FailFast) {
            recordTerminalFault("guest pte corruption",
                                FaultSpace::Guest, page);
            return;
        }
        // Detection discards the whole (possibly large) leaf; the
        // next access re-faults it in.
        const Addr leaf_bytes = pageBytes(xlat->size);
        _os->unmapRange(*proc, alignDown(page, leaf_bytes),
                        leaf_bytes);
        faultCyclesPool +=
            static_cast<double>(cfg.recovery.recoveryCycles);
        return;
    }
    ++fstats.injectedSkipped;
}

void
Machine::injectNestedPteCorruption()
{
    auto &fstats = injector->stats();
    auto &rng = injector->rng();
    if (!_vm) {
        ++fstats.injectedSkipped;
        return;
    }
    auto extent = _vm->backingMap().largestExtent();
    if (!extent) {
        ++fstats.injectedSkipped;
        return;
    }
    const Addr gpa =
        extent->gpa +
        alignDown(rng.nextBelow(extent->bytes), kPage4K);
    ++fstats.injectedNestedPte;
    EMV_TRACE(Fault, "nested pte corrupt: gpa=%s",
              hexAddr(gpa).c_str());
    if (cfg.faultPolicy == fault::FaultPolicy::FailFast) {
        recordTerminalFault("nested pte corruption",
                            FaultSpace::Nested, gpa);
        return;
    }
    // The backing map stays authoritative; the next nested fault on
    // the page repairs the leaf (Vm::ensureBacked).
    _vm->dropNestedMapping(gpa);
    faultCyclesPool +=
        static_cast<double>(cfg.recovery.recoveryCycles);
}

void
Machine::injectFilterSaturation()
{
    auto &fstats = injector->stats();
    segment::EscapeFilter *filter = nullptr;
    if (_mmu->guestSegment().enabled())
        filter = &_mmu->guestFilter();
    else if (_mmu->vmmSegment().enabled())
        filter = &_mmu->vmmFilter();
    if (!filter) {
        ++fstats.injectedSkipped;
        return;
    }
    // Flood with noise pages until the popcount bound: past it the
    // filter answers "maybe" for nearly everything and the segment
    // no longer earns its keep.
    auto &rng = injector->rng();
    for (unsigned i = 0;
         i < filter->sizeBits() &&
         !filter->saturated(cfg.recovery.filterSaturationFill);
         ++i) {
        filter->insertPage(rng.nextBelow(1ull << 36) << 12);
    }
    ++fstats.filterSaturations;
    EMV_TRACE(Fault, "filter saturated: %u/%u bits set",
              filter->popcount(), filter->sizeBits());
    if (cfg.faultPolicy == fault::FaultPolicy::FailFast) {
        recordTerminalFault("escape filter saturated",
                            FaultSpace::None, 0);
        return;
    }
    maybeDowngradeForSaturation();
}

void
Machine::injectSlotRevocation()
{
    auto &fstats = injector->stats();
    if (!_vm) {
        ++fstats.injectedSkipped;
        return;
    }
    // A legitimate VMM action under both policies: revoke the
    // backing of one resident page outside the active segment; the
    // next nested fault swaps it back in.
    auto &rng = injector->rng();
    const auto extents = _vm->backingMap().extents();
    if (extents.empty()) {
        ++fstats.injectedSkipped;
        return;
    }
    for (unsigned tries = 0; tries < 32; ++tries) {
        const auto &extent = extents[static_cast<std::size_t>(
            rng.nextBelow(extents.size()))];
        const Addr gpa =
            extent.gpa +
            alignDown(rng.nextBelow(extent.bytes), kPage4K);
        if (_vm->activeSegmentRegion().contains(gpa))
            continue;
        if (_vm->swapOutPage(gpa)) {
            ++fstats.injectedSlotRevokes;
            EMV_TRACE(Fault, "slot revoked: gpa=%s",
                      hexAddr(gpa).c_str());
            return;
        }
    }
    ++fstats.injectedSkipped;
}

void
Machine::performBalloonRequest(unsigned failures)
{
    if (!_vm) {
        ++injector->stats().injectedSkipped;
        return;
    }
    injector->armFailures(fault::FaultPoint::BalloonReclaim,
                          failures);
    if (!balloon)
        balloon = std::make_unique<os::BalloonDriver>(*_os, *_vm);
    balloon->setRequestFaultHook([this] {
        return injector->shouldFail(
            fault::FaultPoint::BalloonReclaim);
    });
    // A host-pressure maintenance request; persistent failure is
    // survivable (the host simply stays pressured).
    retryWithBackoff("balloon", [&] {
        return balloon->inflate(4 * MiB) > 0;
    });
}

void
Machine::performHotplugRequest(unsigned failures)
{
    if (!_vm) {
        ++injector->stats().injectedSkipped;
        return;
    }
    injector->armFailures(fault::FaultPoint::HotplugExtend, failures);
    _vm->setExtensionFaultHook([this] {
        return injector->shouldFail(fault::FaultPoint::HotplugExtend);
    });
    retryWithBackoff("hotplug", [&] {
        auto base = _vm->grantExtension(4 * MiB);
        if (!base)
            return false;
        _os->hotAdd(*base, 4 * MiB);
        return true;
    });
}

void
Machine::performCompactionRequest(unsigned failures)
{
    injector->armFailures(fault::FaultPoint::Compaction, failures);
    auto &daemon = compactionDaemon();
    daemon.setFaultHook([this] {
        return injector->shouldFail(fault::FaultPoint::Compaction);
    });
    retryWithBackoff("compaction", [&] {
        return daemon.createFreeRun(16 * MiB).has_value();
    });
}

} // namespace emv::sim
