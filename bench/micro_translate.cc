/**
 * @file
 * Google-benchmark microbenchmarks of the simulator's hot paths:
 * per-mode translation throughput of the Mmu, raw walker costs,
 * TLB and TLB-hierarchy lookups, TLB fills that evict, PTE-line
 * cache accesses, escape-filter probes, physical-memory loads and
 * page-table range updates.  These measure the
 * *library's* speed (simulation throughput), complementing the
 * figure benches that measure the *modeled* cycles.
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "common/logging.hh"
#include "mem/phys_memory.hh"
#include "paging/page_table.hh"
#include "segment/escape_filter.hh"
#include "sim/machine.hh"
#include "tlb/tlb.hh"
#include "tlb/tlb_hierarchy.hh"
#include "tlb/walk_cache.hh"
#include "workload/workload.hh"

using namespace emv;

namespace {

struct Rig
{
    std::unique_ptr<workload::Workload> wl;
    std::unique_ptr<sim::Machine> machine;
};

Rig
makeRig(core::Mode mode)
{
    setQuietLogging(true);
    Rig rig;
    rig.wl = workload::makeWorkload(workload::WorkloadKind::Gups, 3,
                                    0.02);
    sim::MachineConfig cfg;
    cfg.mode = mode;
    // Segment modes get Fig. 13-style bad frames, as the perfbench
    // direct-seg workload does: with an empty filter mayContain()
    // returns before hashing and the probe cost would go untimed.
    if (core::usesGuestSegment(mode) || core::usesVmmSegment(mode))
        cfg.badFrames = 16;
    rig.machine = std::make_unique<sim::Machine>(cfg, *rig.wl);
    rig.machine->run(20000);  // Warm.
    return rig;
}

void
translateLoop(benchmark::State &state, core::Mode mode)
{
    auto rig = makeRig(mode);
    for (auto _ : state) {
        auto op = rig.wl->next();
        if (op.kind == workload::Op::Kind::Remap)
            continue;
        auto result = rig.machine->mmu().translate(op.va);
        benchmark::DoNotOptimize(result.hpa);
    }
    state.SetItemsProcessed(state.iterations());
}

void
BM_TranslateNative(benchmark::State &state)
{
    translateLoop(state, core::Mode::Native);
}

void
BM_TranslateBaseVirtualized(benchmark::State &state)
{
    translateLoop(state, core::Mode::BaseVirtualized);
}

void
BM_TranslateVmmDirect(benchmark::State &state)
{
    translateLoop(state, core::Mode::VmmDirect);
}

void
BM_TranslateDualDirect(benchmark::State &state)
{
    translateLoop(state, core::Mode::DualDirect);
}

void
BM_TranslateGuestDirect(benchmark::State &state)
{
    translateLoop(state, core::Mode::GuestDirect);
}

void
BM_TranslateNativeDirect(benchmark::State &state)
{
    translateLoop(state, core::Mode::NativeDirect);
}

void
BM_TlbLookupHit(benchmark::State &state)
{
    tlb::Tlb tlb("bench", 128, 4);
    tlb.insert(tlb::EntryKind::Guest, 0x1000, 0xa000,
               PageSize::Size4K);
    for (auto _ : state) {
        auto hit = tlb.lookup(tlb::EntryKind::Guest, 0x1abc,
                              PageSize::Size4K);
        benchmark::DoNotOptimize(hit);
    }
}

void
BM_TlbHierarchyL1Hit4K(benchmark::State &state)
{
    // Only 4K guest entries live, as in every walk-2d L1 hit: the
    // 1G and 2M L1s hold nothing.  64 pages fill the 4K L1 exactly.
    tlb::TlbHierarchy tlbs;
    constexpr unsigned kPages = 64;
    for (unsigned i = 0; i < kPages; ++i) {
        tlbs.insertGuest(Addr{i} << 12, Addr{0x100000 + i} << 12,
                         PageSize::Size4K);
    }
    unsigned next = 0;
    for (auto _ : state) {
        auto hit = tlbs.lookupL1((Addr{next} << 12) | 0xabc);
        benchmark::DoNotOptimize(hit);
        next = (next + 1) % kPages;
    }
}

void
BM_TlbInsertMiss(benchmark::State &state)
{
    // The L2 TLB's geometry (128 sets x 4 ways), full, fed a cycle of
    // 65536 pages: each set sees about 512 of them in turn, so every
    // insert misses and evicts the set's LRU way.
    tlb::Tlb tlb("bench", 128, 4);
    constexpr unsigned kPages = 1u << 16;
    for (unsigned i = 0; i < kPages; ++i) {
        tlb.insert(tlb::EntryKind::Guest, Addr{i} << 12,
                   Addr{0x100000 + i} << 12, PageSize::Size4K);
    }
    unsigned next = 0;
    for (auto _ : state) {
        tlb.insert(tlb::EntryKind::Guest, Addr{next} << 12,
                   Addr{0x100000 + next} << 12, PageSize::Size4K);
        next = (next + 1) % kPages;
    }
    benchmark::DoNotOptimize(tlb.occupancy(tlb::EntryKind::Guest));
}

void
BM_LineCacheAccess(benchmark::State &state)
{
    // The Mmu's PTE-line geometry (512 sets x 8 ways), touched at
    // pseudo-random lines over a 1 MiB span: 16384 lines against
    // 4096 ways, so hits and misses both occur.
    tlb::LineCache lines(512, 8);
    constexpr unsigned kAddrs = 1u << 16;
    constexpr Addr kSpan = 1 * MiB;
    std::vector<Addr> addrs;
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (unsigned i = 0; i < kAddrs; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        addrs.push_back((x >> 20) % kSpan);
    }
    std::size_t next = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(lines.access(addrs[next]));
        next = (next + 1) % kAddrs;
    }
}

void
BM_EscapeFilterProbe(benchmark::State &state)
{
    segment::EscapeFilter filter;
    for (int i = 0; i < 16; ++i)
        filter.insertPage(static_cast<Addr>(i * 997) << 12);
    Addr addr = 0;
    for (auto _ : state) {
        addr += kPage4K;
        benchmark::DoNotOptimize(filter.mayContain(addr));
    }
}

/** Size of a small cell's host memory. */
constexpr Addr kCellMemBytes = 8 * GiB;

void
BM_PhysMemoryRead64(benchmark::State &state)
{
    // 4096 resident frames spread across the memory, read at
    // pseudo-random words: every load finds a frame.
    mem::PhysMemory mem(kCellMemBytes);
    constexpr unsigned kFrames = 4096;
    const Addr stride = kCellMemBytes / kFrames;
    std::vector<Addr> addrs;
    for (unsigned i = 0; i < kFrames; ++i) {
        mem.write64(Addr{i} * stride, i);
        addrs.push_back(Addr{(i * 2654435761u) % kFrames} * stride +
                        (i % 512) * 8);
    }
    std::size_t next = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(mem.read64(addrs[next]));
        next = (next + 1) % kFrames;
    }
}

/** Identity MemSpace over host memory, recycling table frames. */
class HostSpace : public paging::MemSpace
{
  public:
    explicit HostSpace(mem::PhysMemory &mem) : mem(mem) {}

    std::uint64_t read64(Addr addr) const override
    { return mem.read64(addr); }

    void write64(Addr addr, std::uint64_t value) override
    { mem.write64(addr, value); }

    void readRun(Addr addr, unsigned n, std::uint64_t *out) const override
    { mem.readRun(addr, n, out); }

    void
    writeRun(Addr addr, unsigned n, const std::uint64_t *values) override
    { mem.writeRun(addr, n, values); }

    Addr
    allocTableFrame() override
    {
        Addr frame = next;
        if (pool.empty()) {
            next += kPage4K;
        } else {
            frame = pool.back();
            pool.pop_back();
        }
        mem.zeroFrame(frame);
        return frame;
    }

    void freeTableFrame(Addr frame) override { pool.push_back(frame); }

  private:
    mem::PhysMemory &mem;
    std::vector<Addr> pool;
    Addr next = 0;
};

void
BM_PageTableMapUnmap2M(benchmark::State &state)
{
    // One 2 MB run as 4K pages, mapped and unmapped through the range
    // ops: the nested-table build and I/O-gap reclaim pattern.
    mem::PhysMemory mem(kCellMemBytes);
    HostSpace space(mem);
    paging::PageTable table(space);
    const Addr va = 1ull << 40;
    const Addr pa = 1ull << 30;
    for (auto _ : state) {
        table.mapRange(va, pa, kPage2M, PageSize::Size4K);
        benchmark::DoNotOptimize(
            table.unmapRange(va, kPage2M, PageSize::Size4K));
    }
    state.SetItemsProcessed(state.iterations() * 512);
}

void
BM_PageTableMapRange1G(benchmark::State &state)
{
    // 1 GiB as 4K pages (262,144 PTEs in 512 leaf tables), mapped
    // and unmapped with one range call each: the scale of a nested
    // build, per PTE.
    mem::PhysMemory mem(kCellMemBytes);
    HostSpace space(mem);
    paging::PageTable table(space);
    const Addr va = 1ull << 40;
    const Addr pa = 1ull << 32;
    for (auto _ : state) {
        table.mapRange(va, pa, kPage1G, PageSize::Size4K);
        benchmark::DoNotOptimize(
            table.unmapRange(va, kPage1G, PageSize::Size4K));
    }
    state.SetItemsProcessed(state.iterations() * (kPage1G / kPage4K));
}

BENCHMARK(BM_TranslateNative);
BENCHMARK(BM_TranslateBaseVirtualized);
BENCHMARK(BM_TranslateVmmDirect);
BENCHMARK(BM_TranslateDualDirect);
BENCHMARK(BM_TranslateGuestDirect);
BENCHMARK(BM_TranslateNativeDirect);
BENCHMARK(BM_TlbLookupHit);
BENCHMARK(BM_TlbHierarchyL1Hit4K);
BENCHMARK(BM_TlbInsertMiss);
BENCHMARK(BM_LineCacheAccess);
BENCHMARK(BM_EscapeFilterProbe);
BENCHMARK(BM_PhysMemoryRead64);
BENCHMARK(BM_PageTableMapUnmap2M);
BENCHMARK(BM_PageTableMapRange1G);

} // namespace

BENCHMARK_MAIN();
