#include "vmm/shadow_pager.hh"

#include <algorithm>
#include <vector>

#include "common/ckpt.hh"
#include "common/logging.hh"
#include "vmm/vmm.hh"

namespace emv::vmm {

ShadowPager::ShadowPager(Vm &vm, os::Process &proc)
    : vm(vm), proc(proc),
      shadowPt(std::make_unique<paging::PageTable>(
          vm.vmm().frames()))
{
}

ShadowPager::~ShadowPager() = default;

Addr
ShadowPager::shadowRoot() const
{
    return shadowPt->root();
}

std::uint64_t
ShadowPager::dropShadow(Addr gva, Addr bytes)
{
    // List the shadow leaves first (the visit must not see the table
    // change under it), merged into runs of VA-contiguous leaves of
    // one size; each run goes with one unmapRange(), which frees
    // tables as the per-leaf unmaps would.
    struct Span
    {
        Addr va;
        Addr bytes;
        PageSize size;
    };
    std::vector<Span> spans;
    std::uint64_t leaves = 0;
    shadowPt->forEachLeafIn(
        gva, bytes, [&](const paging::PageTable::Leaf &leaf) {
            ++leaves;
            if (!spans.empty() && spans.back().size == leaf.size &&
                spans.back().va + spans.back().bytes == leaf.va) {
                spans.back().bytes += pageBytes(leaf.size);
            } else {
                spans.push_back({leaf.va, pageBytes(leaf.size), leaf.size});
            }
        });
    for (const Span &span : spans)
        shadowPt->unmapRange(span.va, span.bytes, span.size);
    return leaves;
}

void
ShadowPager::syncLeaf(const paging::PageTable::Leaf &guest)
{
    const Addr leaf_bytes = pageBytes(guest.size);
    // Keep the guest granule only when one backing extent covers
    // the whole leaf (truly linear in host memory) with matching
    // alignment; otherwise shadow at 4K.
    auto linear = vm.backingMap().linearHpa(guest.pa, leaf_bytes);
    const bool whole = linear && isAligned(*linear, leaf_bytes);

    // Drop stale shadow mappings first: every one under a leaf
    // mapped whole, else the one at its base, and the one at each
    // page the loop below maps.
    dropShadow(guest.va, whole ? leaf_bytes : kPage4K);
    if (whole) {
        shadowPt->map(guest.va, *linear, guest.size, guest.writable);
        return;
    }
    for (Addr off = 0; off < leaf_bytes; off += kPage4K) {
        auto hpa = vm.gpaToHpa(guest.pa + off);
        if (!hpa)
            continue;  // Unbacked gPA: leave a shadow hole.
        dropShadow(guest.va + off, kPage4K);
        shadowPt->map(guest.va + off, *hpa, PageSize::Size4K,
                      guest.writable);
    }
}

void
ShadowPager::mapRun(Addr gva, const Addr *hpa, unsigned pages)
{
    if (pages == 0)
        return;
    if (shadowPt->mapIfUnmapped(gva, pages * kPage4K, PageSize::Size4K,
                                [hpa] { return hpa; })) {
        return;
    }
    // A stale or larger shadow mapping is in the span: page by
    // page, as syncLeaf() maps a leaf it cannot map whole.
    for (unsigned i = 0; i < pages; ++i) {
        const Addr va = gva + i * kPage4K;
        dropShadow(va, kPage4K);
        shadowPt->map(va, hpa[i], PageSize::Size4K);
    }
}

void
ShadowPager::flush(Run &run)
{
    const unsigned pages = run.pages;
    run.pages = 0;
    if (pages == 0)
        return;
    // gPAs that all lie in one backing extent translate with one
    // lookup (populate hands a window's frames out descending).
    if (auto base = vm.backingMap().linearHpa(
            run.gpaLo, run.gpaHi + kPage4K - run.gpaLo)) {
        for (unsigned i = 0; i < pages; ++i)
            run.frames[i] = *base + (run.frames[i] - run.gpaLo);
        mapRun(run.va, run.frames, pages);
        return;
    }
    // Otherwise page by page: an unbacked gPA splits the run and
    // stays a shadow hole.
    unsigned first = 0;
    for (unsigned i = 0; i < pages; ++i) {
        if (auto hpa = vm.gpaToHpa(run.frames[i])) {
            run.frames[i] = *hpa;
            continue;
        }
        mapRun(run.va + first * kPage4K, run.frames + first, i - first);
        syncLeaf({run.va + i * kPage4K, run.frames[i], PageSize::Size4K,
                  true});
        first = i + 1;
    }
    mapRun(run.va + first * kPage4K, run.frames + first, pages - first);
}

void
ShadowPager::sync(const paging::PageTable::Leaf &guest, Run &run)
{
    if (guest.size != PageSize::Size4K || !guest.writable) {
        flush(run);
        syncLeaf(guest);
        return;
    }
    if (run.pages != 0 &&
        (guest.va != run.va + run.pages * kPage4K ||
         alignDown(guest.va, kPage2M) != alignDown(run.va, kPage2M))) {
        flush(run);
    }
    if (run.pages == 0) {
        run.va = guest.va;
        run.gpaLo = run.gpaHi = guest.pa;
    } else {
        run.gpaLo = std::min(run.gpaLo, guest.pa);
        run.gpaHi = std::max(run.gpaHi, guest.pa);
    }
    run.frames[run.pages++] = guest.pa;
}

void
ShadowPager::rebuildAll()
{
    // Rebuild into a fresh table (CR3-write semantics).
    shadowPt = std::make_unique<paging::PageTable>(vm.vmm().frames());
    Run run;
    proc.pageTable().forEachLeaf(
        [&](const paging::PageTable::Leaf &leaf) { sync(leaf, run); });
    flush(run);
    ++_stats.rebuilds;
}

void
ShadowPager::onGuestMapped(Addr gva, Addr bytes)
{
    Run run;
    proc.pageTable().forEachLeafIn(
        gva, bytes, [&](const paging::PageTable::Leaf &leaf) {
            sync(leaf, run);
            // Keeping the shadow coherent traps each guest PT write.
            ++_stats.syncExits;
        });
    flush(run);
}

void
ShadowPager::onGuestUnmapped(Addr gva, Addr bytes)
{
    // One coherence exit per shadow leaf dropped.
    _stats.syncExits += dropShadow(gva, bytes);
}

void
ShadowPager::onBackingChanged(Addr gpa, Addr bytes)
{
    // Without a reverse map the VMM conservatively rebuilds; real
    // VMMs keep rmap structures, but backing changes are rare
    // (ballooning, migration) compared to guest PT updates.
    (void)gpa;
    (void)bytes;
    rebuildAll();
}

template <class Ar>
void
ShadowPager::persist(Ar &ar)
{
    shadowPt->persist(ar);
    _stats.persist(ar);
}

template void ShadowPager::persist(ckpt::Encoder &);
template void ShadowPager::persist(ckpt::Decoder &);

} // namespace emv::vmm
