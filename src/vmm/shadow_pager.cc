#include "vmm/shadow_pager.hh"

#include "common/ckpt.hh"
#include "common/logging.hh"
#include "vmm/vmm.hh"

namespace emv::vmm {

ShadowPager::ShadowPager(Vm &vm, os::Process &proc)
    : vm(vm), proc(proc),
      shadowPt(std::make_unique<paging::PageTable>(
          vm.vmm().tableSpace()))
{
}

ShadowPager::~ShadowPager() = default;

Addr
ShadowPager::shadowRoot() const
{
    return shadowPt->root();
}

bool
ShadowPager::syncLeaf(Addr gva)
{
    auto guest = proc.pageTable().translate(gva);
    if (!guest)
        return false;

    const Addr leaf_bytes = pageBytes(guest->size);
    const Addr gva_base = alignDown(gva, leaf_bytes);
    const Addr gpa_base = guest->pa - (gva - gva_base);

    // Drop any stale shadow mapping first.
    if (auto old = shadowPt->translate(gva_base)) {
        shadowPt->unmap(alignDown(gva_base, pageBytes(old->size)),
                        old->size);
    }

    // Keep the guest granule only when one backing extent covers
    // the whole leaf (truly linear in host memory) with matching
    // alignment; otherwise shadow at 4K.
    auto linear = vm.backingMap().linearHpa(gpa_base, leaf_bytes);
    if (linear && isAligned(*linear, leaf_bytes)) {
        shadowPt->map(gva_base, *linear, guest->size,
                      guest->writable);
        return true;
    }
    for (Addr off = 0; off < leaf_bytes; off += kPage4K) {
        auto hpa = vm.gpaToHpa(gpa_base + off);
        if (!hpa)
            continue;  // Unbacked gPA: leave a shadow hole.
        if (shadowPt->translate(gva_base + off))
            shadowPt->unmap(gva_base + off, PageSize::Size4K);
        shadowPt->map(gva_base + off, *hpa, PageSize::Size4K,
                      guest->writable);
    }
    return true;
}

void
ShadowPager::rebuildAll()
{
    // Rebuild into a fresh table (CR3-write semantics).
    shadowPt = std::make_unique<paging::PageTable>(vm.vmm().tableSpace());
    proc.pageTable().forEachLeaf(
        [&](const paging::PageTable::Leaf &leaf) {
            syncLeaf(leaf.va);
        });
    ++_stats.rebuilds;
}

void
ShadowPager::onGuestMapped(Addr gva, Addr bytes)
{
    const Addr end = gva + bytes;
    Addr pos = alignDown(gva, kPage4K);
    while (pos < end) {
        auto guest = proc.pageTable().translate(pos);
        if (!guest) {
            pos += kPage4K;
            continue;
        }
        const Addr leaf_bytes = pageBytes(guest->size);
        syncLeaf(pos);
        // Keeping the shadow coherent traps each guest PT write.
        ++_stats.syncExits;
        pos = alignDown(pos, leaf_bytes) + leaf_bytes;
    }
}

void
ShadowPager::onGuestUnmapped(Addr gva, Addr bytes)
{
    const Addr end = gva + bytes;
    Addr pos = alignDown(gva, kPage4K);
    while (pos < end) {
        auto shadow = shadowPt->translate(pos);
        if (!shadow) {
            pos += kPage4K;
            continue;
        }
        const Addr leaf_bytes = pageBytes(shadow->size);
        shadowPt->unmap(alignDown(pos, leaf_bytes), shadow->size);
        ++_stats.syncExits;
        pos = alignDown(pos, leaf_bytes) + leaf_bytes;
    }
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

void
ShadowPager::serialize(ckpt::Encoder &enc) const
{
    shadowPt->serialize(enc);
    _stats.serialize(enc);
}

bool
ShadowPager::deserialize(ckpt::Decoder &dec)
{
    if (!shadowPt->deserialize(dec) || !_stats.deserialize(dec))
        return false;
    return dec.ok();
}

} // namespace emv::vmm
