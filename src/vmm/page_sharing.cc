#include "vmm/page_sharing.hh"

#include "common/logging.hh"
#include "vmm/vmm.hh"

namespace emv::vmm {

PageSharing::PageSharing(Vmm &vmm)
    : vmm(vmm)
{
}

SharingReport
PageSharing::scan(const std::vector<Vm *> &vms) const
{
    SharingReport report;
    std::unordered_map<std::uint64_t, std::uint64_t> content_counts;
    for (Vm *vm : vms) {
        for (const auto &extent : vm->backingMap().extents()) {
            for (Addr off = 0; off < extent.bytes; off += kPage4K) {
                const std::uint64_t hash =
                    vmm.hostMem().hashFrame(extent.hpa + off);
                ++content_counts[hash];
                ++report.scannedFrames;
            }
        }
    }
    for (const auto &[hash, count] : content_counts) {
        if (count > 1)
            report.duplicateFrames += count - 1;
    }
    report.savedBytes = report.duplicateFrames * kPage4K;
    report.savedFraction =
        report.scannedFrames
            ? static_cast<double>(report.duplicateFrames) /
                  static_cast<double>(report.scannedFrames)
            : 0.0;
    return report;
}

std::uint64_t
PageSharing::mergeDuplicates(const std::vector<Vm *> &vms)
{
    // First occurrence of each content becomes the keeper frame.
    struct Keeper
    {
        Addr hpa;
    };
    std::unordered_map<std::uint64_t, Keeper> keepers;
    std::uint64_t freed = 0;

    for (Vm *vm : vms) {
        // Snapshot extents: merging edits the backing map.
        const auto extents = vm->backingMap().extents();
        for (const auto &extent : extents) {
            for (Addr off = 0; off < extent.bytes; off += kPage4K) {
                const Addr gpa = extent.gpa + off;
                const Addr hpa = extent.hpa + off;
                const std::uint64_t hash =
                    vmm.hostMem().hashFrame(hpa);
                auto [it, inserted] =
                    keepers.try_emplace(hash, Keeper{hpa});
                if (inserted) {
                    refCounts[hpa] = 1;
                    continue;
                }
                const Addr keeper = it->second.hpa;
                if (keeper == hpa)
                    continue;
                // Repoint this gPA to the keeper frame, COW.
                vm->repointBacking(gpa, keeper);
                vmm.frames().freeBlock(hpa, PageSize::Size4K);
                ++refCounts[keeper];
                ++freed;
                ++_stats.framesMerged;
            }
        }
    }
    return freed;
}

void
PageSharing::onGuestWrite(Vm &vm, Addr gpa)
{
    auto hpa = vm.gpaToHpa(gpa);
    if (!hpa)
        return;
    const Addr frame = alignDown(*hpa, kPage4K);
    auto it = refCounts.find(frame);
    if (it == refCounts.end() || it->second <= 1)
        return;
    // Break COW: private copy for the writer.
    auto copy = vmm.frames().allocBlock(PageSize::Size4K);
    if (!copy)
        emv_fatal("host out of memory breaking COW");
    vmm.hostMem().copyFrame(*copy, frame);
    vm.repointBacking(alignDown(gpa, kPage4K), *copy);
    --it->second;
    ++_stats.cowBreaks;
}

bool
PageSharing::isShared(Addr hpa) const
{
    auto it = refCounts.find(alignDown(hpa, kPage4K));
    return it != refCounts.end() && it->second > 1;
}

} // namespace emv::vmm
