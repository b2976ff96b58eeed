/**
 * @file
 * §IX.E: content-based page sharing potential.
 *
 * The paper co-schedules pairs of (smaller) big-memory VMs and
 * measures how much memory content-based sharing could reclaim:
 * under 3%, because the bulk of memory holds workload-unique data;
 * OS code pages share fine and stay page-mapped under the new
 * modes anyway.
 *
 * We build VM pairs, fill each VM's memory the way the workloads
 * would (unique data in the heap, a common "kernel image" in low
 * memory, untouched free pages), scan, and report the reclaimable
 * fraction of *used* (non-zero) memory and of total memory.
 * scale= sizes the workload data; nothing here runs trace ops, so
 * ops= and warmup= have no effect.
 */

#include <chrono>
#include <cstdio>
#include <iostream>

#include "bench_util.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "sim/report.hh"
#include "vmm/page_sharing.hh"
#include "vmm/vmm.hh"
#include "workload/workload.hh"

using namespace emv;
using workload::WorkloadKind;

namespace {

constexpr Addr kVmRam = 512 * MiB;
constexpr Addr kKernelImage = 24 * MiB;

/** Fill a VM the way its workload would occupy memory. */
void
fillVm(vmm::Vm &vm, WorkloadKind kind, std::uint64_t seed, double scale)
{
    Rng rng(seed);
    // Shared kernel image at the bottom of guest memory.
    for (Addr off = 0; off < kKernelImage; off += kPage4K)
        vm.guestPhys().write64(off, 0xbadc0de000 + off);

    // Workload data: unique content across VMs, sized like a
    // scaled-down footprint, in the high range.
    auto wl = workload::makeWorkload(kind, seed, scale);
    Addr bytes =
        std::min<Addr>(wl->info().footprintBytes, 320 * MiB);
    const Addr base = 4 * GiB;
    for (Addr off = 0; off < bytes; off += kPage4K) {
        vm.guestPhys().write64(base + off,
                               seed * 0x9e3779b97f4a7c15ull ^
                                   (base + off));
    }
    // A realistic sprinkle of page-cache duplication: ~1% of data
    // pages hold common library content.
    for (Addr off = 0; off < bytes / 128; off += kPage4K)
        vm.guestPhys().write64(base + bytes + off, 0x11b0000 + off);
}

/** Count non-zero (used) frames of a VM. */
std::uint64_t
usedFrames(vmm::Vmm &vmm, vmm::Vm &vm)
{
    std::uint64_t used = 0;
    for (const auto &extent : vm.backingMap().extents()) {
        for (Addr off = 0; off < extent.bytes; off += kPage4K) {
            if (vmm.hostMem().read64(extent.hpa + off) != 0)
                ++used;
        }
    }
    return used;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuietLogging(true);

    sim::RunParams params;
    params.scale = 0.04;
    params.parseArgs(argc, argv);

    const std::vector<WorkloadKind> kinds =
        workload::bigMemoryWorkloads();

    sim::Table table("Section IX.E: content-based page sharing across "
                     "co-scheduled VM pairs",
                     {"VM pair", "used frames", "duplicate frames",
                      "saved (of used)", "saved (of total)"});

    bench::ThroughputMeter meter;
    for (std::size_t i = 0; i < kinds.size(); ++i) {
        for (std::size_t j = i; j < kinds.size(); ++j) {
            mem::PhysMemory host(2 * GiB);
            vmm::Vmm vmm(host, 2 * GiB);
            vmm::VmConfig cfg;
            cfg.ramBytes = kVmRam;
            cfg.lowRamBytes = 64 * MiB;
            cfg.ioGapStart = 64 * MiB;
            cfg.ioGapEnd = 4 * GiB;
            // Put high RAM right above a "gap" at 4 GB for realism.
            auto &a = vmm.createVm("a", cfg);
            auto &b = vmm.createVm("b", cfg);
            fillVm(a, kinds[i], 1, params.scale);
            fillVm(b, kinds[j], 2, params.scale);

            vmm::PageSharing sharing(vmm);
            // Throughput here meters the scan itself: one "op" per
            // scanned frame.
            const auto t0 = std::chrono::steady_clock::now();
            auto report = sharing.scan({&a, &b});
            meter.add(report.scannedFrames,
                      bench::ThroughputMeter::elapsedNs(t0));
            const std::uint64_t used =
                usedFrames(vmm, a) + usedFrames(vmm, b);
            // Zero (free) frames trivially dedupe; discount them as
            // the paper's methodology does by reporting savings on
            // used memory.
            const std::uint64_t zero_frames =
                report.scannedFrames - used;
            const std::uint64_t real_dups =
                report.duplicateFrames > zero_frames
                    ? report.duplicateFrames - zero_frames
                    : 0;
            const double of_used =
                used ? static_cast<double>(real_dups) /
                           static_cast<double>(used)
                     : 0.0;
            const double of_total =
                static_cast<double>(real_dups) /
                static_cast<double>(report.scannedFrames);

            std::string pair =
                std::string(workload::workloadName(kinds[i])) +
                " + " + workload::workloadName(kinds[j]);
            table.addRow({pair, std::to_string(used),
                          std::to_string(real_dups),
                          sim::pct(of_used), sim::pct(of_total)});
            std::fprintf(stderr, "%s done\n", pair.c_str());
        }
    }

    table.print(std::cout);
    std::printf("\nPaper: no more than 3%% savings for big-memory "
                "pairs.\n");
    bench::writeBenchJson("Section 9e sharing", meter, {&table});
    return 0;
}
