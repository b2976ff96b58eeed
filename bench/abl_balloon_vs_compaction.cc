/**
 * @file
 * Ablation: self-ballooning vs guest memory compaction (§IV).
 *
 * Both mechanisms create the contiguous guest-physical run a guest
 * segment needs.  The paper's pitch for self-ballooning is that it
 * gets there "quickly ... without the cost of memory compaction":
 * ballooning moves no data (it trades address ranges), while
 * compaction must migrate every allocated page out of the target
 * window.  This bench fragments guest memory to various degrees and
 * reports the work each mechanism performs and the overhead of the
 * Dual Direct mode each one enables.
 */

#include <cstdio>
#include <iostream>

#include "bench_util.hh"
#include "os/compaction.hh"

using namespace emv;
using workload::WorkloadKind;

int
main(int argc, char **argv)
{
    setQuietLogging(true);

    sim::RunParams params;
    params.scale = 0.15;
    params.warmupOps = 80000;
    params.measureOps = 300000;
    params.parseArgs(argc, argv);

    sim::Table table("Ablation: self-ballooning vs guest compaction "
                     "(§IV)",
                     {"free-run cap", "mechanism", "pages copied",
                      "segment", "DD overhead after"});

    bench::ThroughputMeter meter;
    for (Addr cap_mb : {64ull, 16ull, 4ull}) {
        // --- Self-ballooning path.
        {
            auto wl = workload::makeWorkload(
                WorkloadKind::Gups, params.seed, params.scale);
            auto cfg = sim::makeMachineConfig(
                *sim::specFromLabel("DD"), params);
            cfg.guestFragmentation.enabled = true;
            cfg.guestFragmentation.movable = true;
            cfg.guestFragmentation.maxRunBytes = cap_mb * MiB;
            cfg.extensionReserve = alignUp(
                wl->info().footprintBytes + 64 * MiB, kPage2M);
            sim::Machine machine(cfg, *wl);
            const bool ok = machine.selfBalloonGuestSegment();
            auto run = meter.measure(machine, params);
            table.addRow(
                {std::to_string(cap_mb) + " MB", "self-balloon",
                 "0 (no data moved)", ok ? "created" : "FAILED",
                 sim::pct(run.translationOverhead())});
        }
        // --- Guest-compaction path.
        {
            auto wl = workload::makeWorkload(
                WorkloadKind::Gups, params.seed, params.scale);
            auto cfg = sim::makeMachineConfig(
                *sim::specFromLabel("DD"), params);
            cfg.guestFragmentation.enabled = true;
            cfg.guestFragmentation.movable = true;
            cfg.guestFragmentation.maxRunBytes = cap_mb * MiB;
            sim::Machine machine(cfg, *wl);

            const auto *primary =
                machine.process().primaryRegion();
            os::CompactionDaemon daemon(
                machine.os(),
                [&](os::Process &, Addr va, PageSize size) {
                    machine.mmu().invalidateGuestPage(va, size);
                });
            auto run_iv = daemon.createFreeRun(primary->bytes);
            bool segment_ok = false;
            if (run_iv) {
                auto regs = machine.os().createGuestSegment(
                    machine.process());
                if (regs) {
                    machine.mmu().setGuestSegment(*regs);
                    machine.mmu().flushGuestContext();
                    segment_ok = true;
                }
            }
            auto run = meter.measure(machine, params);
            table.addRow({std::to_string(cap_mb) + " MB",
                          "guest compaction",
                          std::to_string(daemon.migratedPages()),
                          segment_ok ? "created" : "FAILED",
                          sim::pct(run.translationOverhead())});
        }
        std::fprintf(stderr, "cap=%lluMB done\n",
                     static_cast<unsigned long long>(cap_mb));
    }

    table.print(std::cout);
    std::printf("\nBoth end at Dual Direct performance; the "
                "difference is the work column —\nballooning "
                "trades addresses, compaction copies pages "
                "(and the fragmentation\ncap barely matters for "
                "ballooning, while compaction's cost scales with "
                "it).\n");
    bench::writeBenchJson("Ablation balloon vs compaction", meter,
                          {&table});
    return 0;
}
