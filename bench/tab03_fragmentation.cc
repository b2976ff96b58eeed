/**
 * @file
 * Table III + Fig. 9: modes utilized in fragmented systems.
 *
 * Plays out the paper's three big-memory scenarios end to end and
 * reports the overhead before and after each recovery mechanism:
 *
 *  1. Host fragmented:  Guest Direct, slowly converted to Dual
 *     Direct with host memory compaction.
 *  2. Guest fragmented: Dual Direct enabled via self-ballooning
 *     (balloon out scattered pages, hot-add contiguous gPA).
 *  3. Host+guest fragmented: self-ballooning first, host
 *     compaction after.
 */

#include <cstdio>
#include <iostream>

#include "bench_util.hh"

using namespace emv;
using workload::WorkloadKind;

int
main(int argc, char **argv)
{
    setQuietLogging(true);
    sim::RunParams params;
    params.scale = 0.15;
    params.warmupOps = 100000;
    params.measureOps = 400000;
    params.parseArgs(argc, argv);
    bench::ThroughputMeter meter;
    auto measure = [&](sim::Machine &machine) {
        return meter.measure(machine, params).translationOverhead();
    };

    sim::Table table("Table III: fragmented-system recovery flows",
                     {"scenario", "initial mode", "overhead before",
                      "mechanism", "work", "final mode",
                      "overhead after"});
    sim::Table interim("Scenario 3 after self-ballooning, before host "
                       "compaction",
                       {"scenario", "mode", "overhead"});

    // --- Scenario 1: host physical memory fragmented.
    {
        auto wl = workload::makeWorkload(WorkloadKind::Gups,
                                         params.seed, params.scale);
        auto cfg = sim::makeMachineConfig(
            *sim::specFromLabel("4K+GD"), params);
        cfg.contiguousHostReservation = false;
        cfg.hostFragmentation.enabled = true;
        cfg.hostFragmentation.maxRunBytes = 64 * MiB;
        sim::Machine machine(cfg, *wl);
        const double before = measure(machine);
        auto migrated = machine.upgradeWithHostCompaction();
        const double after = measure(machine);
        table.addRow(
            {"host fragmented", "Guest Direct", sim::pct(before),
             "host compaction",
             migrated ? std::to_string(*migrated) + " pages moved"
                      : "failed",
             core::modeName(machine.config().mode),
             sim::pct(after)});
        std::fprintf(stderr, "scenario 1 done\n");
    }

    // --- Scenario 2: guest physical memory fragmented.
    {
        auto wl = workload::makeWorkload(WorkloadKind::Gups,
                                         params.seed, params.scale);
        auto cfg = sim::makeMachineConfig(*sim::specFromLabel("DD"),
                                          params);
        cfg.guestFragmentation.enabled = true;
        cfg.guestFragmentation.maxRunBytes = 16 * MiB;
        cfg.extensionReserve =
            alignUp(wl->info().footprintBytes + 64 * MiB, kPage2M);
        sim::Machine machine(cfg, *wl);
        const double before = measure(machine);  // Paging fallback.
        const bool ok = machine.selfBalloonGuestSegment();
        const double after = measure(machine);
        table.addRow({"guest fragmented", "DD (segment failed)",
                      sim::pct(before), "self-ballooning",
                      ok ? "balloon+hot-add" : "failed",
                      "Dual Direct", sim::pct(after)});
        std::fprintf(stderr, "scenario 2 done\n");
    }

    // --- Scenario 3: both fragmented.
    {
        auto wl = workload::makeWorkload(WorkloadKind::Gups,
                                         params.seed, params.scale);
        auto cfg = sim::makeMachineConfig(
            *sim::specFromLabel("4K+GD"), params);
        cfg.contiguousHostReservation = false;
        cfg.hostFragmentation.enabled = true;
        cfg.hostFragmentation.maxRunBytes = 64 * MiB;
        cfg.guestFragmentation.enabled = true;
        cfg.guestFragmentation.maxRunBytes = 16 * MiB;
        cfg.extensionReserve =
            alignUp(wl->info().footprintBytes + 64 * MiB, kPage2M);
        sim::Machine machine(cfg, *wl);
        const double before = measure(machine);
        const bool balloon_ok = machine.selfBalloonGuestSegment();
        const double mid = measure(machine);
        auto migrated = machine.upgradeWithHostCompaction();
        const double after = measure(machine);
        char work[96];
        std::snprintf(work, sizeof(work), "%s; %s pages moved",
                      balloon_ok ? "self-balloon" : "balloon failed",
                      migrated ? std::to_string(*migrated).c_str()
                               : "compaction failed");
        table.addRow({"host+guest fragmented",
                      "GD (segment failed)", sim::pct(before),
                      "self-balloon, then compaction", work,
                      core::modeName(machine.config().mode),
                      sim::pct(after)});
        interim.addRow(
            {"host+guest fragmented", "Guest Direct", sim::pct(mid)});
        std::fprintf(stderr, "scenario 3 done\n");
    }

    table.print(std::cout);
    std::printf("\n");
    interim.print(std::cout);
    bench::writeBenchJson("Table 3 fragmentation", meter,
                          {&table, &interim});
    return 0;
}
