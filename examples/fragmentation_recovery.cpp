/**
 * @file
 * Example: recovering direct segments on a fragmented system.
 *
 * Demonstrates the §IV toolbox end to end on one machine:
 *
 *   1. boot a VM whose guest physical memory is badly fragmented —
 *      the guest segment cannot be created, Dual Direct degrades;
 *   2. run self-ballooning (balloon out scattered pages, hot-add
 *      contiguous gPA) and rebuild the guest segment;
 *   3. fragment the host too, start over in Guest Direct, and use
 *      host memory compaction to materialize a VMM segment,
 *      upgrading to Dual Direct (Table III's "slowly converted").
 *
 * Run: ./fragmentation_recovery [scale=0.15]
 */

#include <cstdio>

#include "common/logging.hh"
#include "sim/experiment.hh"
#include "sim/report.hh"

using namespace emv;

namespace {

double
measure(sim::Machine &machine, const sim::RunParams &params)
{
    machine.run(params.warmupOps);
    machine.resetStats();
    return machine.run(params.measureOps).translationOverhead();
}

} // namespace

int
main(int argc, char **argv)
{
    setQuietLogging(true);

    sim::RunParams params;
    params.scale = 0.15;
    params.warmupOps = 100000;
    params.measureOps = 400000;
    params.parseArgs(argc, argv);

    // ---------------------------------------------------------- 1
    std::printf("=== Part 1: guest physical memory is fragmented\n");
    auto wl = workload::makeWorkload(workload::WorkloadKind::Gups,
                                     params.seed, params.scale);
    auto cfg = sim::makeMachineConfig(*sim::specFromLabel("DD"),
                                      params);
    cfg.guestFragmentation.enabled = true;
    cfg.guestFragmentation.maxRunBytes = 16 * MiB;
    cfg.extensionReserve =
        alignUp(wl->info().footprintBytes + 64 * MiB, kPage2M);
    sim::Machine machine(cfg, *wl);

    std::printf("guest segment after boot: %s\n",
                machine.guestSegment().toString().c_str());
    std::printf("largest free guest run:   %s (need %s)\n",
                sim::bytesStr(machine.os().frames().buddy().largestFreeRun())
                    .c_str(),
                sim::bytesStr(wl->info().footprintBytes).c_str());
    std::printf("overhead without segment: %s\n\n",
                sim::pct(measure(machine, params)).c_str());

    // ---------------------------------------------------------- 2
    std::printf("=== Part 2: self-ballooning (Fig. 9)\n");
    const bool ballooned = machine.selfBalloonGuestSegment();
    std::printf("self-balloon: %s\n", ballooned ? "ok" : "FAILED");
    std::printf("guest segment now:        %s\n",
                machine.guestSegment().toString().c_str());
    std::printf("VM exits so far:          %llu\n",
                static_cast<unsigned long long>(
                    machine.vm()->vmExits()));
    std::printf("overhead with Dual Direct: %s\n\n",
                sim::pct(measure(machine, params)).c_str());

    // ---------------------------------------------------------- 3
    std::printf("=== Part 3: host fragmented; compaction upgrade\n");
    auto wl2 = workload::makeWorkload(workload::WorkloadKind::Gups,
                                      params.seed, params.scale);
    auto cfg2 = sim::makeMachineConfig(*sim::specFromLabel("4K+GD"),
                                       params);
    cfg2.contiguousHostReservation = false;
    cfg2.hostFragmentation.enabled = true;
    cfg2.hostFragmentation.maxRunBytes = 64 * MiB;
    sim::Machine machine2(cfg2, *wl2);

    std::printf("mode after boot:          %s\n",
                core::modeName(machine2.config().mode));
    std::printf("overhead in Guest Direct: %s\n",
                sim::pct(measure(machine2, params)).c_str());

    auto migrated = machine2.upgradeWithHostCompaction();
    if (migrated) {
        std::printf("host compaction migrated %llu pages\n",
                    static_cast<unsigned long long>(*migrated));
    } else {
        std::printf("host compaction FAILED\n");
    }
    std::printf("mode now:                 %s\n",
                core::modeName(machine2.config().mode));
    std::printf("VMM segment:              %s\n",
                machine2.vmmSegment().toString().c_str());
    std::printf("overhead in Dual Direct:  %s\n",
                sim::pct(measure(machine2, params)).c_str());
    return 0;
}
