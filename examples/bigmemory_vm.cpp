/**
 * @file
 * Example: a big-memory service in a VM, across translation modes.
 *
 * Walks through the paper's motivating scenario: a memcached-style
 * key-value cache whose working set dwarfs TLB reach, run natively
 * and in a VM under each mode.  Prints the overhead decomposition
 * (translation, faults, VM exits) and the coverage fractions that
 * drive the Table IV models.
 *
 * Run: ./bigmemory_vm [scale=0.25] [ops=800000]
 */

#include <cstdio>
#include <iostream>

#include "common/logging.hh"
#include "sim/experiment.hh"
#include "sim/report.hh"

using namespace emv;

int
main(int argc, char **argv)
{
    setQuietLogging(true);

    sim::RunParams params;
    params.scale = 0.25;
    params.warmupOps = 200000;
    params.measureOps = 800000;
    params.parseArgs(argc, argv);

    auto probe = workload::makeWorkload(
        workload::WorkloadKind::Memcached, params.seed, params.scale);
    sim::Table table("Scenario: memcached-like cache, " +
                         sim::bytesStr(probe->info().footprintBytes) +
                         " footprint, Zipf-skewed GETs with slab churn",
                     {"config", "translation", "VM exits", "total",
                      "L2 misses", "cyc/walk", "F_VD", "F_GD",
                      "F_DD"});

    for (const char *label : {"4K", "2M", "DS", "4K+4K", "4K+2M",
                              "sh4K", "4K+VD", "4K+GD", "DD"}) {
        auto cell = sim::runCell({workload::WorkloadKind::Memcached,
                                  *sim::specFromLabel(label), params});
        const auto &r = cell.run;
        table.addRow({label, sim::pct(r.translationOverhead()),
                      sim::pct(r.vmExitCycles / r.baseCycles),
                      sim::pct(r.totalOverhead()),
                      std::to_string(r.l2Misses),
                      sim::fmt(r.cyclesPerWalk, 1),
                      sim::pct(r.fractionVmmOnly),
                      sim::pct(r.fractionGuestOnly),
                      sim::pct(r.fractionBoth)});
        std::fprintf(stderr, "%s done\n", label);
    }
    table.print(std::cout);

    std::printf(
        "\nReading guide:\n"
        "  - 4K+4K shows the 2D-walk tax the paper motivates;\n"
        "  - sh4K (shadow paging) trades walks for VM-exit churn "
        "costs;\n"
        "  - 4K+VD needs no guest changes and tracks native 4K;\n"
        "  - DD's F_DD column shows the fraction of misses resolved "
        "by two adds.\n");
    return 0;
}
