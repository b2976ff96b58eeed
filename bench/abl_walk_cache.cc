/**
 * @file
 * Ablation: MMU caches on the 2D walk (translation caching [7],
 * large-reach MMU caches [12]).
 *
 * The paper's §IX.A notes its Δ estimates are pessimistic because
 * translation caching reduces walk work.  This sweep toggles the
 * paging-structure caches and prices the 2D walk with and without
 * them, showing how far real 4K+4K walks sit from the 24-reference
 * worst case — and that the proposed modes beat even generously
 * cached 2D walks.
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
    params.scale = 0.25;
    params.warmupOps = 150000;
    params.measureOps = 600000;
    params.parseArgs(argc, argv);

    sim::Table table("Ablation: paging-structure caches on/off",
                     {"workload", "config", "PSC", "refs/walk",
                      "cycles/walk", "overhead"});

    bench::ThroughputMeter meter;
    for (auto kind : {WorkloadKind::Gups, WorkloadKind::Graph500}) {
        for (const char *label : {"4K", "4K+4K", "4K+VD", "DD"}) {
            for (bool psc : {true, false}) {
                auto wl = workload::makeWorkload(kind, params.seed,
                                                 params.scale);
                auto cfg = sim::makeMachineConfig(
                    *sim::specFromLabel(label), params);
                cfg.mmu.walkCachesEnabled = psc;
                sim::Machine machine(cfg, *wl);
                auto run = meter.measure(machine, params);

                const auto &stats = machine.mmu().stats();
                const double refs = static_cast<double>(
                    stats.counterValue("guest_refs") +
                    stats.counterValue("nested_refs") +
                    stats.counterValue("native_refs"));
                const double walks = std::max<double>(
                    1.0,
                    static_cast<double>(
                        stats.counterValue("walks")));
                table.addRow({workload::workloadName(kind), label,
                              psc ? "on" : "off",
                              sim::fmt(refs / walks, 2),
                              sim::fmt(run.cyclesPerWalk, 1),
                              sim::pct(run.translationOverhead())});
                std::fprintf(stderr, ".");
            }
        }
        std::fprintf(stderr, " %s done\n",
                     workload::workloadName(kind));
    }

    table.print(std::cout);
    std::printf("\n4K+4K without PSCs approaches the Fig. 2 "
                "worst case; the proposed modes\nare largely "
                "insensitive because they bypass the cached "
                "levels entirely.\n");
    bench::writeBenchJson("Ablation walk cache", meter, {&table});
    return 0;
}
