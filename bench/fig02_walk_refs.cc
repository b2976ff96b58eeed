/**
 * @file
 * Figure 2: the 2D nested page walk state machine.
 *
 * Reproduces the headline count: a native x86-64 walk makes up to 4
 * memory references; a virtualized 2D walk makes up to 24
 * (5 per guest level x 4 levels + 4 for the data gPA).  We measure
 * actual cold-walk reference counts from the simulator with MMU
 * caches disabled, then show how each proposed mode flattens the
 * walk (Table II's "# of memory accesses" row).
 */

#include <cstdio>
#include <iostream>

#include "bench_util.hh"

using namespace emv;

int
main(int argc, char **argv)
{
    setQuietLogging(true);

    sim::RunParams params;
    params.scale = 0.02;
    params.seed = 1;
    params.warmupOps = 0;
    params.measureOps = 50000;
    params.parseArgs(argc, argv);

    struct Row
    {
        const char *label;
        core::Mode mode;
        const char *paper;
    };
    const Row rows[] = {
        {"native 1D", core::Mode::Native, "4"},
        {"base virtualized 2D", core::Mode::BaseVirtualized, "24"},
        {"VMM Direct", core::Mode::VmmDirect, "4 (+5 calcs)"},
        {"Guest Direct", core::Mode::GuestDirect, "4 (+1 calc)"},
        {"Dual Direct", core::Mode::DualDirect, "0 (+1 calc)"},
    };

    sim::Table table("Figure 2 / Table II: memory references per cold "
                     "page walk",
                     {"mode", "refs/walk (cold)", "calcs/walk",
                      "paper says"});

    std::vector<sim::Cell> cells;
    for (const auto &row : rows) {
        sim::MachineConfig cfg;
        cfg.mode = row.mode;
        // Cold hardware: no MMU caches, no nested TLB, so every
        // walk shows its full reference count.
        cfg.mmu.walkCachesEnabled = false;
        cfg.mmu.nestedTlbShared = false;
        cells.push_back({workload::WorkloadKind::Gups, row.label, cfg,
                         params});
    }
    const auto results = bench::runCells(cells);

    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto mmu = [&](const char *name) {
            return static_cast<double>(
                bench::mmuCounter(results[i], name));
        };
        const double walks = mmu("walks");
        const double refs =
            static_cast<double>(bench::walkRefs(results[i]));
        const double denom = std::max(
            walks + mmu("dd_fast_hits") + mmu("ds_fast_hits"), 1.0);
        table.addRow({rows[i].label, sim::fmt(refs / denom, 2),
                      sim::fmt(mmu("calculations") /
                                   std::max(walks, 1.0),
                               2),
                      rows[i].paper});
    }
    table.print(std::cout);
    std::printf("\nNote: Dual Direct resolves most misses without "
                "invoking the walker at all;\nits refs/walk average "
                "includes the rare escape/fallback walks only.\n");
    bench::writeBenchJson("Figure 2 walk refs",
                          bench::ThroughputMeter(results), {&table});
    return 0;
}
