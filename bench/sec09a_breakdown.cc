/**
 * @file
 * §IX.A performance breakdown of the proposed designs.
 *
 * Paper claims verified here:
 *  - a VMM Direct miss costs ~13% more than native, Guest Direct
 *    ~3% more;
 *  - Dual Direct removes ~99.9% of L2 TLB misses;
 *  - the coverage fractions (F_DD / F_VD / F_GD) are near 1 for
 *    big-memory workloads.
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
    params.scale = 0.25;
    params.warmupOps = 150000;
    params.measureOps = 800000;
    params.parseArgs(argc, argv);

    sim::Table table("Section IX.A: per-design breakdown",
                     {"workload", "C_n", "VD C/miss", "vs native",
                      "GD C/miss", "vs native", "DD L2-miss cut",
                      "F_VD", "F_GD", "F_DD"});

    // Per workload: native 4K, then 4K+4K, 4K+VD, 4K+GD and DD.
    const char *const labels[] = {"4K", "4K+4K", "4K+VD", "4K+GD",
                                  "DD"};
    const auto kinds = workload::bigMemoryWorkloads();
    std::vector<sim::Cell> cells;
    for (auto kind : kinds) {
        for (const char *label : labels)
            cells.push_back({kind, *sim::specFromLabel(label), params});
    }
    const auto results = bench::runCells(cells);

    for (std::size_t k = 0; k < kinds.size(); ++k) {
        const auto &native = results[5 * k];
        const auto &bv = results[5 * k + 1];
        const auto &vd = results[5 * k + 2];
        const auto &gd = results[5 * k + 3];
        const auto &dd = results[5 * k + 4];

        const double cn = native.run.cyclesPerWalk;
        const double cut =
            1.0 - static_cast<double>(dd.run.l2Misses) /
                      std::max<double>(
                          1.0,
                          static_cast<double>(bv.run.l2Misses));
        table.addRow(
            {workload::workloadName(kinds[k]), sim::fmt(cn, 1),
             sim::fmt(vd.run.cyclesPerWalk, 1),
             sim::fmt((vd.run.cyclesPerWalk / cn - 1.0) * 100.0, 1) +
                 "%",
             sim::fmt(gd.run.cyclesPerWalk, 1),
             sim::fmt((gd.run.cyclesPerWalk / cn - 1.0) * 100.0, 1) +
                 "%",
             sim::pct(cut), sim::pct(vd.run.fractionVmmOnly),
             sim::pct(gd.run.fractionGuestOnly),
             sim::pct(dd.run.fractionBoth)});
    }

    table.print(std::cout);
    std::printf("\nPaper: VD +13%%, GD +3%% cycles per miss; DD "
                "removes ~99.9%% of L2 misses.\n");
    bench::writeBenchJson("Section 9a breakdown", {}, {&table},
                          results);
    return 0;
}
