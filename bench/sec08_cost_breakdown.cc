/**
 * @file
 * §VIII / §IX.A: the cost of virtualization, decomposed.
 *
 * Two factors explain the blow-up (paper):
 *  1. TLB misses *increase* under virtualization (1.38x graph500,
 *     1.62x memcached, 1.41x GUPS, 1.33x canneal, 1.29x
 *     streamcluster) because nested entries share the TLB.
 *  2. Cycles per miss grow (up to 3.5x NPB:CG; avg 2.4x / 1.5x /
 *     1.6x for 4K+4K / 4K+2M / 4K+1G).
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
    params.scale = 0.02;  // L2-competitive hot sets show inflation.
    params.warmupOps = 200000;
    params.measureOps = 800000;
    params.parseArgs(argc, argv);

    std::vector<WorkloadKind> kinds = {
        WorkloadKind::Graph500, WorkloadKind::Memcached,
        WorkloadKind::NpbCg,    WorkloadKind::Gups,
        WorkloadKind::Canneal,  WorkloadKind::Streamcluster,
    };

    sim::Table miss_table("Section VIII / IX.A: TLB miss inflation "
                          "under virtualization",
                          {"workload", "native L2 misses",
                           "virt L2 misses", "inflation",
                           "paper (where given)"});
    sim::Table cpm_table("Cycles per TLB miss (paper avg growth: 2.4x "
                         "4K+4K, 1.5x 4K+2M, 1.6x 4K+1G)",
                         {"workload", "C_n (4K)", "C_v (4K+4K)",
                          "C_v/C_n", "C_v (4K+2M)", "ratio",
                          "C_v (4K+1G)", "ratio"});

    auto paper_inflation = [](WorkloadKind kind) -> const char * {
        switch (kind) {
          case WorkloadKind::Graph500: return "1.38x";
          case WorkloadKind::Memcached: return "1.62x";
          case WorkloadKind::Gups: return "1.41x";
          case WorkloadKind::Canneal: return "1.33x";
          case WorkloadKind::Streamcluster: return "1.29x";
          default: return "-";
        }
    };

    // Per workload: native 4K, then 4K+4K, 4K+2M and 4K+1G.
    const char *const labels[] = {"4K", "4K+4K", "4K+2M", "4K+1G"};
    std::vector<sim::Cell> cells;
    for (auto kind : kinds) {
        for (const char *label : labels)
            cells.push_back({kind, *sim::specFromLabel(label), params});
    }
    const auto results = bench::runCells(cells);

    double ratio_sum44 = 0, ratio_sum42 = 0, ratio_sum41 = 0;
    for (std::size_t k = 0; k < kinds.size(); ++k) {
        const auto kind = kinds[k];
        const auto &native = results[4 * k];
        const auto &v44 = results[4 * k + 1];
        const auto &v42 = results[4 * k + 2];
        const auto &v41 = results[4 * k + 3];

        const double inflation =
            static_cast<double>(v44.run.l2Misses) /
            std::max<double>(1.0,
                             static_cast<double>(
                                 native.run.l2Misses));
        miss_table.addRow(
            {workload::workloadName(kind),
             std::to_string(native.run.l2Misses),
             std::to_string(v44.run.l2Misses),
             sim::fmt(inflation, 2) + "x", paper_inflation(kind)});

        const double cn = native.run.cyclesPerWalk;
        const double r44 = v44.run.cyclesPerWalk / cn;
        const double r42 = v42.run.cyclesPerWalk / cn;
        const double r41 = v41.run.cyclesPerWalk / cn;
        ratio_sum44 += r44;
        ratio_sum42 += r42;
        ratio_sum41 += r41;
        cpm_table.addRow({workload::workloadName(kind),
                          sim::fmt(cn, 1),
                          sim::fmt(v44.run.cyclesPerWalk, 1),
                          sim::fmt(r44, 2) + "x",
                          sim::fmt(v42.run.cyclesPerWalk, 1),
                          sim::fmt(r42, 2) + "x",
                          sim::fmt(v41.run.cyclesPerWalk, 1),
                          sim::fmt(r41, 2) + "x"});
    }

    const double n = static_cast<double>(kinds.size());
    sim::Table growth("Measured average growth of cycles per TLB miss",
                      {"config", "C_v/C_n"});
    growth.addRow({"4K+4K", sim::fmt(ratio_sum44 / n, 2) + "x"});
    growth.addRow({"4K+2M", sim::fmt(ratio_sum42 / n, 2) + "x"});
    growth.addRow({"4K+1G", sim::fmt(ratio_sum41 / n, 2) + "x"});

    miss_table.print(std::cout);
    std::printf("\n");
    cpm_table.print(std::cout);
    std::printf("\n");
    growth.print(std::cout);
    bench::writeBenchJson("Section 8 cost breakdown", {},
                          {&miss_table, &cpm_table, &growth}, results);
    return 0;
}
