/**
 * @file
 * §IX.D: shadow paging vs the proposed designs.
 *
 * Paper: shadow paging eliminates 2D walks but traps on every guest
 * page-table update.  Workloads with allocation churn suffer
 * (memcached 29.2% / GemsFDTD 12.2% / omnetpp 8.7% / canneal 6.6%
 * slowdown at 4K); static workloads stay under 5%.  VMM Direct
 * serves both classes (at most 7.3% slower than native).
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
    params.warmupOps = 200000;
    params.measureOps = 2000000;  // Churn needs long runs.
    params.parseArgs(argc, argv);

    const std::vector<WorkloadKind> kinds = {
        WorkloadKind::Memcached, WorkloadKind::Omnetpp,
        WorkloadKind::GemsFDTD,  WorkloadKind::Canneal,
        WorkloadKind::Mcf,       WorkloadKind::Streamcluster,
    };

    sim::Table table("Section IX.D: shadow paging vs VMM Direct "
                     "(slowdown vs native)",
                     {"workload", "native", "shadow 4K",
                      "shadow slowdown", "sync exits", "4K+VD",
                      "VD slowdown"});

    // Per workload: native 4K, then sh4K and 4K+VD.
    const char *const labels[] = {"4K", "sh4K", "4K+VD"};
    std::vector<sim::Cell> cells;
    for (auto kind : kinds) {
        for (const char *label : labels)
            cells.push_back({kind, *sim::specFromLabel(label), params});
    }
    const auto results = bench::runCells(cells);

    for (std::size_t k = 0; k < kinds.size(); ++k) {
        const auto &native = results[3 * k];
        const auto &shadow = results[3 * k + 1];
        const auto &vd = results[3 * k + 2];

        // Slowdown vs native execution time, the paper's metric.
        const double shadow_slow =
            shadow.run.execCycles() / native.run.execCycles() - 1.0;
        const double vd_slow =
            vd.run.execCycles() / native.run.execCycles() - 1.0;
        table.addRow(
            {workload::workloadName(kinds[k]),
             sim::pct(native.run.translationOverhead()),
             sim::pct(shadow.run.totalOverhead()),
             sim::pct(shadow_slow),
             sim::pct(shadow.run.vmExitCycles /
                      shadow.run.execCycles()),
             sim::pct(vd.run.totalOverhead()), sim::pct(vd_slow)});
    }

    table.print(std::cout);
    std::printf("\nExpected shape: allocation-churn workloads "
                "(memcached, omnetpp) pay\nVM-exit costs under "
                "shadow paging; static workloads do not; VMM Direct "
                "is\nuniformly close to native.\n");
    bench::writeBenchJson("Section 9d shadow", {}, {&table}, results);
    return 0;
}
