/**
 * @file
 * Ablation: nested translations sharing the L2 TLB.
 *
 * Table VI notes the evaluation hardware keeps nested (gPA→hPA)
 * entries in the same physical TLB as regular entries; §IX.A blames
 * this for the 1.3-1.6x TLB-miss inflation under virtualization.
 * This ablation toggles the sharing off (a dedicated, infinite-miss
 * NTLB-less design) to isolate how much of the virtualization
 * overhead is capacity contention vs walk length.
 */

#include <cstdio>
#include <iostream>
#include <iterator>

#include "bench_util.hh"

using namespace emv;
using workload::WorkloadKind;

int
main(int argc, char **argv)
{
    setQuietLogging(true);

    sim::RunParams params;
    params.scale = 0.1;
    params.warmupOps = 150000;
    params.measureOps = 600000;
    params.parseArgs(argc, argv);

    sim::Table table("Ablation: shared vs dedicated nested-TLB "
                     "capacity (the §IX.A inflation mechanism)",
                     {"workload", "native misses",
                      "virt misses (shared)", "inflation",
                      "virt misses (no NTLB)",
                      "virt overhead (shared)",
                      "virt overhead (no NTLB)"});

    const WorkloadKind kinds[] = {
        WorkloadKind::Graph500, WorkloadKind::Memcached,
        WorkloadKind::NpbCg, WorkloadKind::Canneal};
    const auto spec = *sim::specFromLabel("4K+4K");

    // Per workload: native 4K, then 4K+4K with the shared L2 TLB;
    // after those, the same 4K+4K machines without sharing.
    std::vector<sim::Cell> cells;
    for (auto kind : kinds) {
        cells.push_back({kind, *sim::specFromLabel("4K"), params});
        cells.push_back({kind, spec, params});
    }
    const std::size_t shared_cells = cells.size();
    for (auto kind : kinds) {
        cells.push_back({kind, spec, params});
        cells.back().config.mmu.nestedTlbShared = false;
    }
    auto results = bench::runCells(cells);

    for (std::size_t k = 0; k < std::size(kinds); ++k) {
        const auto &native = results[2 * k].run;
        const auto &shared_run = results[2 * k + 1].run;
        const auto &isolated = results[shared_cells + k].run;

        const double inflation =
            static_cast<double>(shared_run.l2Misses) /
            std::max<double>(1.0,
                             static_cast<double>(native.l2Misses));
        table.addRow({workload::workloadName(kinds[k]),
                      std::to_string(native.l2Misses),
                      std::to_string(shared_run.l2Misses),
                      sim::fmt(inflation, 2) + "x",
                      std::to_string(isolated.l2Misses),
                      sim::pct(shared_run.totalOverhead()),
                      sim::pct(isolated.totalOverhead())});
    }

    // The json holds the shared-NTLB cells; the isolated ones count
    // toward throughput only.
    const bench::ThroughputMeter meter(
        {results.begin() + shared_cells, results.end()});
    results.resize(shared_cells);
    table.print(std::cout);
    std::printf("\nWithout sharing, guest L2 misses drop back "
                "toward native counts, but every\nnested lookup "
                "walks the nested table, so per-miss cost rises — "
                "the design\ntension real NTLBs resolve with "
                "dedicated capacity.\n");
    bench::writeBenchJson("Ablation L2 shared nested", meter, {&table},
                          results);
    return 0;
}
