/**
 * @file
 * Quickstart: build one small VM, translate the same trace under
 * every mode, and print what the paper's Fig. 2/3 promise — 2D
 * walks cost up to 24 memory references, the proposed modes
 * flatten them to 4 or 0.
 *
 * Run: ./quickstart
 */

#include <cstdio>
#include <iostream>
#include <thread>

#include "common/logging.hh"
#include "core/mode.hh"
#include "sim/experiment.hh"
#include "sim/report.hh"
#include "workload/workload.hh"

using namespace emv;

int
main()
{
    setQuietLogging(true);
    const std::vector<std::string> labels = {
        "4K",     // native paging
        "DS",     // native direct segment
        "4K+4K",  // base virtualized (2D walks)
        "4K+VD",  // VMM Direct
        "4K+GD",  // Guest Direct
        "DD",     // Dual Direct
    };

    sim::RunParams params;
    params.scale = 0.03;  // ~250 MB footprint: laptop-friendly.
    params.warmupOps = 200000;
    params.measureOps = 500000;

    sim::Table table("emv quickstart: one workload, six translation "
                     "modes",
                     {"config", "mode", "overhead", "walks",
                      "cycles/walk", "refs/walk"});

    std::vector<sim::Cell> cells;
    for (const auto &label : labels) {
        cells.push_back({workload::WorkloadKind::Gups,
                         *sim::specFromLabel(label), params});
    }
    // One worker thread per core; each builds and runs its own
    // machine, and the results come back in cell order.
    const auto results =
        sim::runMatrix(cells, std::thread::hardware_concurrency());

    for (std::size_t i = 0; i < cells.size(); ++i) {
        const sim::RunResult &run = results[i].run;
        const auto &counters = results[i].counters;
        const double refs = static_cast<double>(
            counters.at("machine.mmu.guest_refs") +
            counters.at("machine.mmu.nested_refs") +
            counters.at("machine.mmu.native_refs"));
        const double refs_per_walk =
            run.walks ? refs / static_cast<double>(run.walks) : 0.0;

        table.addRow({labels[i], core::modeName(cells[i].config.mode),
                      sim::pct(run.translationOverhead()),
                      std::to_string(run.walks),
                      sim::fmt(run.cyclesPerWalk, 1),
                      sim::fmt(refs_per_walk, 1)});
    }

    table.print(std::cout);
    std::printf("\nA 2D walk (4K+4K) should show ~15-24 refs/walk "
                "before MMU caching;\nVD/GD flatten it toward 4, DD "
                "toward 0.\n");
    return 0;
}
