/**
 * @file
 * Table IV: linear models vs full simulation.
 *
 * The paper predicts each design's page-walk cycles from measured
 * native/virtualized baselines (C_n, C_v, M_n) and segment-coverage
 * fractions.  We do the same: measure the baselines in simulation,
 * feed them through the Table IV formulas, and compare against the
 * directly simulated walk cycles of each mode.
 */

#include <cstdio>
#include <iostream>
#include <iterator>

#include "bench_util.hh"
#include "core/linear_model.hh"

using namespace emv;

int
main(int argc, char **argv)
{
    setQuietLogging(true);

    sim::RunParams params;
    params.scale = 0.25;
    params.warmupOps = 150000;
    params.measureOps = 600000;
    params.parseArgs(argc, argv);

    sim::Table table("Table IV: linear cycle models vs simulation "
                     "(walk cycles per access)",
                     {"workload", "design", "model cycles/acc",
                      "simulated cycles/acc", "ratio"});

    struct DesignRow
    {
        const char *label;
        const char *name;
    };
    const DesignRow designs[] = {
        {"DS", "Direct Segment"},
        {"DD", "Dual Direct"},
        {"4K+VD", "VMM Direct"},
        {"4K+GD", "Guest Direct"},
    };

    // Per workload: native 4K, 4K+4K, then one cell per design.
    const auto kinds = workload::bigMemoryWorkloads();
    constexpr std::size_t kPerKind = 2 + std::size(designs);
    std::vector<sim::Cell> cells;
    for (auto kind : kinds) {
        cells.push_back({kind, *sim::specFromLabel("4K"), params});
        cells.push_back({kind, *sim::specFromLabel("4K+4K"), params});
        for (const auto &design : designs) {
            cells.push_back(
                {kind, *sim::specFromLabel(design.label), params});
        }
    }
    const auto results = bench::runCells(cells);

    for (std::size_t k = 0; k < kinds.size(); ++k) {
        const auto *group = &results[kPerKind * k];
        const auto &native = group[0];
        const auto &virt = group[1];
        const double accesses =
            static_cast<double>(native.run.accessOps);

        core::ModelInputs in;
        in.cyclesPerMissNative = native.run.cyclesPerWalk;
        in.cyclesPerMissVirtualized = virt.run.cyclesPerWalk;
        in.missesNative = static_cast<double>(native.run.walks);

        for (std::size_t d = 0; d < std::size(designs); ++d) {
            const auto &design = designs[d];
            const auto &cell = group[2 + d];
            // Coverage fractions measured from the design run.
            core::ModelInputs mi = in;
            mi.fractionBoth = cell.run.fractionBoth;
            mi.fractionVmmOnly = cell.run.fractionVmmOnly;
            mi.fractionGuestOnly = cell.run.fractionGuestOnly;
            mi.fractionDirectSegment =
                static_cast<double>(cell.run.dsFastHits) /
                std::max<double>(
                    1.0, static_cast<double>(cell.run.dsFastHits +
                                             cell.run.walks));

            double model_cycles = 0.0;
            if (std::string(design.label) == "DS")
                model_cycles = core::predictDirectSegmentCycles(mi);
            else if (std::string(design.label) == "DD")
                model_cycles = core::predictDualDirectCycles(mi);
            else if (std::string(design.label) == "4K+VD")
                model_cycles = core::predictVmmDirectCycles(mi);
            else
                model_cycles = core::predictGuestDirectCycles(mi);

            const double simulated =
                cell.run.cyclesPerWalk *
                static_cast<double>(cell.run.walks);
            const double model_pa = model_cycles / accesses;
            const double sim_pa = simulated / accesses;
            table.addRow({workload::workloadName(kinds[k]),
                          design.name, sim::fmt(model_pa, 3),
                          sim::fmt(sim_pa, 3),
                          sim::fmt(sim_pa / std::max(model_pa, 1e-9),
                                   2)});
        }
    }

    table.print(std::cout);
    std::printf("\nRatios near 1 mean the analytic model and the "
                "structural simulation agree;\nDS/DD rows compare "
                "against near-zero quantities, so small absolute\n"
                "differences can produce large ratios there.\n");
    bench::writeBenchJson("Table 4 models", {}, {&table}, results);
    return 0;
}
