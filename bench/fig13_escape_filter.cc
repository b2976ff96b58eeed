/**
 * @file
 * Figure 13: normalized execution time with 1-16 bad pages.
 *
 * The paper runs each big-memory workload in Dual Direct mode with
 * 1..16 randomly placed hard-faulted pages (30 random placements
 * each) and plots execution time normalized to fault-free Dual
 * Direct, with 95% confidence intervals.  Expected shape: flat —
 * under 0.06% impact at 16 faults (GUPS 0.5%).
 *
 * midrun=1 switches from boot-time bad frames to *mid-run* DRAM
 * hard faults (the fault-injection subsystem's dram events, spread
 * evenly across the measure interval): each fault is serviced live
 * — frame offlined, contents re-homed, escape inserted into the
 * Bloom filter — and the curve must stay just as flat.
 */

#include <cstdio>
#include <string>

#include "bench_util.hh"
#include "common/stats.hh"

using namespace emv;

int
main(int argc, char **argv)
{
    setQuietLogging(true);

    sim::RunParams params;
    params.scale = 0.15;
    params.warmupOps = 80000;
    params.measureOps = 300000;
    std::uint64_t trials = 10;  // The paper used 30: pass trials=30.
    std::uint64_t midrun = 0;
    params.parseArgs(argc, argv,
                     {{"trials", &trials, 1, UINT64_MAX},
                      {"midrun", &midrun, 0, 1}});

    // Evenly spaced mid-run DRAM fault schedule for `bad` faults.
    auto midrunSpec = [&params](unsigned bad) {
        std::string spec;
        for (unsigned i = 0; i < bad; ++i) {
            const std::uint64_t op =
                params.warmupOps +
                (i + 1) * params.measureOps / (bad + 1);
            if (!spec.empty())
                spec += ',';
            spec += "dram@" + std::to_string(op);
        }
        return spec;
    };

    const std::vector<workload::WorkloadKind> kinds =
        workload::bigMemoryWorkloads();

    std::vector<std::string> headers{"bad pages"};
    for (auto kind : kinds) {
        headers.emplace_back(std::string(workload::workloadName(kind)) +
                             " mean±ci");
    }
    sim::Table table(std::string("Figure 13: execution time with ") +
                         (midrun ? "mid-run" : "boot-time") +
                         " bad pages, normalized to fault-free Dual "
                         "Direct (" +
                         std::to_string(trials) +
                         " random fault placements per point, 95% CI)",
                     headers);

    // Fault-free baselines first, then every (bad pages, workload,
    // trial) cell in table order.
    const auto dd = *sim::specFromLabel("DD");
    const unsigned bad_counts[] = {1u, 2u, 4u, 8u, 16u};
    std::vector<sim::Cell> cells;
    for (auto kind : kinds)
        cells.push_back({kind, dd, params});
    for (unsigned bad : bad_counts) {
        for (auto kind : kinds) {
            for (std::uint64_t trial = 0; trial < trials; ++trial) {
                sim::RunParams p = params;
                if (midrun) {
                    p.faultSpec = midrunSpec(bad);
                    p.faultSeed = 1000 + trial;
                } else {
                    p.badFrames = bad;
                    p.badFrameSeed = 1000 + trial;
                }
                cells.push_back({kind, dd, p});
            }
        }
    }
    const auto results = bench::runCells(cells);

    std::size_t next = kinds.size();
    for (unsigned bad : bad_counts) {
        std::vector<std::string> row{std::to_string(bad)};
        for (std::size_t k = 0; k < kinds.size(); ++k) {
            const double baseline = results[k].run.execCycles();
            std::vector<double> samples;
            for (std::uint64_t trial = 0; trial < trials;
                 ++trial, ++next) {
                samples.push_back(results[next].run.execCycles() /
                                  baseline);
            }
            auto ci = confidence95(samples);
            char buf[64];
            std::snprintf(buf, sizeof(buf), "%.4f±%.4f", ci.mean,
                          ci.halfWidth);
            row.emplace_back(buf);
        }
        table.addRow(std::move(row));
    }
    table.print(std::cout);
    std::printf("\nPaper: <=0.06%% slowdown at 16 faults (GUPS "
                "0.5%%); values of ~1.00 reproduce it.\n");
    bench::writeBenchJson("Figure 13 escape filter", {}, {&table},
                          results);
    return 0;
}
