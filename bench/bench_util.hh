/** @file Shared helpers for the figure/table bench binaries. */

#pragma once

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "sim/experiment.hh"
#include "sim/report.hh"
#include "workload/workload.hh"

namespace emv::bench {

/**
 * Accumulates wall-clock throughput across a bench's simulation
 * phases: how many trace ops ran and how long the host took, for
 * the emv-bench-v1 "throughput" section.
 */
class ThroughputMeter
{
  public:
    ThroughputMeter() = default;

    /** The measure phases of cells a bench keeps out of its json. */
    explicit ThroughputMeter(const std::vector<sim::CellResult> &cells)
    {
        for (const auto &cell : cells)
            add(cell.measuredOps, cell.hostNs);
    }

    /** Warm @p machine up for params.warmupOps, reset its stats,
     *  then run params.measureOps trace ops, timing only those.
     *  Only tab03 and abl_balloon_vs_compaction, which measure one
     *  machine across a mode transition, need this. */
    sim::RunResult
    measure(sim::Machine &machine, const sim::RunParams &params)
    {
        machine.run(params.warmupOps);
        machine.resetStats();
        const auto t0 = std::chrono::steady_clock::now();
        auto result = machine.run(params.measureOps);
        add(params.measureOps, elapsedNs(t0));
        return result;
    }

    /** Fold in externally timed work. */
    void
    add(std::uint64_t ops, std::uint64_t host_ns)
    {
        _ops += ops;
        _ns += host_ns;
    }

    static std::uint64_t
    elapsedNs(std::chrono::steady_clock::time_point since)
    {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - since)
                .count());
    }

    std::uint64_t ops() const { return _ops; }
    std::uint64_t hostNs() const { return _ns; }

  private:
    std::uint64_t _ops = 0;
    std::uint64_t _ns = 0;
};

/** The cell's MMU counter @p name ("walks"). */
inline std::uint64_t
mmuCounter(const sim::CellResult &cell, const char *name)
{
    return cell.counters.at(std::string("machine.mmu.") + name);
}

/** Memory references the cell's page walks made. */
inline std::uint64_t
walkRefs(const sim::CellResult &cell)
{
    return mmuCounter(cell, "guest_refs") +
           mmuCounter(cell, "nested_refs") +
           mmuCounter(cell, "native_refs");
}

/** Worker threads for a sweep of @p cells cells: one per hardware
 *  thread, at most one per cell (sim::matrixJobs). */
inline unsigned
sweepJobs(std::size_t cells)
{
    return sim::matrixJobs(std::thread::hardware_concurrency(), cells);
}

/** Run a bench's cell list on sweepJobs() workers; results come back
 *  in cell order. */
inline std::vector<sim::CellResult>
runCells(const std::vector<sim::Cell> &cells)
{
    return sim::runMatrix(cells, sweepJobs(cells.size()));
}

/**
 * Write BENCH_<slug>.json: every table the bench printed, the cells
 * it ran (if it holds them), and the throughput of those cells plus
 * the runs @p meter timed.
 */
inline void
writeBenchJson(const std::string &title, const ThroughputMeter &meter,
               const std::vector<const sim::Table *> &tables,
               const std::vector<sim::CellResult> &cells = {})
{
    const std::string path = "BENCH_" + sim::slugify(title) + ".json";
    std::ofstream out(path, std::ios::trunc);
    sim::writeBenchJson(out, title, tables, cells, meter.ops(),
                        meter.hostNs());
    if (out)
        std::printf("\nwrote %s\n", path.c_str());
    else
        emv_warn("cannot write %s", path.c_str());
}

/**
 * Run a (workloads x configs) overhead matrix and print it the way
 * the paper's grouped bar charts read: one row per configuration,
 * one column per workload, cells are execution-time overhead.
 */
inline void
runOverheadMatrix(const std::string &title,
                  const std::vector<workload::WorkloadKind> &kinds,
                  const std::vector<sim::ConfigSpec> &configs,
                  const sim::RunParams &params)
{
    std::vector<std::string> headers{"config"};
    for (auto kind : kinds)
        headers.emplace_back(workload::workloadName(kind));
    sim::Table table(title, headers);

    std::vector<sim::Cell> matrix;
    for (const auto &spec : configs) {
        for (auto kind : kinds)
            matrix.push_back({kind, spec, params});
    }
    const auto t0 = std::chrono::steady_clock::now();
    const std::vector<sim::CellResult> cells = runCells(matrix);
    const double wall_s =
        static_cast<double>(ThroughputMeter::elapsedNs(t0)) * 1e-9;

    auto next = cells.begin();
    for (const auto &spec : configs) {
        std::vector<std::string> row{spec.label};
        for (std::size_t k = 0; k < kinds.size(); ++k, ++next)
            row.push_back(sim::pct(next->overhead()));
        table.addRow(std::move(row));
    }
    table.print(std::cout);
    std::printf("\n(scale=%.3g warmup=%llu ops=%llu seed=%llu)\n",
                params.scale,
                static_cast<unsigned long long>(params.warmupOps),
                static_cast<unsigned long long>(params.measureOps),
                static_cast<unsigned long long>(params.seed));

    writeBenchJson(title, {}, {&table}, cells);

    if (params.profile) {
        // The phase table printed at exit sums over the workers.
        std::printf("\nmatrix: %zu cells in %.3f s wall on %u jobs\n",
                    cells.size(), wall_s, sweepJobs(cells.size()));
    }
}

} // namespace emv::bench

