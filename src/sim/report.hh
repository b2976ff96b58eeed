/**
 * @file
 * Plain-text report formatting for the bench binaries: fixed-width
 * tables (the "rows and series" of each paper figure) plus small
 * number-formatting helpers.
 */

#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace emv {
class StatGroup;
} // namespace emv

namespace emv::sim {

/** Fixed-width text table. */
class Table
{
  public:
    explicit Table(std::vector<std::string> headers);

    void addRow(std::vector<std::string> cells);
    void print(std::ostream &os) const;

    std::size_t rows() const { return body.size(); }

  private:
    std::vector<std::string> head;
    std::vector<std::vector<std::string>> body;
};

/** "12.3%" (one decimal). */
std::string pct(double fraction);

/** Fixed-precision double. */
std::string fmt(double value, int precision = 2);

/** "1.25 GB" style byte counts. */
std::string bytesStr(std::uint64_t bytes);

struct CellResult;

/**
 * Write @p groups (e.g. Machine::statGroups()) to @p path as
 * emv-stats-v1 JSON, truncating the file, under the StatsExport
 * profiling phase.  @return false when the file cannot be written.
 */
bool writeStatsJson(const std::string &path,
                    const std::vector<const StatGroup *> &groups);

/**
 * Machine-readable companion to the bench bar charts: one object per
 * (workload, config) cell with overheads, misses, walk costs and
 * wall-clock throughput (ops_per_sec / host_ns_per_op), plus a
 * top-level "throughput" object aggregated over every cell.
 * Schema "emv-bench-v1".
 */
void writeCellMatrixJson(std::ostream &os, const std::string &title,
                         const std::vector<CellResult> &cells);
bool writeCellMatrixJson(const std::string &path,
                         const std::string &title,
                         const std::vector<CellResult> &cells);

/**
 * emv-bench-v1 output for a bench with no cell matrix: an empty
 * "cells" array plus the "throughput" object for @p ops trace ops
 * that took @p host_ns of wall time.
 */
void writeBenchThroughputJson(std::ostream &os,
                              const std::string &title,
                              std::uint64_t ops,
                              std::uint64_t host_ns);
bool writeBenchThroughputJson(const std::string &path,
                              const std::string &title,
                              std::uint64_t ops,
                              std::uint64_t host_ns);

/** "Fig. 11: Big-memory" -> "fig_11_big_memory" (for file names). */
std::string slugify(const std::string &title);

} // namespace emv::sim

