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
namespace json {
class Writer;
} // namespace json
} // namespace emv

namespace emv::sim {

/** Titled fixed-width text table. */
class Table
{
  public:
    Table(std::string title, std::vector<std::string> headers);

    void addRow(std::vector<std::string> cells);

    /** The title, a blank line, then the columns padded to their
     *  widest cell, counted in UTF-8 code points. */
    void print(std::ostream &os) const;

    /** {"title", "headers", "rows"}: the strings print() shows. */
    void writeJson(json::Writer &w) const;

    std::size_t rows() const { return body.size(); }

  private:
    std::string title;
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
 * Write a bench's emv-bench-v1 JSON: every cell of @p cells (may be
 * empty) with its modeled fields, its MMU stat hash as 16 hex
 * digits ("mmu_hash") and its wall-clock throughput, every
 * table of @p tables as printed, and a "throughput" object summing
 * the cells and @p ops further trace ops that took @p host_ns.
 */
void writeBenchJson(std::ostream &os, const std::string &title,
                    const std::vector<const Table *> &tables,
                    const std::vector<CellResult> &cells,
                    std::uint64_t ops, std::uint64_t host_ns);

/** "Fig. 11: Big-memory" -> "fig_11_big_memory" (for file names). */
std::string slugify(const std::string &title);

} // namespace emv::sim

