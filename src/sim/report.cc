#include "sim/report.hh"

#include <algorithm>
#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <fstream>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/profile.hh"
#include "common/stat_export.hh"
#include "sim/experiment.hh"

namespace emv::sim {

Table::Table(std::string title, std::vector<std::string> headers)
    : title(std::move(title)), head(std::move(headers))
{
}

void
Table::addRow(std::vector<std::string> cells)
{
    emv_assert(cells.size() == head.size(),
               "table row has %zu cells, expected %zu", cells.size(),
               head.size());
    body.push_back(std::move(cells));
}

namespace {

/** Printed width of @p s: its UTF-8 code points ("±" is one). */
std::size_t
displayWidth(const std::string &s)
{
    return static_cast<std::size_t>(
        std::count_if(s.begin(), s.end(), [](char ch) {
            return (static_cast<unsigned char>(ch) & 0xc0) != 0x80;
        }));
}

void
writeStrings(json::Writer &w, const std::vector<std::string> &strings)
{
    w.beginArray();
    for (const auto &s : strings)
        w.value(s);
    w.endArray();
}

/** @p ops trace ops in @p host_ns and the rates they give. */
void
writeRates(json::Writer &w, std::uint64_t ops, std::uint64_t host_ns)
{
    w.member("ops", ops);
    w.member("host_ns", host_ns);
    w.member("ops_per_sec",
             host_ns ? static_cast<double>(ops) * 1e9 /
                           static_cast<double>(host_ns)
                     : 0.0);
    w.member("host_ns_per_op",
             ops ? static_cast<double>(host_ns) /
                       static_cast<double>(ops)
                 : 0.0);
}

} // namespace

void
Table::print(std::ostream &os) const
{
    std::vector<std::size_t> widths(head.size());
    for (std::size_t c = 0; c < head.size(); ++c)
        widths[c] = displayWidth(head[c]);
    for (const auto &row : body) {
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], displayWidth(row[c]));
    }

    auto emit_row = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            os << (c == 0 ? "" : "  ");
            os << row[c];
            os << std::string(widths[c] - displayWidth(row[c]), ' ');
        }
        os << '\n';
    };

    os << title << "\n\n";
    emit_row(head);
    std::size_t total = head.size() ? 2 * (head.size() - 1) : 0;
    for (auto w : widths)
        total += w;
    os << std::string(total, '-') << '\n';
    for (const auto &row : body)
        emit_row(row);
}

void
Table::writeJson(json::Writer &w) const
{
    w.beginObject();
    w.member("title", title);
    w.key("headers");
    writeStrings(w, head);
    w.key("rows");
    w.beginArray();
    for (const auto &row : body)
        writeStrings(w, row);
    w.endArray();
    w.endObject();
}

std::string
pct(double fraction)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1f%%", fraction * 100.0);
    return buf;
}

std::string
fmt(double value, int precision)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
    return buf;
}

std::string
bytesStr(std::uint64_t bytes)
{
    char buf[48];
    if (bytes >= (1ull << 30)) {
        std::snprintf(buf, sizeof(buf), "%.2f GB",
                      static_cast<double>(bytes) / (1ull << 30));
    } else if (bytes >= (1ull << 20)) {
        std::snprintf(buf, sizeof(buf), "%.2f MB",
                      static_cast<double>(bytes) / (1ull << 20));
    } else if (bytes >= (1ull << 10)) {
        std::snprintf(buf, sizeof(buf), "%.2f KB",
                      static_cast<double>(bytes) / (1ull << 10));
    } else {
        std::snprintf(buf, sizeof(buf), "%llu B",
                      static_cast<unsigned long long>(bytes));
    }
    return buf;
}

bool
writeStatsJson(const std::string &path,
               const std::vector<const StatGroup *> &groups)
{
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        return false;
    prof::Scope export_scope(prof::Phase::StatsExport);
    exportStatsJson(out, groups);
    return static_cast<bool>(out);
}

void
writeBenchJson(std::ostream &os, const std::string &title,
               const std::vector<const Table *> &tables,
               const std::vector<CellResult> &cells,
               std::uint64_t ops, std::uint64_t host_ns)
{
    prof::Scope export_scope(prof::Phase::StatsExport);
    json::Writer w(os);
    w.beginObject();
    w.member("schema", "emv-bench-v1");
    w.member("title", title);
    w.key("cells");
    w.beginArray();
    for (const auto &cell : cells) {
        w.beginObject();
        w.member("workload", cell.workload);
        w.member("config", cell.config);
        w.member("overhead", cell.overhead());
        w.member("translation_overhead",
                 cell.run.translationOverhead());
        w.member("base_cycles", cell.run.baseCycles);
        w.member("translation_cycles", cell.run.translationCycles);
        w.member("fault_cycles", cell.run.faultCycles);
        w.member("vmexit_cycles", cell.run.vmExitCycles);
        w.member("shootdown_cycles", cell.run.shootdownCycles);
        w.member("access_ops", cell.run.accessOps);
        w.member("l1_misses", cell.run.l1Misses);
        w.member("l2_misses", cell.run.l2Misses);
        w.member("walks", cell.run.walks);
        w.member("cycles_per_walk", cell.run.cyclesPerWalk);
        char mmu_hash[17];
        std::snprintf(mmu_hash, sizeof(mmu_hash), "%016" PRIx64,
                      cell.mmuHash);
        w.member("mmu_hash", mmu_hash);
        writeRates(w, cell.measuredOps, cell.hostNs);
        w.endObject();
        ops += cell.measuredOps;
        host_ns += cell.hostNs;
    }
    w.endArray();
    w.key("tables");
    w.beginArray();
    for (const Table *table : tables)
        table->writeJson(w);
    w.endArray();
    w.key("throughput");
    w.beginObject();
    writeRates(w, ops, host_ns);
    w.endObject();
    w.endObject();
    w.finish();
}

std::string
slugify(const std::string &title)
{
    std::string out;
    bool pending_sep = false;
    for (char ch : title) {
        const unsigned char c = static_cast<unsigned char>(ch);
        if (std::isalnum(c)) {
            if (pending_sep && !out.empty())
                out += '_';
            pending_sep = false;
            out += static_cast<char>(std::tolower(c));
        } else {
            pending_sep = true;
        }
    }
    return out.empty() ? "untitled" : out;
}

} // namespace emv::sim
