/**
 * @file
 * json_check — tiny validator for the observability outputs.
 *
 * Usage:
 *   json_check <stats.json> [trace.log]
 *   json_check <bench.json>
 *   json_check <metrics.jsonl>
 *   json_check <directory>
 *
 * A .json argument must parse as strict JSON and carry one of the
 * known schema tags, which selects the structural checks:
 *
 *   emv-stats-v1 — at least one stat group, each with a distinct
 *                  non-empty name, and at least one counter (the
 *                  emvsim statsjson= contract);
 *   emv-bench-v1 — a non-empty title, a "cells" array (possibly
 *                  empty — a bench with no simulated cells still
 *                  reports) whose entries each name a workload, a
 *                  config, and a finite numeric overhead, a
 *                  "tables" array whose entries each carry a string
 *                  title, a non-empty array of string headers and
 *                  rows of exactly that many strings, and a
 *                  "throughput" object carrying ops/host_ns plus the
 *                  derived ops_per_sec / host_ns_per_op (the
 *                  BENCH_*.json contract from bench/bench_util.hh).
 *
 * A .jsonl argument is an emv-metrics-v1 telemetry stream (emvsim
 * metrics=): every line must be a strict, duplicate-key-free JSON
 * object tagged emv-metrics-v1 with window indices increasing by one
 * (a resumed stream starts at its checkpointed index, not zero),
 * op_start chaining to the previous op_end, op_end > op_start,
 * non-negative deltas, and finite rate members — the
 * contract that lets emv_top trust the last line of a live stream.
 *
 * All schemas additionally reject documents containing duplicate
 * object keys or non-finite numbers (strtod happily parses "1e999"
 * to +Inf; a validator must not wave that through).
 *
 * A directory argument scans for BENCH_*.json files and validates
 * every one (failing when none are found), so CI can gate on the
 * whole bench-output crop with a single invocation.  An optional
 * trailing trace-log argument must exist and be non-empty.
 */

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hh"

namespace {

namespace fs = std::filesystem;

/** Print "json_check: <where>: <message>" on stderr; @return 1. */
[[gnu::format(printf, 2, 3)]] int
fail(const std::string &where, const char *format, ...)
{
    std::fprintf(stderr, "json_check: %s: ", where.c_str());
    va_list args;
    va_start(args, format);
    std::vfprintf(stderr, format, args);
    va_end(args);
    std::fputc('\n', stderr);
    return 1;
}

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    out = ss.str();
    return true;
}

bool
isString(const emv::json::Value *v)
{
    return v && v->kind == emv::json::Value::Kind::String;
}

bool
isFiniteNumber(const emv::json::Value *v)
{
    return v && v->isNumber() && std::isfinite(v->number);
}

/**
 * Every number anywhere in the document must be finite.  On failure
 * @p where names the offending member ("shards[3].exit_code"-style)
 * for the error message.
 */
bool
allNumbersFinite(const emv::json::Value &v, const std::string &at,
                 std::string &where)
{
    switch (v.kind) {
      case emv::json::Value::Kind::Number:
        if (!std::isfinite(v.number)) {
            where = at.empty() ? "<root>" : at;
            return false;
        }
        return true;
      case emv::json::Value::Kind::Array:
        for (std::size_t i = 0; i < v.array.size(); ++i) {
            if (!allNumbersFinite(v.array[i],
                                  at + "[" + std::to_string(i) + "]",
                                  where))
                return false;
        }
        return true;
      case emv::json::Value::Kind::Object:
        for (const auto &[name, member] : v.object) {
            if (!allNumbersFinite(member,
                                  at.empty() ? name : at + "." + name,
                                  where))
                return false;
        }
        return true;
      default:
        return true;
    }
}

/** emv-stats-v1: uniquely named groups, at least one counter. */
int
checkStats(const std::string &path, const emv::json::Value &root)
{
    const emv::json::Value *groups = root.find("groups");
    if (!groups || !groups->isArray() || groups->array.empty())
        return fail(path, "no stat groups");
    std::size_t counters = 0;
    std::set<std::string> names;
    for (const auto &group : groups->array) {
        const emv::json::Value *name = group.find("name");
        if (!isString(name) || name->string.empty())
            return fail(path, "group without a name");
        if (!names.insert(name->string).second)
            return fail(path, "duplicate group '%s'",
                        name->string.c_str());
        if (const emv::json::Value *c = group.find("counters"))
            counters += c->object.size();
    }
    if (counters == 0)
        return fail(path, "no counters in any group");
    std::printf("json_check: %s ok (%zu groups, %zu counters)\n",
                path.c_str(), groups->array.size(), counters);
    return 0;
}

/** True when @p v is an array of strings. */
bool
isStringArray(const emv::json::Value *v)
{
    return v && v->isArray() &&
           std::all_of(v->array.begin(), v->array.end(),
                       [](const emv::json::Value &e) {
                           return isString(&e);
                       });
}

/** emv-bench-v1: titled cells, tables and throughput section. */
int
checkBench(const std::string &path, const emv::json::Value &root)
{
    const emv::json::Value *title = root.find("title");
    if (!isString(title) || title->string.empty())
        return fail(path, "missing title");
    // An empty cells array is legal (tab02 reports on a static
    // traits table, running no cells), but the member must exist —
    // and every bench must meter its wall-clock throughput.
    const emv::json::Value *cells = root.find("cells");
    if (!cells || !cells->isArray())
        return fail(path, "missing cells array");
    const emv::json::Value *tables = root.find("tables");
    if (!tables || !tables->isArray())
        return fail(path, "missing tables array");
    for (std::size_t t = 0; t < tables->array.size(); ++t) {
        const emv::json::Value &table = tables->array[t];
        const emv::json::Value *headers = table.find("headers");
        const emv::json::Value *rows = table.find("rows");
        if (!isString(table.find("title")) ||
            !isStringArray(headers) || headers->array.empty() ||
            !rows || !rows->isArray())
            return fail(path, "table %zu lacks a title, headers or rows",
                        t);
        for (std::size_t r = 0; r < rows->array.size(); ++r) {
            const emv::json::Value &row = rows->array[r];
            if (!isStringArray(&row) ||
                row.array.size() != headers->array.size())
                return fail(path, "table %zu row %zu is not %zu strings",
                            t, r, headers->array.size());
        }
    }
    const emv::json::Value *tp = root.find("throughput");
    if (!tp || !tp->isObject())
        return fail(path, "missing throughput section");
    for (const char *field :
         {"ops", "host_ns", "ops_per_sec", "host_ns_per_op"}) {
        const emv::json::Value *v = tp->find(field);
        if (!isFiniteNumber(v) || v->number < 0)
            return fail(path, "throughput lacks a finite non-negative "
                        "%s", field);
    }
    for (std::size_t i = 0; i < cells->array.size(); ++i) {
        const emv::json::Value &cell = cells->array[i];
        if (!isString(cell.find("workload")) ||
            !isString(cell.find("config")))
            return fail(path, "cell %zu lacks workload/config", i);
        const emv::json::Value *overhead = cell.find("overhead");
        if (!isFiniteNumber(overhead))
            return fail(path, "cell %zu lacks a finite overhead", i);
    }
    std::printf("json_check: %s ok (%zu cells, %zu tables, %.0f ops)\n",
                path.c_str(), cells->array.size(),
                tables->array.size(), tp->find("ops")->number);
    return 0;
}

/**
 * emv-metrics-v1 JSONL: one window record per line, each a strict
 * JSON object, with the cross-line chaining invariants that make the
 * stream tail-able (see the file comment).
 */
int
checkMetricsJsonl(const std::string &path)
{
    std::string text;
    if (!readFile(path, text))
        return fail(path, "cannot read");

    std::size_t lineno = 0;
    std::size_t windows = 0;
    // A resumed run reopens the sink fresh but continues window
    // numbering from its checkpoint, so the first record sets the
    // baseline; every later one must advance by exactly one.
    double expect_window = -1;  // < 0: no previous window yet.
    double prev_op_end = -1;
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
        ++lineno;
        if (line.empty())
            continue;
        const std::string at = path + ":" + std::to_string(lineno);
        emv::json::Value rec;
        if (!emv::json::parse(line, rec,
                              /*rejectDuplicateKeys=*/true))
            return fail(at, "not a strict JSON object line");
        std::string non_finite_at;
        if (!allNumbersFinite(rec, "", non_finite_at))
            return fail(at, "non-finite number at %s",
                        non_finite_at.c_str());
        if (!rec.isObject())
            return fail(at, "line is not an object");
        const emv::json::Value *schema = rec.find("schema");
        if (!isString(schema) ||
            schema->string != "emv-metrics-v1")
            return fail(at, "missing emv-metrics-v1 schema tag");

        const emv::json::Value *window = rec.find("window");
        const emv::json::Value *op_start = rec.find("op_start");
        const emv::json::Value *op_end = rec.find("op_end");
        if (!isFiniteNumber(window) || !isFiniteNumber(op_start) ||
            !isFiniteNumber(op_end))
            return fail(at, "missing window/op_start/op_end");
        if (expect_window >= 0 && window->number != expect_window)
            return fail(at, "window index does not increase by one");
        if (window->number < 0)
            return fail(at, "negative window index");
        if (prev_op_end >= 0 && op_start->number != prev_op_end)
            return fail(at, "op_start does not chain to the "
                        "previous window's op_end");
        if (op_end->number <= op_start->number)
            return fail(at, "op_end must exceed op_start");

        const emv::json::Value *rate = rec.find("rate");
        if (!rate || !rate->isObject() ||
            !isFiniteNumber(rate->find("ops_per_sec")) ||
            !isFiniteNumber(rate->find("host_ns_per_op")))
            return fail(at, "missing rate.ops_per_sec / "
                        "rate.host_ns_per_op");

        const emv::json::Value *deltas = rec.find("deltas");
        if (!deltas || !deltas->isObject())
            return fail(at, "missing deltas object");
        for (const auto &[name, v] : deltas->object) {
            if (!v.isNumber() || v.number < 0)
                return fail(at, "negative delta '%s'", name.c_str());
        }

        // The latency block is optional (no latency source
        // attached), but when present its tails must be ordered.
        if (const emv::json::Value *lat = rec.find("latency")) {
            const emv::json::Value *p50 = lat->find("p50");
            const emv::json::Value *p99 = lat->find("p99");
            const emv::json::Value *p999 = lat->find("p999");
            if (!isFiniteNumber(p50) || !isFiniteNumber(p99) ||
                !isFiniteNumber(p999))
                return fail(at, "latency block lacks p50/p99/p999");
            if (p50->number > p99->number ||
                p99->number > p999->number)
                return fail(at, "latency percentiles are not "
                            "monotonic");
        }

        expect_window = window->number + 1;
        prev_op_end = op_end->number;
        ++windows;
    }
    if (windows == 0)
        return fail(path, "no window records");
    std::printf("json_check: %s ok (%zu windows, %.0f ops)\n",
                path.c_str(), windows, prev_op_end);
    return 0;
}

int
checkJsonFile(const std::string &path)
{
    std::string text;
    if (!readFile(path, text))
        return fail(path, "cannot read");

    emv::json::Value root;
    if (!emv::json::parse(text, root,
                          /*rejectDuplicateKeys=*/true)) {
        // Distinguish "duplicate keys" (a lenient parse succeeds)
        // from outright malformed JSON in the diagnostic.
        emv::json::Value ignored;
        return fail(path, emv::json::parse(text, ignored)
                              ? "has duplicate object keys"
                              : "is not well-formed JSON");
    }
    std::string non_finite_at;
    if (!allNumbersFinite(root, "", non_finite_at))
        return fail(path, "non-finite number at %s",
                    non_finite_at.c_str());
    if (!root.isObject())
        return fail(path, "top level is not an object");
    const emv::json::Value *schema = root.find("schema");
    if (!isString(schema))
        return fail(path, "missing schema tag");
    if (schema->string == "emv-stats-v1")
        return checkStats(path, root);
    if (schema->string == "emv-bench-v1")
        return checkBench(path, root);
    return fail(path, "unknown schema \"%s\"", schema->string.c_str());
}

/** Validate every BENCH_*.json under @p dir; fail when none exist. */
int
checkBenchDir(const std::string &dir)
{
    std::vector<std::string> found;
    std::error_code ec;
    for (const auto &entry : fs::directory_iterator(dir, ec)) {
        const std::string name = entry.path().filename().string();
        if (entry.is_regular_file() &&
            name.rfind("BENCH_", 0) == 0 &&
            entry.path().extension() == ".json") {
            found.push_back(entry.path().string());
        }
    }
    if (ec)
        return fail(dir, "cannot scan: %s", ec.message().c_str());
    if (found.empty())
        return fail(dir, "no BENCH_*.json");
    std::sort(found.begin(), found.end());
    int rc = 0;
    for (const auto &path : found)
        rc |= checkJsonFile(path);
    return rc;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2 || argc > 3) {
        std::fprintf(stderr, "usage: json_check <stats.json|"
                     "bench.json|metrics.jsonl|dir> "
                     "[trace.log]\n");
        return 2;
    }

    int rc;
    if (fs::is_directory(argv[1]))
        rc = checkBenchDir(argv[1]);
    else if (fs::path(argv[1]).extension() == ".jsonl")
        rc = checkMetricsJsonl(argv[1]);
    else
        rc = checkJsonFile(argv[1]);
    if (rc != 0)
        return rc;

    if (argc == 3) {
        std::string trace_text;
        if (!readFile(argv[2], trace_text) || trace_text.empty())
            return fail(argv[2], "trace file missing or empty");
    }
    return 0;
}
