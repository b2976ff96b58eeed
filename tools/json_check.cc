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
 *                  config, and a finite numeric overhead, and a
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
    if (!groups || !groups->isArray() || groups->array.empty()) {
        std::fprintf(stderr, "json_check: %s: no stat groups\n",
                     path.c_str());
        return 1;
    }
    std::size_t counters = 0;
    std::set<std::string> names;
    for (const auto &group : groups->array) {
        const emv::json::Value *name = group.find("name");
        if (!isString(name) || name->string.empty()) {
            std::fprintf(stderr, "json_check: %s: group without a "
                         "name\n", path.c_str());
            return 1;
        }
        if (!names.insert(name->string).second) {
            std::fprintf(stderr, "json_check: %s: duplicate group "
                         "'%s'\n", path.c_str(), name->string.c_str());
            return 1;
        }
        if (const emv::json::Value *c = group.find("counters"))
            counters += c->object.size();
    }
    if (counters == 0) {
        std::fprintf(stderr, "json_check: %s: no counters in any "
                     "group\n", path.c_str());
        return 1;
    }
    std::printf("json_check: %s ok (%zu groups, %zu counters)\n",
                path.c_str(), groups->array.size(), counters);
    return 0;
}

/** emv-bench-v1: titled cells + mandatory throughput section. */
int
checkBench(const std::string &path, const emv::json::Value &root)
{
    const emv::json::Value *title = root.find("title");
    if (!isString(title) || title->string.empty()) {
        std::fprintf(stderr, "json_check: %s: missing title\n",
                     path.c_str());
        return 1;
    }
    // An empty cells array is legal (tab02 reports on a static
    // traits table, running no cells), but the member must exist —
    // and every bench must meter its wall-clock throughput.
    const emv::json::Value *cells = root.find("cells");
    if (!cells || !cells->isArray()) {
        std::fprintf(stderr, "json_check: %s: missing cells array\n",
                     path.c_str());
        return 1;
    }
    const emv::json::Value *tp = root.find("throughput");
    if (!tp || !tp->isObject()) {
        std::fprintf(stderr, "json_check: %s: missing throughput "
                     "section\n", path.c_str());
        return 1;
    }
    for (const char *field :
         {"ops", "host_ns", "ops_per_sec", "host_ns_per_op"}) {
        const emv::json::Value *v = tp->find(field);
        if (!isFiniteNumber(v) || v->number < 0) {
            std::fprintf(stderr, "json_check: %s: throughput lacks "
                         "a finite non-negative %s\n", path.c_str(),
                         field);
            return 1;
        }
    }
    for (std::size_t i = 0; i < cells->array.size(); ++i) {
        const emv::json::Value &cell = cells->array[i];
        if (!isString(cell.find("workload")) ||
            !isString(cell.find("config"))) {
            std::fprintf(stderr, "json_check: %s: cell %zu lacks "
                         "workload/config\n", path.c_str(), i);
            return 1;
        }
        const emv::json::Value *overhead = cell.find("overhead");
        if (!overhead || !overhead->isNumber() ||
            !std::isfinite(overhead->number)) {
            std::fprintf(stderr, "json_check: %s: cell %zu lacks a "
                         "finite overhead\n", path.c_str(), i);
            return 1;
        }
    }
    std::printf("json_check: %s ok (%zu cells, %.0f ops)\n",
                path.c_str(), cells->array.size(),
                tp->find("ops")->number);
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
    if (!readFile(path, text)) {
        std::fprintf(stderr, "json_check: cannot read '%s'\n",
                     path.c_str());
        return 1;
    }

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
        const auto fail = [&](const char *what) {
            std::fprintf(stderr, "json_check: %s:%zu: %s\n",
                         path.c_str(), lineno, what);
            return 1;
        };
        emv::json::Value rec;
        if (!emv::json::parse(line, rec,
                              /*rejectDuplicateKeys=*/true))
            return fail("not a strict JSON object line");
        std::string non_finite_at;
        if (!allNumbersFinite(rec, "", non_finite_at)) {
            std::fprintf(stderr, "json_check: %s:%zu: non-finite "
                         "number at %s\n", path.c_str(), lineno,
                         non_finite_at.c_str());
            return 1;
        }
        if (!rec.isObject())
            return fail("line is not an object");
        const emv::json::Value *schema = rec.find("schema");
        if (!isString(schema) ||
            schema->string != "emv-metrics-v1")
            return fail("missing emv-metrics-v1 schema tag");

        const emv::json::Value *window = rec.find("window");
        const emv::json::Value *op_start = rec.find("op_start");
        const emv::json::Value *op_end = rec.find("op_end");
        if (!isFiniteNumber(window) || !isFiniteNumber(op_start) ||
            !isFiniteNumber(op_end))
            return fail("missing window/op_start/op_end");
        if (expect_window >= 0 && window->number != expect_window)
            return fail("window index does not increase by one");
        if (window->number < 0)
            return fail("negative window index");
        if (prev_op_end >= 0 && op_start->number != prev_op_end)
            return fail("op_start does not chain to the previous "
                        "window's op_end");
        if (op_end->number <= op_start->number)
            return fail("op_end must exceed op_start");

        const emv::json::Value *rate = rec.find("rate");
        if (!rate || !rate->isObject() ||
            !isFiniteNumber(rate->find("ops_per_sec")) ||
            !isFiniteNumber(rate->find("host_ns_per_op")))
            return fail("missing rate.ops_per_sec / "
                        "rate.host_ns_per_op");

        const emv::json::Value *deltas = rec.find("deltas");
        if (!deltas || !deltas->isObject())
            return fail("missing deltas object");
        for (const auto &[name, v] : deltas->object) {
            if (!v.isNumber() || v.number < 0) {
                std::fprintf(stderr, "json_check: %s:%zu: negative "
                             "delta '%s'\n", path.c_str(), lineno,
                             name.c_str());
                return 1;
            }
        }

        // The latency block is optional (no latency source
        // attached), but when present its tails must be ordered.
        if (const emv::json::Value *lat = rec.find("latency")) {
            const emv::json::Value *p50 = lat->find("p50");
            const emv::json::Value *p99 = lat->find("p99");
            const emv::json::Value *p999 = lat->find("p999");
            if (!isFiniteNumber(p50) || !isFiniteNumber(p99) ||
                !isFiniteNumber(p999))
                return fail("latency block lacks p50/p99/p999");
            if (p50->number > p99->number ||
                p99->number > p999->number)
                return fail("latency percentiles are not "
                            "monotonic");
        }

        expect_window = window->number + 1;
        prev_op_end = op_end->number;
        ++windows;
    }
    if (windows == 0) {
        std::fprintf(stderr, "json_check: %s: no window records\n",
                     path.c_str());
        return 1;
    }
    std::printf("json_check: %s ok (%zu windows, %.0f ops)\n",
                path.c_str(), windows, prev_op_end);
    return 0;
}

int
checkJsonFile(const std::string &path)
{
    std::string text;
    if (!readFile(path, text)) {
        std::fprintf(stderr, "json_check: cannot read '%s'\n",
                     path.c_str());
        return 1;
    }

    emv::json::Value root;
    if (!emv::json::parse(text, root,
                          /*rejectDuplicateKeys=*/true)) {
        // Distinguish "duplicate keys" (a lenient parse succeeds)
        // from outright malformed JSON in the diagnostic.
        emv::json::Value ignored;
        std::fprintf(stderr,
                     emv::json::parse(text, ignored)
                         ? "json_check: '%s' has duplicate object "
                           "keys\n"
                         : "json_check: '%s' is not well-formed "
                           "JSON\n",
                     path.c_str());
        return 1;
    }
    std::string non_finite_at;
    if (!allNumbersFinite(root, "", non_finite_at)) {
        std::fprintf(stderr, "json_check: %s: non-finite number at "
                     "%s\n", path.c_str(), non_finite_at.c_str());
        return 1;
    }
    if (!root.isObject()) {
        std::fprintf(stderr, "json_check: %s: top level is not an "
                     "object\n", path.c_str());
        return 1;
    }
    const emv::json::Value *schema = root.find("schema");
    if (!isString(schema)) {
        std::fprintf(stderr, "json_check: %s: missing schema tag\n",
                     path.c_str());
        return 1;
    }
    if (schema->string == "emv-stats-v1")
        return checkStats(path, root);
    if (schema->string == "emv-bench-v1")
        return checkBench(path, root);
    std::fprintf(stderr, "json_check: %s: unknown schema \"%s\"\n",
                 path.c_str(), schema->string.c_str());
    return 1;
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
    if (ec) {
        std::fprintf(stderr, "json_check: cannot scan '%s': %s\n",
                     dir.c_str(), ec.message().c_str());
        return 1;
    }
    if (found.empty()) {
        std::fprintf(stderr, "json_check: no BENCH_*.json under "
                     "'%s'\n", dir.c_str());
        return 1;
    }
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
        if (!readFile(argv[2], trace_text) || trace_text.empty()) {
            std::fprintf(stderr, "json_check: trace file '%s' "
                         "missing or empty\n", argv[2]);
            return 1;
        }
    }
    return 0;
}
