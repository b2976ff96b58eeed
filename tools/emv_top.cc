/**
 * @file
 * emv_top — live monitor over emv-metrics-v1 JSONL streams.
 *
 * Tails one or more metrics files (each written by `emvsim
 * metrics=...`, one atomically-flushed JSON object per window) and
 * renders a refreshing one-line-per-stream view:
 *
 *   STREAM               WIN        OPS    OPS/SEC      P99     P999  FILL  MODE
 *   runs/dd-gups           4     500000   12.3M/s        38       72  0.02  Dual Direct
 *
 * Columns: last closed window index, cumulative ops, wall-clock
 * simulation rate of the last window, modeled-latency tail cycles
 * (p99/p999 of the last window), guest escape-filter fill and the
 * translation mode at window close.  A trailing `*` after MODE
 * flags windows that carried events (mode transitions, faults).
 *
 * Because every line in the stream is written with a single
 * fwrite+flush, the reader only ever sees whole records; a torn
 * final line (file mid-write on a slow filesystem) is simply
 * ignored until it completes.
 *
 * Usage:
 *   emv_top [--once] [--interval=SEC] <metrics.jsonl>...
 *
 *   --once          render a single frame and exit (no ANSI clear);
 *                   exit 1 when no file yielded a complete record —
 *                   the CI smoke-test contract.
 *   --interval=SEC  refresh period (default 2).
 *
 * Exit codes: 0 ok, 1 usage error or (--once) no data.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/json.hh"
#include "sim/experiment.hh"

namespace {

/** What one rendered row needs from the newest window record. */
struct StreamView
{
    std::string path;
    bool valid = false;
    std::uint64_t window = 0;
    std::uint64_t opEnd = 0;
    double opsPerSec = 0.0;
    double p99 = 0.0;
    double p999 = 0.0;
    double filterFill = 0.0;
    std::string mode;
    bool hadEvents = false;
};

/**
 * Last complete (newline-terminated) line of @p path; empty when the
 * file is missing, empty, or holds only a torn partial line.
 */
std::string
lastCompleteLine(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return "";
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    // Drop any torn trailing fragment: everything after the last
    // newline is a write in flight.
    const auto tail = text.rfind('\n');
    if (tail == std::string::npos)
        return "";
    text.resize(tail);  // text now ends with a complete line.
    const auto prev = text.rfind('\n');
    return prev == std::string::npos ? text : text.substr(prev + 1);
}

double
numberOr(const emv::json::Value *v, double fallback)
{
    return v && v->isNumber() && std::isfinite(v->number) ? v->number
                                                          : fallback;
}

StreamView
readStream(const std::string &path)
{
    StreamView view;
    view.path = path;
    const std::string line = lastCompleteLine(path);
    if (line.empty())
        return view;
    emv::json::Value doc;
    if (!emv::json::parse(line, doc) || !doc.isObject())
        return view;
    const auto *schema = doc.find("schema");
    if (!schema || schema->string != "emv-metrics-v1")
        return view;

    view.valid = true;
    view.window = static_cast<std::uint64_t>(
        numberOr(doc.find("window"), 0.0));
    view.opEnd = static_cast<std::uint64_t>(
        numberOr(doc.find("op_end"), 0.0));
    if (const auto *rate = doc.find("rate"))
        view.opsPerSec = numberOr(rate->find("ops_per_sec"), 0.0);
    if (const auto *latency = doc.find("latency")) {
        view.p99 = numberOr(latency->find("p99"), 0.0);
        view.p999 = numberOr(latency->find("p999"), 0.0);
    }
    if (const auto *gauges = doc.find("gauges")) {
        view.filterFill =
            numberOr(gauges->find("guest_filter_fill"), 0.0);
    }
    if (const auto *mode = doc.find("mode");
        mode && mode->kind == emv::json::Value::Kind::String) {
        view.mode = mode->string;
    }
    if (const auto *events = doc.find("events"))
        view.hadEvents = events->isArray() && !events->array.empty();
    return view;
}

/** "12.3M/s" style rate. */
std::string
rateStr(double ops_per_sec)
{
    char buf[32];
    if (ops_per_sec >= 1e6)
        std::snprintf(buf, sizeof(buf), "%.1fM/s", ops_per_sec / 1e6);
    else if (ops_per_sec >= 1e3)
        std::snprintf(buf, sizeof(buf), "%.1fK/s", ops_per_sec / 1e3);
    else
        std::snprintf(buf, sizeof(buf), "%.0f/s", ops_per_sec);
    return buf;
}

/** One frame: header + one row per stream.  @return rows with data. */
unsigned
render(const std::vector<std::string> &paths)
{
    unsigned live = 0;
    std::printf("%-28s %6s %10s %10s %8s %8s %6s  %s\n", "STREAM",
                "WIN", "OPS", "OPS/SEC", "P99", "P999", "FILL",
                "MODE");
    for (const auto &path : paths) {
        const StreamView view = readStream(path);
        if (!view.valid) {
            std::printf("%-28s %s\n", path.c_str(), "(no data)");
            continue;
        }
        ++live;
        std::printf("%-28s %6llu %10llu %10s %8.0f %8.0f %6.2f  "
                    "%s%s\n",
                    view.path.c_str(),
                    static_cast<unsigned long long>(view.window),
                    static_cast<unsigned long long>(view.opEnd),
                    rateStr(view.opsPerSec).c_str(), view.p99,
                    view.p999, view.filterFill, view.mode.c_str(),
                    view.hadEvents ? " *" : "");
    }
    return live;
}

} // namespace

int
main(int argc, char **argv)
{
    bool once = false;
    double interval = 2.0;
    std::vector<std::string> paths;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            std::printf("usage: emv_top [--once] [--interval=SEC] "
                        "<metrics.jsonl>...\n");
            return 0;
        }
        if (arg == "--once") {
            once = true;
        } else if (arg.rfind("--interval=", 0) == 0) {
            if (!emv::sim::parseWhole(arg.c_str() + 11, interval) ||
                !std::isfinite(interval) || interval <= 0.0) {
                std::fprintf(stderr,
                             "emv_top: bad interval '%s'\n",
                             arg.c_str());
                return 1;
            }
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "emv_top: unknown option '%s'\n",
                         arg.c_str());
            return 1;
        } else {
            paths.push_back(arg);
        }
    }
    if (paths.empty()) {
        std::fprintf(stderr, "usage: emv_top [--once] "
                             "[--interval=SEC] <metrics.jsonl>...\n");
        return 1;
    }

    if (once)
        return render(paths) > 0 ? 0 : 1;

    for (;;) {
        // Home + clear-to-end keeps the frame flicker-free on any
        // VT100-compatible terminal.
        std::printf("\x1b[H\x1b[2J");
        render(paths);
        std::fflush(stdout);
        timespec nap{};
        nap.tv_sec = static_cast<time_t>(interval);
        nap.tv_nsec = static_cast<long>(
            (interval - static_cast<double>(nap.tv_sec)) * 1e9);
        nanosleep(&nap, nullptr);
    }
}
