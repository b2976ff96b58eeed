/**
 * @file
 * emv_lint — project-specific static checks for the emv source tree.
 *
 * The general-purpose toolchain (-Wall -Wextra, sanitizers,
 * clang-tidy) cannot express *project* conventions, so this small
 * scanner enforces the ones that keep the simulator deterministic
 * and its output machine-parseable:
 *
 *   raw-rng        no rand()/srand()/std::random_device/time(...)
 *                  seeding outside common/rng — all randomness must
 *                  flow through the seeded SplitMix64/Xoshiro RNG so
 *                  runs are reproducible.
 *   raw-output     no std::cout/std::cerr/printf in src/ outside the
 *                  designated report/trace/logging translation
 *                  units — simulation results must go through stat
 *                  groups or the report layer, not ad-hoc prints.
 *   pragma-once    every header in src/ uses #pragma once.
 *   test-coverage  every .cc in src/ has a matching test file under
 *                  tests/ (with a small alias table for aggregate
 *                  suites).
 *   no-fatal-recovery
 *                  no emv_fatal in recovery-path code (src/fault/
 *                  and sim/machine.cc) — faults there must degrade
 *                  gracefully or produce a structured FaultReport,
 *                  never abort the process.
 *
 * Two conventions are left to the compiler instead: each checkpointed
 * class lists its fields once, in a persist() that both saves and
 * loads, and stat names are StatName values whose consteval
 * constructor rejects a name that is not lower_snake_case.
 *
 * Concurrency-safety rules (see DESIGN.md §12), which keep the
 * library safe to run on sim::runMatrix() worker threads:
 *
 *   shared-mutable-state
 *                  namespace-scope variables, mutable static locals
 *                  and static data members must be const/constexpr,
 *                  atomic, thread_local, a std::mutex, or an object
 *                  of a class defined in the same file that owns a
 *                  std::mutex (and so locks itself); anything else
 *                  is a data race between runMatrix() workers.
 *   nondeterministic-source
 *                  no wall-clock reads (std::chrono clocks, time(),
 *                  clock_gettime, gettimeofday), std::random_device,
 *                  or address-as-hash (std::hash over pointers,
 *                  pointer-to-uintptr casts) inside the
 *                  deterministic sim layers — any of these makes
 *                  emv-ckpt-v1 resume schedule-dependent.  Only the
 *                  injected TelemetryRecorder clock and the
 *                  explicitly wall-clock translation units
 *                  (telemetry, profiling, experiment timing) may
 *                  read real time.
 *
 * Usage: emv_lint <repo-root> [--rules=rule1,rule2,...]
 * With --rules only the named rules report (used by the fixture
 * self-tests under tests/tools/lint_fixtures/ to point one rule at
 * one known-bad mini-tree).
 * Exits 0 when clean; prints "file:line: [rule] message" per
 * violation and exits 1 otherwise.  Registered as a CTest so a
 * convention regression fails the build's test stage.
 */

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace {

struct Violation
{
    std::string file;
    int line;
    std::string rule;
    std::string message;
};

std::vector<Violation> violations;

/** --rules= filter; empty means every rule reports. */
std::set<std::string> rulesFilter;

bool
ruleEnabled(const std::string &rule)
{
    return rulesFilter.empty() || rulesFilter.count(rule) != 0;
}

void
report(const fs::path &file, int line, const std::string &rule,
       const std::string &message)
{
    if (!ruleEnabled(rule))
        return;
    violations.push_back({file.string(), line, rule, message});
}

/** Strip // and /star star/ comments plus string/char literals so the
 *  pattern rules only see real code.  Line structure is preserved. */
std::string
stripCommentsAndStrings(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    enum class State { Code, Line, Block, Str, Chr } state = State::Code;
    for (std::size_t i = 0; i < text.size(); ++i) {
        const char c = text[i];
        const char next = i + 1 < text.size() ? text[i + 1] : '\0';
        switch (state) {
        case State::Code:
            if (c == '/' && next == '/') {
                state = State::Line;
                ++i;
            } else if (c == '/' && next == '*') {
                state = State::Block;
                ++i;
            } else if (c == '"') {
                state = State::Str;
                out += '"';
            } else if (c == '\'') {
                state = State::Chr;
                out += '\'';
            } else {
                out += c;
            }
            break;
        case State::Line:
            if (c == '\n') {
                state = State::Code;
                out += '\n';
            }
            break;
        case State::Block:
            if (c == '*' && next == '/') {
                state = State::Code;
                ++i;
            } else if (c == '\n') {
                out += '\n';
            }
            break;
        case State::Str:
            if (c == '\\') {
                ++i;
            } else if (c == '"') {
                state = State::Code;
                out += '"';
            } else if (c == '\n') {
                out += '\n';  // Unterminated; keep line counts sane.
                state = State::Code;
            }
            break;
        case State::Chr:
            if (c == '\\') {
                ++i;
            } else if (c == '\'') {
                state = State::Code;
                out += '\'';
            } else if (c == '\n') {
                out += '\n';
                state = State::Code;
            }
            break;
        }
    }
    return out;
}

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    return lines;
}

std::string
readFile(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** Relative path with '/' separators, e.g. "common/rng.cc". */
std::string
relName(const fs::path &file, const fs::path &root)
{
    std::string rel = fs::relative(file, root).generic_string();
    return rel;
}

bool
matchesAny(const std::string &rel,
           const std::vector<std::string> &prefixes)
{
    return std::any_of(prefixes.begin(), prefixes.end(),
                       [&](const std::string &p) {
                           return rel.rfind(p, 0) == 0;
                       });
}

// ---------------------------------------------------------------------
// Rule: raw-rng
// ---------------------------------------------------------------------

void
checkRawRng(const fs::path &file, const std::string &rel,
            const std::vector<std::string> &lines)
{
    if (rel.rfind("common/rng", 0) == 0)
        return;  // The one blessed home of raw entropy.
    static const std::regex forbidden(
        R"(std::random_device|[^_[:alnum:]](s?rand)\s*\(|[^_[:alnum:]]time\s*\(\s*(NULL|nullptr|0)?\s*\))");
    for (std::size_t i = 0; i < lines.size(); ++i) {
        if (std::regex_search(lines[i], forbidden)) {
            report(file, static_cast<int>(i + 1), "raw-rng",
                   "unseeded randomness or wall-clock seeding; use "
                   "common/rng (deterministic, run-seeded) instead");
        }
    }
}

// ---------------------------------------------------------------------
// Rule: raw-output
// ---------------------------------------------------------------------

void
checkRawOutput(const fs::path &file, const std::string &rel,
               const std::vector<std::string> &lines)
{
    // Translation units whose whole job is producing output.
    static const std::vector<std::string> allowed = {
        "common/logging.",   // emv_warn/emv_info/panic plumbing
        "common/trace.",     // EMV_TRACE sink
        "common/json.",      // serializers write to caller streams
        "common/profile.",   // prof::report
        "common/audit.",     // audit failure records
        "sim/report.",       // human-readable result tables
        "sim/experiment.",   // CLI usage/error reporting
    };
    if (matchesAny(rel, allowed))
        return;
    static const std::regex forbidden(
        R"(std::cout|std::cerr|[^_[:alnum:]](f|v|s|sn|vsn)?printf\s*\()");
    for (std::size_t i = 0; i < lines.size(); ++i) {
        std::smatch m;
        if (std::regex_search(lines[i], m, forbidden)) {
            // Formatting into buffers is fine; writing is not.
            const std::string tok = m.str();
            if (tok.find("snprintf") != std::string::npos ||
                tok.find("vsnprintf") != std::string::npos ||
                tok.find("sprintf") != std::string::npos) {
                continue;
            }
            report(file, static_cast<int>(i + 1), "raw-output",
                   "direct console output in the simulator core; "
                   "route through stats/report/trace layers");
        }
    }
}

// ---------------------------------------------------------------------
// Rule: no-fatal-recovery
// ---------------------------------------------------------------------

void
checkNoFatalRecovery(const fs::path &file, const std::string &rel,
                     const std::vector<std::string> &lines)
{
    // Recovery-path translation units: the fault subsystem and the
    // machine layer that owns downgrade/retry/offline handling.
    static const std::vector<std::string> recovery_paths = {
        "fault/",
        "sim/machine.cc",
    };
    if (!matchesAny(rel, recovery_paths))
        return;
    static const std::regex forbidden(
        R"((^|[^_[:alnum:]])emv_fatal\s*\()");
    for (std::size_t i = 0; i < lines.size(); ++i) {
        if (std::regex_search(lines[i], forbidden)) {
            report(file, static_cast<int>(i + 1),
                   "no-fatal-recovery",
                   "emv_fatal in recovery-path code; degrade "
                   "gracefully (downgrade/retry/offline) or record "
                   "a structured FaultReport instead of aborting");
        }
    }
}

// ---------------------------------------------------------------------
// Scope-aware declaration scan for shared-mutable-state.
// ---------------------------------------------------------------------

struct Stmt
{
    std::string text;
    int line;
};

struct TypeScope
{
    std::string name;
    int line;
    std::vector<Stmt> members;
};

enum class ScopeKind { Namespace, Type, Other };

/**
 * Split the stripped text into namespace-scope statements, per-type
 * member statements, and function-local `static` statements by
 * classifying what each `{` opens.  An `{` whose header names no
 * namespace/class/struct/union/enum is Other — a function body,
 * control block, or brace initializer; its pending header is kept
 * only when the matching `}` is followed by `;` (a declaration whose
 * initializer we just skipped).
 */
void
collectScopes(const std::string &stripped,
              std::vector<Stmt> &nsStmts,
              std::vector<TypeScope> &types,
              std::vector<Stmt> &fnStmts)
{
    static const std::regex nsRe(R"(\bnamespace\b)");
    static const std::regex typeRe(R"(\b(class|struct|union|enum)\b)");
    static const std::regex typeNameRe(
        R"((?:class|struct|union|enum)(?:\s+class)?)"
        R"(\s+([A-Za-z_][A-Za-z0-9_]*))");
    static const std::regex tmplParams(R"(template\s*<[^<>]*>)");

    std::vector<ScopeKind> stack;
    std::vector<int> typeOf;          // Index into types; -1 if not.
    std::vector<std::string> pending; // Saved headers of Other scopes.
    std::vector<int> pendingLine;

    std::string cur;
    int line = 1;
    int stmtLine = 1;

    auto trimmed = [](const std::string &s) {
        const auto b = s.find_first_not_of(" \t");
        if (b == std::string::npos)
            return std::string();
        const auto e = s.find_last_not_of(" \t");
        return s.substr(b, e - b + 1);
    };
    auto record = [&]() {
        const std::string text = trimmed(cur);
        cur.clear();
        if (text.empty())
            return;
        const ScopeKind kind =
            stack.empty() ? ScopeKind::Namespace : stack.back();
        switch (kind) {
        case ScopeKind::Namespace:
            nsStmts.push_back({text, stmtLine});
            break;
        case ScopeKind::Type:
            if (typeOf.back() >= 0)
                types[static_cast<std::size_t>(typeOf.back())]
                    .members.push_back({text, stmtLine});
            break;
        case ScopeKind::Other:
            // Function bodies: only static locals are interesting.
            if (text.rfind("static ", 0) == 0)
                fnStmts.push_back({text, stmtLine});
            break;
        }
    };

    for (std::size_t i = 0; i < stripped.size(); ++i) {
        const char c = stripped[i];
        if (c == '\n') {
            ++line;
            cur += ' ';
            continue;
        }
        if (c == ';') {
            record();
            stmtLine = line;
            continue;
        }
        if (c == '{') {
            // Strip template parameter lists so `template <class T>`
            // does not read as a type definition.
            const std::string head =
                std::regex_replace(trimmed(cur), tmplParams, "");
            ScopeKind kind = ScopeKind::Other;
            if (std::regex_search(head, nsRe))
                kind = ScopeKind::Namespace;
            else if (std::regex_search(head, typeRe))
                kind = ScopeKind::Type;
            stack.push_back(kind);
            if (kind == ScopeKind::Type) {
                std::smatch m;
                std::string name = "<anonymous>";
                if (std::regex_search(head, m, typeNameRe))
                    name = m[1].str();
                typeOf.push_back(static_cast<int>(types.size()));
                types.push_back({name, stmtLine, {}});
            } else {
                typeOf.push_back(-1);
            }
            pending.push_back(kind == ScopeKind::Other ? cur : "");
            pendingLine.push_back(stmtLine);
            cur.clear();
            stmtLine = line;
            continue;
        }
        if (c == '}') {
            if (stack.empty())
                continue;
            const ScopeKind kind = stack.back();
            const std::string saved = pending.back();
            const int savedLine = pendingLine.back();
            stack.pop_back();
            typeOf.pop_back();
            pending.pop_back();
            pendingLine.pop_back();
            cur.clear();
            if (kind == ScopeKind::Other) {
                // Brace initializer?  Restore the declaration header
                // so the upcoming ';' records it.
                std::size_t j = i + 1;
                while (j < stripped.size() &&
                       (stripped[j] == ' ' || stripped[j] == '\t' ||
                        stripped[j] == '\n')) {
                    ++j;
                }
                if (j < stripped.size() && stripped[j] == ';') {
                    cur = saved;
                    stmtLine = savedLine;
                }
            }
            continue;
        }
        if (cur.empty() || trimmed(cur).empty())
            stmtLine = line;
        cur += c;
    }
}

/** Types under which shared state is race-free. */
bool
allowedSharedDecl(const std::string &s)
{
    static const std::regex allowed(
        R"(^(extern\s+)?(static\s+)?(inline\s+)?(mutable\s+)?const(expr)?\b)"
        R"(|\bconstexpr\b|thread_local|std::atomic|\bAtomic[A-Za-z0-9_]*)"
        R"(|std::mutex|std::once_flag)");
    return std::regex_search(s, allowed);
}

/** Declared type of @p stmt (storage specifiers skipped) names one
 *  of the file's classes that owns a std::mutex member. */
bool
selfLockingDecl(const std::string &stmt,
                const std::vector<TypeScope> &types)
{
    static const std::regex ownsMutex(
        R"((^|\s)(mutable\s+)?std::mutex\s+[A-Za-z_][A-Za-z0-9_]*$)");
    static const std::regex typeName(
        R"(^(?:(?:static|inline)\s+)*([A-Za-z_][A-Za-z0-9_]*))");
    std::smatch m;
    if (!std::regex_search(stmt, m, typeName))
        return false;
    return std::any_of(types.begin(), types.end(),
                       [&](const TypeScope &type) {
        return type.name == m[1].str() &&
               std::any_of(type.members.begin(), type.members.end(),
                           [](const Stmt &member) {
                               return std::regex_search(member.text,
                                                        ownsMutex);
                           });
    });
}

/** Last identifier of the declarator (initializer stripped). */
std::string
declaredName(const std::string &stmt)
{
    std::string head = stmt;
    const auto eq = head.find('=');
    if (eq != std::string::npos)
        head = head.substr(0, eq);
    const auto br = head.find('[');
    if (br != std::string::npos)
        head = head.substr(0, br);
    static const std::regex ident(R"(([A-Za-z_][A-Za-z0-9_]*)\s*$)");
    std::smatch m;
    if (std::regex_search(head, m, ident))
        return m[1].str();
    return "<unknown>";
}

/** Statements that are not object declarations at all. */
bool
isNonVariableStmt(const std::string &s)
{
    static const std::regex nonVar(
        R"(^(using|typedef|template|friend|public|private|protected)\b)"
        R"(|^#|\b(class|struct|union|enum)\b|^static_assert\b)");
    return std::regex_search(s, nonVar);
}

// ---------------------------------------------------------------------
// Rule: shared-mutable-state
// ---------------------------------------------------------------------

void
checkSharedMutableState(const fs::path &file,
                        const std::vector<Stmt> &nsStmts,
                        const std::vector<TypeScope> &types,
                        const std::vector<Stmt> &fnStmts)
{
    auto flag = [&](const Stmt &stmt, const char *what) {
        if (isNonVariableStmt(stmt.text) ||
            stmt.text.find('(') != std::string::npos) {
            return;  // Function/type/alias declaration, not state.
        }
        if (allowedSharedDecl(stmt.text) ||
            selfLockingDecl(stmt.text, types)) {
            return;
        }
        report(file, stmt.line, "shared-mutable-state",
               std::string(what) + " '" + declaredName(stmt.text) +
                   "' is mutable and unsynchronized; make it "
                   "const/atomic/thread_local, or wrap it in a class "
                   "that owns a std::mutex and locks its accessors");
    };
    for (const Stmt &stmt : nsStmts)
        flag(stmt, "namespace-scope variable");
    for (const Stmt &stmt : fnStmts)
        flag(stmt, "static local");
    for (const TypeScope &type : types) {
        for (const Stmt &stmt : type.members) {
            if (stmt.text.rfind("static ", 0) == 0)
                flag(stmt, "static data member");
        }
    }
}

// ---------------------------------------------------------------------
// Rule: nondeterministic-source
// ---------------------------------------------------------------------

void
checkNondeterministicSource(const fs::path &file,
                            const std::string &rel,
                            const std::vector<std::string> &lines)
{
    // Translation units allowed to read real time: telemetry wall_ms
    // (presentation-only, excluded from checkpoint identity),
    // simulator self-profiling, and the experiment driver's elapsed
    // clock.  Everything else in src/ must be schedule-independent
    // or emv-ckpt-v1 resume breaks.
    static const std::vector<std::string> allowed = {
        "common/telemetry.",
        "common/profile.",
        "sim/experiment.",
    };
    if (matchesAny(rel, allowed))
        return;
    static const std::regex forbidden(
        R"(std::chrono::(steady_clock|system_clock|high_resolution_clock))"
        R"(|std::random_device)"
        R"(|[^_[:alnum:]](time|clock_gettime|gettimeofday|clock)\s*\(\s*(NULL|nullptr|0)?\s*\))"
        R"(|std::hash<[^>]*\*)"
        R"(|reinterpret_cast<\s*std::u?intptr_t)");
    for (std::size_t i = 0; i < lines.size(); ++i) {
        if (std::regex_search(lines[i], forbidden)) {
            report(file, static_cast<int>(i + 1),
                   "nondeterministic-source",
                   "wall-clock / entropy / address-dependent value "
                   "in a deterministic sim layer; inject the "
                   "TelemetryRecorder clock or use the seeded Rng "
                   "so checkpointed runs replay byte-identically");
        }
    }
}

// ---------------------------------------------------------------------
// Rule: pragma-once
// ---------------------------------------------------------------------

void
checkPragmaOnce(const fs::path &file, const std::string &stripped)
{
    const auto lines = splitLines(stripped);
    for (const std::string &line : lines) {
        const auto first = line.find_first_not_of(" \t");
        if (first == std::string::npos)
            continue;
        if (line.compare(first, 12, "#pragma once") == 0)
            return;
        // First non-blank, non-comment token is not the pragma.
        break;
    }
    report(file, 1, "pragma-once",
           "header must open with #pragma once (after the file "
           "comment), not a classic include guard");
}

// ---------------------------------------------------------------------
// Rule: test-coverage
// ---------------------------------------------------------------------

void
checkTestCoverage(const fs::path &root)
{
    // Aggregate suites that intentionally cover several sources.
    static const std::map<std::string, std::string> aliases = {
        {"common/audit.cc", "common/test_audit.cc"},
        {"core/differential_auditor.cc",
         "core/test_differential_audit.cc"},
        {"os/process.cc", "os/test_guest_os.cc"},
        {"os/hotplug.cc", "os/test_balloon.cc"},
        {"workload/workload.cc", "workload/test_workloads.cc"},
        {"workload/gups.cc", "workload/test_workloads.cc"},
        {"workload/graph500.cc", "workload/test_workloads.cc"},
        {"workload/memcached.cc", "workload/test_workloads.cc"},
        {"workload/npb_cg.cc", "workload/test_workloads.cc"},
        {"workload/spec.cc", "workload/test_workloads.cc"},
        {"workload/parsec.cc", "workload/test_workloads.cc"},
    };
    const fs::path src = root / "src";
    const fs::path tests = root / "tests";
    for (const auto &entry : fs::recursive_directory_iterator(src)) {
        if (!entry.is_regular_file() ||
            entry.path().extension() != ".cc") {
            continue;
        }
        const std::string rel = relName(entry.path(), src);
        fs::path expected;
        auto alias = aliases.find(rel);
        if (alias != aliases.end()) {
            expected = tests / alias->second;
        } else {
            fs::path p(rel);
            expected = tests / p.parent_path() /
                       ("test_" + p.filename().string());
        }
        if (!fs::exists(expected)) {
            report(entry.path(), 1, "test-coverage",
                   "no test file " + expected.string() +
                       " for this translation unit");
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const char *rootArg = nullptr;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--rules=", 0) == 0) {
            std::string csv = arg.substr(8);
            std::size_t pos = 0;
            while (pos <= csv.size()) {
                std::size_t comma = csv.find(',', pos);
                if (comma == std::string::npos)
                    comma = csv.size();
                const std::string rule = csv.substr(pos, comma - pos);
                if (!rule.empty())
                    rulesFilter.insert(rule);
                pos = comma + 1;
            }
        } else if (!rootArg) {
            rootArg = argv[i];
        } else {
            rootArg = nullptr;
            break;
        }
    }
    if (!rootArg) {
        std::fprintf(stderr,
                     "usage: %s <repo-root> [--rules=r1,r2,...]\n",
                     argv[0]);
        return 2;
    }
    const fs::path root(rootArg);
    const fs::path src = root / "src";
    if (!fs::is_directory(src)) {
        std::fprintf(stderr, "emv_lint: %s is not a repo root\n",
                     rootArg);
        return 2;
    }

    int scanned = 0;
    for (const auto &entry : fs::recursive_directory_iterator(src)) {
        if (!entry.is_regular_file())
            continue;
        const fs::path &path = entry.path();
        const std::string ext = path.extension().string();
        if (ext != ".cc" && ext != ".hh")
            continue;
        ++scanned;
        const std::string rel = relName(path, src);
        const std::string text = readFile(path);
        const std::string stripped = stripCommentsAndStrings(text);
        const auto lines = splitLines(stripped);

        checkRawRng(path, rel, lines);
        checkRawOutput(path, rel, lines);
        checkNoFatalRecovery(path, rel, lines);
        if (ext == ".hh")
            checkPragmaOnce(path, stripped);
        checkNondeterministicSource(path, rel, lines);

        std::vector<Stmt> nsStmts, fnStmts;
        std::vector<TypeScope> types;
        collectScopes(stripped, nsStmts, types, fnStmts);
        checkSharedMutableState(path, nsStmts, types, fnStmts);
    }
    checkTestCoverage(root);

    std::sort(violations.begin(), violations.end(),
              [](const Violation &a, const Violation &b) {
                  return std::tie(a.file, a.line, a.rule) <
                         std::tie(b.file, b.line, b.rule);
              });
    for (const auto &v : violations) {
        std::fprintf(stderr, "%s:%d: [%s] %s\n", v.file.c_str(),
                     v.line, v.rule.c_str(), v.message.c_str());
    }
    std::fprintf(stderr, "emv_lint: %d files scanned, %zu violations\n",
                 scanned, violations.size());
    return violations.empty() ? 0 : 1;
}
