#include "sim/experiment.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <iterator>
#include <sstream>
#include <thread>
#include <utility>

#include "common/audit.hh"
#include "common/logging.hh"
#include "common/profile.hh"
#include "common/stats.hh"
#include "common/trace.hh"

namespace emv::sim {

using core::Mode;

std::optional<ConfigSpec>
specFromLabel(const std::string &label)
{
    auto parse_size = [](const std::string &s,
                         PageSize &out) -> bool {
        if (s == "4K") {
            out = PageSize::Size4K;
            return true;
        }
        if (s == "2M") {
            out = PageSize::Size2M;
            return true;
        }
        if (s == "1G") {
            out = PageSize::Size1G;
            return true;
        }
        return false;
    };

    ConfigSpec spec;
    spec.label = label;

    if (label == "DS") {
        spec.mode = Mode::NativeDirect;
        return spec;
    }
    if (label == "DD") {
        spec.mode = Mode::DualDirect;
        return spec;
    }
    if (label == "THP") {
        spec.mode = Mode::Native;
        spec.thp = true;
        return spec;
    }
    if (label == "sh4K" || label == "sh2M") {
        spec.mode = Mode::BaseVirtualized;
        spec.shadow = true;
        if (label == "sh2M") {
            spec.guestPageSize = PageSize::Size2M;
            spec.vmmPageSize = PageSize::Size2M;
        }
        return spec;
    }

    const auto plus = label.find('+');
    if (plus == std::string::npos) {
        // Native page size.
        if (!parse_size(label, spec.guestPageSize))
            return std::nullopt;
        spec.mode = Mode::Native;
        return spec;
    }

    const std::string left = label.substr(0, plus);
    const std::string right = label.substr(plus + 1);
    if (left == "THP")
        spec.thp = true;
    else if (!parse_size(left, spec.guestPageSize))
        return std::nullopt;

    if (right == "VD") {
        spec.mode = Mode::VmmDirect;
        return spec;
    }
    if (right == "GD") {
        spec.mode = Mode::GuestDirect;
        return spec;
    }
    if (!parse_size(right, spec.vmmPageSize))
        return std::nullopt;
    spec.mode = Mode::BaseVirtualized;
    return spec;
}

namespace {

std::vector<ConfigSpec>
fromLabels(const std::vector<std::string> &labels)
{
    std::vector<ConfigSpec> out;
    for (const auto &label : labels) {
        auto spec = specFromLabel(label);
        emv_assert(spec.has_value(), "bad config label '%s'",
                   label.c_str());
        out.push_back(*spec);
    }
    return out;
}

/** Copies every counter it visits under its dotted full name. */
struct CounterCopy : StatVisitor
{
    void
    visitCounter(const StatGroup &group, const std::string &name,
                 const Counter &counter) override
    {
        counters[group.fullName() + "." + name] = counter.value();
    }
    void visitScalar(const StatGroup &, const std::string &,
                     const Scalar &) override {}
    void visitDistribution(const StatGroup &, const std::string &,
                           const Distribution &) override {}

    std::map<std::string, std::uint64_t> counters;
};

} // namespace

std::vector<ConfigSpec>
figure11Configs()
{
    return fromLabels({"4K", "2M", "1G", "4K+4K", "4K+2M", "4K+1G",
                       "2M+2M", "2M+1G", "1G+1G", "DS", "DD",
                       "4K+VD", "4K+GD"});
}

std::vector<ConfigSpec>
figure12Configs()
{
    return fromLabels({"4K", "THP", "4K+4K", "4K+2M", "THP+2M",
                       "4K+VD", "THP+VD"});
}

std::vector<ConfigSpec>
figure1Configs()
{
    return fromLabels(
        {"4K", "4K+4K", "4K+2M", "4K+1G", "DD", "4K+VD"});
}

void
RunParams::parseArgs(int argc, char **argv,
                     std::initializer_list<ExtraArg> extra)
{
    constexpr std::uint64_t kAny = UINT64_MAX;
    std::uint64_t profile_on = profile;
    std::uint64_t audit_on = audit;
    std::vector<ExtraArg> numbers{
        {"ops", &measureOps, 0, kAny},     {"warmup", &warmupOps, 0, kAny},
        {"seed", &seed, 0, kAny},          {"faultseed", &faultSeed, 0, kAny},
        {"profile", &profile_on, 0, kAny}, {"audit", &audit_on, 0, kAny}};
    numbers.insert(numbers.end(), extra);
    parseKeyValues(argc, argv, numbers,
                   {{"trace", &traceFlags}, {"tracefile", &traceFilePath},
                    {"faults", &faultSpec}, {"policy", &faultPolicy}},
                   scale);
    profile = profile_on != 0;
    audit = audit_on != 0;
    applyObservability();
    if (profile)
        std::atexit([] { prof::report(std::cout); });
}

void
parseKeyValues(
    int argc, char **argv, const std::vector<RunParams::ExtraArg> &numbers,
    const std::vector<std::pair<const char *, std::string *>> &strings,
    double &scale)
{
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        const char *eq = std::strchr(arg, '=');
        // A bare word matches no key.
        const std::string key = eq ? std::string(arg, eq) : "";
        const char *val = eq ? eq + 1 : "";
        const auto number =
            std::find_if(numbers.begin(), numbers.end(),
                         [&](const auto &n) { return key == n.key; });
        const auto text =
            std::find_if(strings.begin(), strings.end(),
                         [&](const auto &s) { return key == s.first; });
        bool ok = true;
        if (key == "scale") {
            ok = parseWhole(val, scale) && std::isfinite(scale) &&
                 scale > 0.0;
        } else if (number != numbers.end()) {
            ok = parseWhole(val, *number->value) &&
                 *number->value >= number->min &&
                 *number->value <= number->max;
        } else if (text != strings.end()) {
            *text->second = val;
        } else {
            std::fprintf(stderr, "%s: unknown argument '%s'\nknown: "
                         "scale=", argv[0], arg);
            for (const auto &n : numbers)
                std::fprintf(stderr, " %s=", n.key);
            for (const auto &s : strings)
                std::fprintf(stderr, " %s=", s.first);
            std::fprintf(stderr, "\n");
            std::exit(1);
        }
        if (!ok) {
            std::fprintf(stderr, "%s: bad value in '%s'\n", argv[0],
                         arg);
            std::exit(1);
        }
    }
}

void
RunParams::applyObservability() const
{
    // The user asked for these by name, so report problems straight
    // to stderr even under quiet logging (emvsim runs quiet).
    if (!traceFilePath.empty() &&
        !trace::openTraceFile(traceFilePath)) {
        std::fprintf(stderr,
                     "warning: cannot open trace file '%s'; "
                     "tracing to stderr\n", traceFilePath.c_str());
    }
    if (!traceFlags.empty() && !trace::setFlags(traceFlags)) {
        std::fprintf(stderr,
                     "warning: bad trace flags '%s'; known: %s "
                     "and All\n", traceFlags.c_str(),
                     trace::allFlagNames().c_str());
    }
    prof::setEnabled(profile);
    audit::setEnabled(audit);
}

MachineConfig
makeMachineConfig(const ConfigSpec &spec, const RunParams &params)
{
    MachineConfig cfg;
    cfg.mode = spec.mode;
    cfg.guestPageSize = spec.guestPageSize;
    cfg.vmmPageSize = spec.vmmPageSize;
    cfg.thp = spec.thp;
    cfg.shadowPaging = spec.shadow;
    cfg.seed = params.seed;
    cfg.badFrames = params.badFrames;
    cfg.badFrameSeed = params.badFrameSeed;
    if (!params.faultSpec.empty()) {
        auto plan = fault::FaultPlan::parse(params.faultSpec);
        emv_assert(plan.has_value(), "bad fault spec '%s'",
                   params.faultSpec.c_str());
        cfg.faultPlan = *plan;
    }
    auto policy = fault::faultPolicyByName(params.faultPolicy);
    emv_assert(policy.has_value(), "bad fault policy '%s'",
               params.faultPolicy.c_str());
    cfg.faultPolicy = *policy;
    cfg.faultSeed = params.faultSeed;
    return cfg;
}

CellResult
runCell(const Cell &cell)
{
    const RunParams &params = cell.params;
    CellResult result;
    result.workload = workload::workloadName(cell.kind);
    result.config = cell.label;
    const std::uint64_t checks0 = audit::checkCount();
    const std::uint64_t failures0 = audit::failureCount();
    const std::uint64_t mismatches0 = audit::mismatchCount();
    {
        std::unique_ptr<workload::Workload> wl;
        {
            prof::Scope gen_scope(prof::Phase::WorkloadGen);
            wl = workload::makeWorkload(cell.kind, params.seed,
                                        params.scale);
        }
        Machine machine(cell.config, *wl);
        machine.run(params.warmupOps);
        machine.resetStats();

        const auto t0 = std::chrono::steady_clock::now();
        result.run = machine.run(params.measureOps);
        result.hostNs = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count());
        result.measuredOps = params.measureOps;

        CounterCopy copy;
        for (const StatGroup *group : machine.statGroups())
            group->visit(copy);
        result.counters = std::move(copy.counters);
        std::ostringstream dump;
        machine.mmu().stats().dump(dump);
        result.mmuHash = 0xcbf29ce484222325ull;  // 64-bit FNV-1a
        for (const unsigned char c : dump.str())
            result.mmuHash = (result.mmuHash ^ c) * 0x100000001b3ull;
        if (const FaultReport *fault = machine.terminalFault())
            result.terminalFault = *fault;
    }
    result.auditChecks = audit::checkCount() - checks0;
    result.auditFailures = audit::failureCount() - failures0;
    result.auditMismatches = audit::mismatchCount() - mismatches0;
    return result;
}

unsigned
matrixJobs(unsigned jobs, std::size_t cells)
{
    if (!trace::enabledFlags().empty())
        return 1;
    const std::size_t most = std::max<std::size_t>(cells, 1);
    return static_cast<unsigned>(
        std::clamp<std::size_t>(jobs, 1, most));
}

std::vector<CellResult>
runMatrix(const std::vector<Cell> &cells, unsigned jobs)
{
    const unsigned n = matrixJobs(jobs, cells.size());
    std::vector<CellResult> results(cells.size());
    std::vector<std::exception_ptr> errors(n);
    std::atomic<std::size_t> next{0};
    // Each result slot is written by exactly one worker and read
    // only after the workers are joined, so the slots need no lock.
    // A worker that throws parks the exception, stops the others at
    // their next cell, and the first one is rethrown here.
    const auto work = [&](unsigned t) {
        try {
            for (std::size_t i = next.fetch_add(1); i < cells.size();
                 i = next.fetch_add(1)) {
                results[i] = runCell(cells[i]);
            }
        } catch (...) {
            errors[t] = std::current_exception();
            next.store(cells.size());
        }
    };
    {
        std::vector<std::jthread> workers;
        workers.reserve(n);
        for (unsigned t = 0; t < n; ++t)
            workers.emplace_back(work, t);
    } // jthread joins on destruction, exception paths included.
    for (const auto &error : errors) {
        if (error)
            std::rethrow_exception(error);
    }
    return results;
}

} // namespace emv::sim
