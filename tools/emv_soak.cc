/**
 * @file
 * emv_soak — randomized fault-injection soak harness.
 *
 * For every translation mode and a batch of seeds, generate a mixed
 * fault schedule (FaultPlan::random: DRAM faults, PTE corruptions,
 * request failures, slot revocations, the odd filter saturation),
 * replay it under policy=degrade with the differential auditor
 * enabled, and demand that every run completes with zero audit
 * mismatches.  The (config, seed) runs are sim::runMatrix cells on
 * one worker per hardware thread; each run's audit counts are its
 * own.  Exit 0 only when the whole matrix is clean.
 *
 * Usage:
 *   emv_soak [seeds=5] [ops=20000] [warmup=4000] [scale=0.05]
 */

#include <climits>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "fault/fault_plan.hh"
#include "sim/experiment.hh"
#include "workload/workload.hh"

using namespace emv;

namespace {

const char *const kConfigs[] = {"4K",    "DS",    "4K+4K",
                                "DD",    "4K+VD", "4K+GD"};

} // namespace

int
main(int argc, char **argv)
{
    setQuietLogging(true);

    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--help") == 0 ||
            std::strcmp(argv[i], "-h") == 0) {
            std::printf("usage: emv_soak [seeds=N] [ops=N] [warmup=N] "
                        "[scale=F]\nexit codes: 0 all runs clean, 1 "
                        "usage error or failing runs\n");
            return 0;
        }
    }
    sim::RunParams params;
    params.scale = 0.05;
    params.warmupOps = 4000;
    params.measureOps = 20000;
    params.audit = true;
    std::uint64_t seeds = 5;
    sim::parseKeyValues(argc, argv,
                        {{"seeds", &seeds, 1, UINT_MAX},
                         {"ops", &params.measureOps, 0, UINT64_MAX},
                         {"warmup", &params.warmupOps, 0, UINT64_MAX}},
                        {}, params.scale);
    const std::uint64_t ops = params.warmupOps + params.measureOps;
    if (ops < 100) {
        std::fprintf(stderr, "emv_soak: bad parameters\n");
        return 1;
    }
    params.applyObservability();

    // One cell per (config, seed), each with its own fault plan.
    std::vector<sim::Cell> cells;
    for (const char *label : kConfigs) {
        for (unsigned s = 0; s < seeds; ++s) {
            params.seed = 42 + s;
            cells.push_back({workload::WorkloadKind::Gups,
                             *sim::specFromLabel(label), params});
            cells.back().config.faultPlan = fault::FaultPlan::random(
                1000ull * (s + 1) + std::strlen(label), ops);
            cells.back().config.faultSeed = 100 + s;
        }
    }
    const auto results =
        sim::runMatrix(cells, std::thread::hardware_concurrency());

    std::printf("emv_soak: %zu configs x %u seeds, %llu+%llu ops, "
                "scale=%.3g\n\n",
                std::size(kConfigs), static_cast<unsigned>(seeds),
                static_cast<unsigned long long>(params.warmupOps),
                static_cast<unsigned long long>(params.measureOps),
                params.scale);
    std::printf("%-6s %-5s %-9s %-6s %-7s %-7s %s\n", "config",
                "seed", "done", "downgr", "mismat", "events",
                "plan");

    unsigned bad = 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const sim::CellResult &result = results[i];
        const std::uint64_t mismatches =
            result.auditMismatches + result.auditFailures;
        const bool ok = result.run.completed &&
                        !result.terminalFault && mismatches == 0;
        if (!ok)
            ++bad;

        const auto fault = [&result](const char *name) {
            return static_cast<unsigned long long>(
                result.counters.at(std::string("machine.fault.") +
                                   name));
        };
        std::printf("%-6s %-5u %-9s %-6llu %-7llu %-7llu %s\n",
                    result.config.c_str(),
                    static_cast<unsigned>(i % seeds),
                    ok ? "ok" : "FAIL", fault("downgrades"),
                    static_cast<unsigned long long>(mismatches),
                    fault("delivered_events"),
                    cells[i].config.faultPlan.toString().c_str());
        if (result.terminalFault) {
            std::printf("       terminal fault: %s\n",
                        result.terminalFault->reason.c_str());
        }
    }

    std::printf("\nemv_soak: %u failing runs\n", bad);
    return bad == 0 ? 0 : 1;
}
