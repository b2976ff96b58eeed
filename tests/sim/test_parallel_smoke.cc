/**
 * @file
 * In-process parallel smoke over sim::runMatrix: worker threads each
 * build, run and destroy independent Machines, with their stat groups
 * and their thread's audit counts, and the results must not depend on
 * how many workers ran them.  This is the one-machine-per-worker
 * contract of DESIGN.md §12; run it under the tsan preset to turn the
 * contract into a checked property.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/audit.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "fault/fault_plan.hh"
#include "sim/experiment.hh"

namespace emv::sim {
namespace {

using workload::WorkloadKind;

RunParams
smokeParams()
{
    RunParams params;
    params.scale = 0.02;
    params.warmupOps = 4000;
    params.measureOps = 16000;
    return params;
}

void
expectSameRun(const RunResult &a, const RunResult &b)
{
    // Every RunResult field, doubles compared exactly.
    EXPECT_EQ(a.accessOps, b.accessOps);
    EXPECT_EQ(a.remapOps, b.remapOps);
    EXPECT_EQ(a.baseCycles, b.baseCycles);
    EXPECT_EQ(a.translationCycles, b.translationCycles);
    EXPECT_EQ(a.faultCycles, b.faultCycles);
    EXPECT_EQ(a.vmExitCycles, b.vmExitCycles);
    EXPECT_EQ(a.shootdownCycles, b.shootdownCycles);
    EXPECT_EQ(a.l1Misses, b.l1Misses);
    EXPECT_EQ(a.l2Misses, b.l2Misses);
    EXPECT_EQ(a.walks, b.walks);
    EXPECT_EQ(a.guestFaults, b.guestFaults);
    EXPECT_EQ(a.ddFastHits, b.ddFastHits);
    EXPECT_EQ(a.dsFastHits, b.dsFastHits);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.cyclesPerWalk, b.cyclesPerWalk);
    EXPECT_EQ(a.fractionBoth, b.fractionBoth);
    EXPECT_EQ(a.fractionVmmOnly, b.fractionVmmOnly);
    EXPECT_EQ(a.fractionGuestOnly, b.fractionGuestOnly);
}

TEST(ParallelSmoke, MatrixResultsIndependentOfJobs)
{
    setQuietLogging(true);

    // A memcached cell first: it is the slowest to build, so with
    // four workers the later cells finish before it does.
    std::vector<Cell> cells;
    for (auto kind : {WorkloadKind::Memcached, WorkloadKind::Gups}) {
        for (const char *label : {"4K", "4K+4K", "4K+2M", "DD",
                                  "4K+VD", "4K+GD", "sh4K", "DS"}) {
            RunParams params = smokeParams();
            if (std::strcmp(label, "DS") == 0)
                params.badFrames = 16;
            cells.push_back({kind, *specFromLabel(label), params});
        }
    }

    const auto serial = runMatrix(cells, 1);
    const auto parallel = runMatrix(cells, 4);
    ASSERT_EQ(serial.size(), cells.size());
    ASSERT_EQ(parallel.size(), cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        SCOPED_TRACE(serial[i].workload + " " + serial[i].config);
        EXPECT_EQ(serial[i].workload,
                  workload::workloadName(cells[i].kind));
        EXPECT_EQ(serial[i].config, cells[i].label);
        EXPECT_EQ(parallel[i].workload, serial[i].workload);
        EXPECT_EQ(parallel[i].config, serial[i].config);
        EXPECT_EQ(parallel[i].measuredOps, serial[i].measuredOps);
        const RunResult &a = serial[i].run;
        expectSameRun(a, parallel[i].run);
        EXPECT_EQ(a.accessOps, smokeParams().measureOps);
        EXPECT_GT(a.baseCycles, 0.0);
    }
}

TEST(ParallelSmoke, AuditCountsPerCellUnderConcurrentMachines)
{
    setQuietLogging(true);
    audit::resetCounters();
    audit::setEnabled(true);

    const std::vector<Cell> cells(
        4, Cell{WorkloadKind::Gups, *specFromLabel("DD"),
                smokeParams()});
    const auto results = runMatrix(cells, 4);
    audit::setEnabled(false);

    // Each cell's checks landed in its worker's counts, with no lock
    // between the workers, and came back in its CellResult.
    ASSERT_EQ(results.size(), cells.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_GT(results[i].auditChecks, 0u) << "cell " << i;
        EXPECT_EQ(results[i].auditFailures, 0u) << "cell " << i;
        EXPECT_EQ(results[i].auditMismatches, 0u) << "cell " << i;
    }
    // None of them reached the calling thread's counts.
    EXPECT_EQ(audit::checkCount(), 0u);
}

/** The counters a hand-built machine's stat groups hold, by dotted
 *  name, and the FNV-1a of its MMU stat dump: what runCell copies. */
class CounterMap : public StatVisitor
{
  public:
    std::map<std::string, std::uint64_t> values;

    void
    visitCounter(const StatGroup &group, const std::string &name,
                 const Counter &counter) override
    {
        values[group.fullName() + "." + name] = counter.value();
    }
    void visitScalar(const StatGroup &, const std::string &,
                     const Scalar &) override {}
    void visitDistribution(const StatGroup &, const std::string &,
                           const Distribution &) override {}
};

TEST(ParallelSmoke, EditedConfigCellMatchesHandBuiltMachine)
{
    setQuietLogging(true);
    audit::resetCounters();
    audit::setEnabled(true);

    std::vector<Cell> cells;
    const auto edited = [&](const char *label, const RunParams &params,
                            auto edit) {
        Cell cell(WorkloadKind::Gups, *specFromLabel(label), params);
        edit(cell.config);
        cells.push_back(std::move(cell));
    };
    edited("4K+4K", smokeParams(), [](MachineConfig &cfg) {
        cfg.mmu.walkCachesEnabled = false;
    });
    edited("4K+4K", smokeParams(), [](MachineConfig &cfg) {
        cfg.mmu.nestedTlbShared = false;
    });
    RunParams faulty = smokeParams();
    faulty.badFrames = 16;
    edited("DD", faulty, [](MachineConfig &cfg) {
        cfg.mmu.filterBits = 128;
        cfg.mmu.filterHashes = 2;
    });
    edited("DD", smokeParams(), [](MachineConfig &cfg) {
        cfg.faultPlan = *fault::FaultPlan::parse("dram@5000x8");
        cfg.faultSeed = 101;
    });
    edited("DD", smokeParams(), [](MachineConfig &cfg) {
        cfg.faultPlan = *fault::FaultPlan::parse("dram@8000");
        cfg.faultPolicy = fault::FaultPolicy::FailFast;
    });

    const auto serial = runMatrix(cells, 1);
    const auto parallel = runMatrix(cells, 4);
    ASSERT_EQ(serial.size(), cells.size());
    ASSERT_EQ(parallel.size(), cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        SCOPED_TRACE("cell " + std::to_string(i));
        const Cell &cell = cells[i];
        const RunParams &params = cell.params;
        const std::uint64_t checks0 = audit::checkCount();
        const std::uint64_t failures0 = audit::failureCount();
        const std::uint64_t mismatches0 = audit::mismatchCount();
        RunResult run;
        CounterMap counters;
        std::uint64_t hash = 0xcbf29ce484222325ull;
        std::optional<FaultReport> fault;
        {
            auto wl = workload::makeWorkload(cell.kind, params.seed,
                                             params.scale);
            Machine machine(cell.config, *wl);
            machine.run(params.warmupOps);
            machine.resetStats();
            run = machine.run(params.measureOps);
            for (const StatGroup *group : machine.statGroups())
                group->visit(counters);
            std::ostringstream dump;
            machine.mmu().stats().dump(dump);
            for (const unsigned char c : dump.str())
                hash = (hash ^ c) * 0x100000001b3ull;
            if (machine.terminalFault())
                fault = *machine.terminalFault();
        }
        // runCell's audit counts include the machine's teardown.
        const std::uint64_t checks = audit::checkCount() - checks0;
        const std::uint64_t failures = audit::failureCount() - failures0;
        const std::uint64_t mismatches =
            audit::mismatchCount() - mismatches0;

        for (const CellResult *result : {&serial[i], &parallel[i]}) {
            EXPECT_EQ(result->config, cell.label);
            expectSameRun(result->run, run);
            EXPECT_EQ(result->counters, counters.values);
            EXPECT_EQ(result->mmuHash, hash);
            EXPECT_EQ(result->auditChecks, checks);
            EXPECT_EQ(result->auditFailures, failures);
            EXPECT_EQ(result->auditMismatches, mismatches);
            ASSERT_EQ(result->terminalFault.has_value(),
                      fault.has_value());
            if (fault) {
                EXPECT_EQ(result->terminalFault->reason,
                          fault->reason);
            }
        }
        EXPECT_GT(counters.values.at("machine.mmu.accesses"), 0u);
    }
    audit::setEnabled(false);

    // The edits reached the machines: the failfast cell ended on its
    // fault, and the degrade cell's events were delivered.
    EXPECT_TRUE(serial[4].terminalFault.has_value());
    EXPECT_FALSE(serial[4].run.completed);
    EXPECT_GT(serial[3].counters.at("machine.fault.delivered_events"), 0u);
    EXPECT_GT(serial[0].counters.at("machine.mmu.walks"), 0u);
    EXPECT_GT(serial[0].auditChecks, 0u);
}

} // namespace
} // namespace emv::sim
