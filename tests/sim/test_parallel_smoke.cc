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
#include <vector>

#include "common/audit.hh"
#include "common/logging.hh"
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
        EXPECT_EQ(serial[i].config, cells[i].spec.label);
        EXPECT_EQ(parallel[i].workload, serial[i].workload);
        EXPECT_EQ(parallel[i].config, serial[i].config);
        EXPECT_EQ(parallel[i].measuredOps, serial[i].measuredOps);
        // Every RunResult field, doubles compared exactly.
        const RunResult &a = serial[i].run;
        const RunResult &b = parallel[i].run;
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

} // namespace
} // namespace emv::sim
