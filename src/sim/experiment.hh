/**
 * @file
 * Experiment descriptors: the paper's configuration bars and the
 * machinery to run (workload, configuration) cells, one at a time
 * (runCell) or a whole sweep on worker threads (runMatrix).
 *
 * Labels follow the paper's figures: "4K" / "2M" / "1G" are native
 * page sizes; "A+B" is guest size A with VMM size B; "THP" enables
 * transparent huge pages; "DS" is the unvirtualized direct
 * segment; "DD", "4K+VD", "4K+GD" are the proposed modes; "sh4K"
 * and "sh2M" are shadow paging.
 */

#pragma once

#include <cstddef>
#include <initializer_list>
#include <optional>
#include <string>
#include <vector>

#include "sim/machine.hh"
#include "workload/workload.hh"

namespace emv::sim {

/** One bar of a figure. */
struct ConfigSpec
{
    std::string label;
    core::Mode mode = core::Mode::Native;
    PageSize guestPageSize = PageSize::Size4K;
    PageSize vmmPageSize = PageSize::Size4K;
    bool thp = false;
    bool shadow = false;
};

/** Parse a label like "4K+2M", "DD", "THP", "sh4K". */
std::optional<ConfigSpec> specFromLabel(const std::string &label);

/** Fig. 11 bars (big-memory workloads). */
std::vector<ConfigSpec> figure11Configs();

/** Fig. 12 bars (compute workloads). */
std::vector<ConfigSpec> figure12Configs();

/** Fig. 1 preview bars. */
std::vector<ConfigSpec> figure1Configs();

/** Common run parameters. */
struct RunParams
{
    std::uint64_t warmupOps = 1000000;
    std::uint64_t measureOps = 3000000;
    double scale = 1.0;           //!< Workload footprint scale.
    std::uint64_t seed = 42;
    unsigned badFrames = 0;       //!< Hard faults (Fig. 13).
    std::uint64_t badFrameSeed = 99;

    // Fault injection (see fault/fault_plan.hh).
    std::string faultSpec;        //!< Plan, e.g. "dram@5000x8".
    std::string faultPolicy = "degrade";  //!< Or "failfast".
    std::uint64_t faultSeed = 7;  //!< Victim-selection seed.

    // Observability (see common/trace.hh, common/profile.hh).
    std::string traceFlags;       //!< CSV of flags, e.g. "Tlb,Walk".
    std::string traceFilePath;    //!< Trace sink file ("" = stderr).
    bool profile = false;         //!< Collect phase timings.
    bool audit = false;           //!< Differential audit (audit.hh).

    /** A key one program reads itself (fig13's "trials"): an
     *  unsigned integer in [min, max], stored through @p value. */
    struct ExtraArg
    {
        const char *key;
        std::uint64_t *value;
        std::uint64_t min;
        std::uint64_t max;
    };

    /**
     * Parse "scale=0.25 ops=1000000 warmup=100000 trace=Tlb,Walk
     * tracefile=t.log profile=1" style argv, plus the keys in
     * @p extra.  A number must be the whole value ("ops=3e6" is not
     * an integer) and scale= finite and positive.  An unknown key or
     * a bad value is a usage error: it is reported on stderr (quiet
     * logging would swallow a warning) and the process exits with
     * status 1.  The observability options are applied here
     * (applyObservability()), and under profile=1 the phase table is
     * printed to stdout when the process exits, so no program that
     * parses its arguments here can accept them and do nothing.
     */
    void parseArgs(int argc, char **argv,
                   std::initializer_list<ExtraArg> extra = {});

    /**
     * Push the trace/profile/audit options into the global
     * facilities, before building machines.  parseArgs() calls it;
     * programs with their own parser call it themselves.
     */
    void applyObservability() const;
};

/** One measured cell. */
struct CellResult
{
    std::string workload;
    std::string config;
    RunResult run;

    /** @{ Wall-clock throughput of the measure phase (how fast the
     * simulator itself ran, as opposed to the modeled cycles). */
    std::uint64_t measuredOps = 0;  //!< Trace ops measured.
    std::uint64_t hostNs = 0;       //!< Host wall time of those ops.
    /** @} */

    /** @{ This cell's audit checks, failures and mismatches: the
     * change in its thread's audit counts while it ran (zero unless
     * auditing is enabled). */
    std::uint64_t auditChecks = 0;
    std::uint64_t auditFailures = 0;
    std::uint64_t auditMismatches = 0;
    /** @} */

    /** The paper's y-axis: execution-time overhead vs T_2Mideal. */
    double overhead() const { return run.totalOverhead(); }
};

/** Build a MachineConfig for a bar. */
MachineConfig makeMachineConfig(const ConfigSpec &spec,
                                const RunParams &params);

/** Run one (workload, config) cell: build, warm up, measure. */
CellResult runCell(workload::WorkloadKind kind,
                   const ConfigSpec &spec, const RunParams &params);

/** One cell of a sweep, with its own parameters (fig13's trials
 *  differ only in badFrames / faultSpec and their seeds). */
struct Cell
{
    workload::WorkloadKind kind;
    ConfigSpec spec;
    RunParams params;
};

/**
 * Worker threads runMatrix() uses for @p cells cells when asked for
 * @p jobs: at least 1, at most one per cell, and 1 while any trace
 * flag is set (trace records carry no cell id, so they stay in cell
 * order).
 */
unsigned matrixJobs(unsigned jobs, std::size_t cells);

/**
 * Run every cell through runCell() on matrixJobs(jobs) worker
 * threads, which take the next cell index from one atomic counter;
 * each Machine is built, run and destroyed on its worker (DESIGN.md
 * §12).  Results come back in cell order and do not depend on
 * @p jobs.  The calling thread's audit counts are left untouched:
 * each cell's own counts are in its CellResult.
 */
std::vector<CellResult> runMatrix(const std::vector<Cell> &cells,
                                  unsigned jobs);

} // namespace emv::sim

