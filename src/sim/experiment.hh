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

#include <charconv>
#include <cstddef>
#include <cstring>
#include <initializer_list>
#include <map>
#include <optional>
#include <string>
#include <utility>
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

    /** A number key (fig13's "trials", every number
     *  parseKeyValues() reads): an unsigned integer in [min, max],
     *  stored through @p value. */
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
     * @p extra, through parseKeyValues().  The observability options
     * are applied here (applyObservability()), and under profile=1
     * the phase table is printed to stdout when the process exits,
     * so no program that parses its arguments here can accept them
     * and do nothing.
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

/**
 * @p text, all of it, as a T: false on empty text, a sign where T is
 * unsigned, or anything left over ("3e6" is not an integer, "2x" is
 * not a number).  The number reader of parseKeyValues() and of every
 * tool that reads a number itself.
 */
template <typename T>
bool
parseWhole(const char *text, T &out)
{
    const char *end = text + std::strlen(text);
    const auto [ptr, ec] = std::from_chars(text, end, out);
    return ec == std::errc() && ptr == end;
}

/**
 * Parse "key=value" argv against @p numbers, @p strings and
 * "scale=".  A number must be the whole value ("ops=3e6" is not an
 * integer) within its [min, max], and scale= finite and positive.
 * An unknown key or a bad value is a usage error: it is reported on
 * stderr (quiet logging would swallow a warning) and the process
 * exits with status 1.  The one argument parser of the benches,
 * emvsim and emv_soak.
 */
void parseKeyValues(
    int argc, char **argv,
    const std::vector<RunParams::ExtraArg> &numbers,
    const std::vector<std::pair<const char *, std::string *>> &strings,
    double &scale);

/** Build a MachineConfig for a bar. */
MachineConfig makeMachineConfig(const ConfigSpec &spec,
                                const RunParams &params);

/**
 * One cell of a sweep.  params supplies the workload seed and scale
 * and the warmup and measure op counts; config is the machine, used
 * as given.
 */
struct Cell
{
    /** A bar: config = makeMachineConfig(spec, params), labelled
     *  spec.label.  An experiment that changes a machine field edits
     *  config afterwards. */
    Cell(workload::WorkloadKind kind, const ConfigSpec &spec,
         const RunParams &params)
        : Cell(kind, spec.label, makeMachineConfig(spec, params), params)
    {}
    Cell(workload::WorkloadKind kind, std::string label,
         MachineConfig config, RunParams params)
        : kind(kind), label(std::move(label)), config(std::move(config)),
          params(std::move(params))
    {}

    workload::WorkloadKind kind;
    std::string label;  //!< The CellResult's config name.
    MachineConfig config;
    RunParams params;
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

    /** Every counter of Machine::statGroups() after the measure
     * phase, by its emv-stats-v1 dotted name ("machine.mmu.walks",
     * as emvsim statsjson= writes it).  Only the MMU's were reset
     * before the measure phase. */
    std::map<std::string, std::uint64_t> counters;

    /** 64-bit FNV-1a of the MMU stat dump after the measure phase
     *  (the text perfbench's fingerprint hashes). */
    std::uint64_t mmuHash = 0;

    /** The unrecoverable fault that ended the run, if one did. */
    std::optional<FaultReport> terminalFault;

    /** The paper's y-axis: execution-time overhead vs T_2Mideal. */
    double overhead() const { return run.totalOverhead(); }
};

/** Run one cell: build its workload and Machine, warm up for
 *  params.warmupOps, reset the stats, measure params.measureOps. */
CellResult runCell(const Cell &cell);

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

