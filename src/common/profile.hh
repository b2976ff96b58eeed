/**
 * @file
 * Lightweight simulator self-profiling.
 *
 * The ROADMAP's "fast as the hardware allows" goal needs visibility
 * into the simulator's own hot paths, not just the modeled cycles.
 * Phases are a fixed enum so the hot-path bookkeeping is two array
 * adds; prof::Scope is an RAII timer that reads the clock only when
 * profiling was enabled (one branch otherwise, so `profile=0` runs
 * are unaffected).  report() prints calls / total ms / ns per call
 * for every phase that ran.
 *
 * The records are process-wide, so a phase's totals are summed over
 * every thread that ran it: under sim::runMatrix() with several
 * workers, machine_build's total ms sums the workers' times and
 * can exceed the sweep's wall time.
 */

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <ostream>

namespace emv::prof {

/** Instrumented simulator phases. */
enum class Phase : unsigned {
    WorkloadGen,    //!< Workload construction / trace generation.
    MachineBuild,   //!< Machine assembly (OS, VMM, tables, segments).
    Translate,      //!< Mmu::translate calls from the run loop.
    Remap,          //!< Run-time unmap + populate of a remap op.
    FaultService,   //!< Guest/nested fault handling.
    Balloon,        //!< Balloon inflate / self-balloon.
    Compaction,     //!< Compaction free-run creation.
    Fragmentation,  //!< Fragmenter passes.
    StatsExport,    //!< Stat dump / JSON export.
    NumPhases,
};

namespace detail {

/** Plain (calls, ns) snapshot returned to callers. */
struct PhaseRecord
{
    std::uint64_t calls = 0;
    std::uint64_t ns = 0;
};

/** Live accumulator: lock-free relaxed adds from any thread.  The
 *  two fields are independently atomic, so a concurrent reader may
 *  see calls/ns from different instants — fine for a profile. */
struct AtomicPhaseRecord
{
    std::atomic<std::uint64_t> calls{0};
    std::atomic<std::uint64_t> ns{0};
};

extern std::atomic<bool> enabledFlag;
extern AtomicPhaseRecord
    records[static_cast<unsigned>(Phase::NumPhases)];

} // namespace detail

/** Globally enable/disable phase timing (off by default). */
void setEnabled(bool on);
inline bool
enabled()
{
    return detail::enabledFlag.load(std::memory_order_relaxed);
}

/** Zero all phase records. */
void reset();

/** Printable phase name ("translate", ...). */
const char *phaseName(Phase phase);

/** Accumulated (calls, ns) for @p phase. */
detail::PhaseRecord phaseRecord(Phase phase);

/**
 * Print the summary table (phase, calls, total ms, ns/call) for all
 * phases with at least one call; prints a note when profiling never
 * ran.
 */
void report(std::ostream &os);

/** RAII phase timer; no-op (one branch) when profiling is off. */
class Scope
{
  public:
    explicit Scope(Phase phase) : phase(phase)
    {
        if (enabled())
            start = std::chrono::steady_clock::now();
    }

    ~Scope()
    {
        if (!enabled())
            return;
        const auto stop = std::chrono::steady_clock::now();
        auto &rec = detail::records[static_cast<unsigned>(phase)];
        rec.calls.fetch_add(1, std::memory_order_relaxed);
        rec.ns.fetch_add(
            static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    stop - start)
                    .count()),
            std::memory_order_relaxed);
    }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Phase phase;
    std::chrono::steady_clock::time_point start;
};

} // namespace emv::prof

