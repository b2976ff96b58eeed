/**
 * @file
 * Whole-run checkpointing for emvsim-style drivers.
 *
 * A run checkpoint is an emv-ckpt-v1 container holding
 *
 *   "params"  — how to rebuild the run: workload, configuration
 *               label, scale, seeds, fault plan, and how far the
 *               run had progressed (warmup / measured op counts);
 *   "audit"   — the saving thread's machine.audit counters;
 *   "telemetry" (optional) — the TelemetryRecorder's window cursor
 *               and per-source baselines, present only when the run
 *               had a metrics sink attached;
 *   the Machine's per-layer chunks (see Machine::serialize).
 *
 * Restore is construct-then-overwrite: the driver rebuilds the
 * workload and Machine from the params chunk exactly as a fresh run
 * would, then loads every mutable layer on top.  Because the
 * RNG streams, stat registries and cycle pools are restored
 * bit-exactly, a resumed run finishes with output identical to the
 * uninterrupted run.
 */

#pragma once

#include <cstdint>
#include <string>

#include "common/ckpt.hh"
#include "common/telemetry.hh"
#include "sim/machine.hh"

namespace emv::sim {

/** Everything needed to rebuild and resume a run. */
struct CheckpointMeta
{
    /** @{ Identity: the run's full configuration. */
    std::string workload = "gups";
    std::string configLabel = "4K+4K";
    double scale = 1.0;
    std::uint64_t seed = 42;
    std::uint64_t warmupOps = 0;
    std::uint64_t measureOps = 0;
    unsigned badFrames = 0;
    std::uint64_t badFrameSeed = 99;
    std::string faultSpec;
    std::string faultPolicy = "degrade";
    std::uint64_t faultSeed = 7;
    Addr fragGuestBytes = 0;  //!< 0 = no guest fragmentation.
    Addr fragHostBytes = 0;   //!< 0 = no host fragmentation.
    bool audit = false;
    /** @} */

    /** @{ Progress at checkpoint time. */
    std::uint64_t warmupDone = 0;   //!< Warmup ops completed.
    std::uint64_t measuredOps = 0;  //!< Measure ops completed.
    /** @} */

    /** The "params" chunk, behind its own layout version. */
    template <class Ar>
    void persist(Ar &ar);
};

/** A parsed and CRC-validated checkpoint plus its decoded meta. */
struct LoadedCheckpoint
{
    ckpt::Reader reader;
    CheckpointMeta meta;
};

/**
 * Atomically write meta + audit counters + every machine layer to
 * @p path.  When @p recorder is non-null its window cursor and
 * baselines are saved in a "telemetry" chunk so a resumed run
 * continues at the next window index.  False (with @p error set) on
 * any I/O failure; an existing file at @p path survives a failed
 * write intact.
 */
bool saveCheckpoint(const std::string &path,
                    const CheckpointMeta &meta, const Machine &machine,
                    std::string &error,
                    const telemetry::TelemetryRecorder *recorder =
                        nullptr);

/**
 * Read, parse and fully validate @p path (magic, version, framing,
 * CRCs) and decode its params chunk.  All failures are structured:
 * false with @p error explaining the defect.
 */
bool loadCheckpoint(const std::string &path, LoadedCheckpoint &out,
                    std::string &error);

/**
 * Overwrite @p machine's mutable state (and the global audit
 * counters) from a loaded checkpoint.  The machine must have been
 * built from the checkpoint's own params; geometry or configuration
 * mismatches fail with a structured @p error.
 */
bool restoreMachine(const LoadedCheckpoint &file, Machine &machine,
                    std::string &error);

/**
 * Restore @p recorder's window cursor and baselines from the
 * checkpoint's "telemetry" chunk, if one is present.  The recorder
 * must already be attached to the rebuilt machine (same sources, in
 * the same order) and configured with the same window size.  A
 * checkpoint without the chunk (run saved with no metrics sink) is
 * not an error: the recorder is left at window 0.
 */
bool restoreTelemetry(const LoadedCheckpoint &file,
                      telemetry::TelemetryRecorder &recorder,
                      std::string &error);

} // namespace emv::sim
