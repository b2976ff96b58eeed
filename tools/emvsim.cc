/**
 * @file
 * emvsim — command-line driver for one (workload, configuration)
 * cell, with full statistics dump and crash-safe checkpointing.
 *
 * Usage:
 *   emvsim [workload=gups] [config=4K+4K] [scale=0.25]
 *          [ops=1000000] [warmup=200000] [seed=42] [badframes=0]
 *          [fragguest=0] [fraghost=0] [stats=1]
 *          [statsjson=stats.json] [metrics=out.jsonl]
 *          [window=100000] [trace=Tlb,Walk]
 *          [tracefile=trace.log] [profile=1] [audit=1]
 *          [faults=dram@5000x8] [policy=degrade] [faultseed=7]
 *          [ckpt=run.ckpt] [ckptevery=100000] [resume=run.ckpt]
 *          [stopafter=N] [crashafter=N]
 *
 * Arguments are strictly validated (sim::parseKeyValues): anything
 * that is not a known `key=value` pair (a typo like
 * `tracefil=t.log`, a bare word, an unknown key) is a usage error,
 * and so is a number with text left over (`ops=3e6`) or out of range
 * (`scale=0`).  `--help` lists every knob.
 *
 * `config` accepts the paper's labels: 4K 2M 1G THP, A+B combos,
 * DS DD 4K+VD 4K+GD 2M+VD THP+VD sh4K sh2M ...
 * `fragguest`/`fraghost` set the max free-run size in MB (0 = no
 * fragmentation).
 *
 * Checkpoint / resume (emv-ckpt-v1; see DESIGN.md §10):
 *   ckpt=PATH        write checkpoints to PATH (atomic write+rename;
 *                    a crash mid-write never destroys the last good
 *                    file).  Written every `ckptevery` ops, on
 *                    SIGTERM/SIGINT, and at normal completion.
 *   ckptevery=N      periodic checkpoint interval in trace ops
 *                    (warmup + measured; requires ckpt=).
 *   resume=PATH      restore a checkpointed run and continue it.
 *                    The run's identity (workload, config, seeds,
 *                    fault plan, op counts) comes from the
 *                    checkpoint; only observability and checkpoint
 *                    knobs may be combined with resume=.  A resumed
 *                    run finishes with stats output bit-identical
 *                    to the uninterrupted run.
 *
 * Test knobs (deterministic interruption points, in total trace
 * ops; fresh runs only — they cannot be combined with resume=):
 *   stopafter=N      stop at op N exactly as if SIGTERM had arrived:
 *                    flush a final checkpoint (when ckpt= is set)
 *                    and exit 3.
 *   crashafter=N     raise SIGKILL at op N (simulated hard crash).
 *
 * Exit codes:
 *   0  run completed; no audit mismatches.
 *   1  usage error, audit mismatch, or unreadable/corrupt
 *      checkpoint (structured message on stderr).
 *   2  terminal fault ended the run (structured report printed).
 *   3  interrupted (signal or stopafter); when ckpt= was set, a
 *      final checkpoint was flushed and the run can be resumed.
 *
 * Observability:
 *   statsjson=PATH   dump the machine's stat groups (plus
 *                    machine.audit under audit=1) as emv-stats-v1
 *                    JSON.
 *   metrics=PATH     stream emv-metrics-v1 windowed snapshots (one
 *                    JSON object per line) to PATH over the measured
 *                    interval: per-window counter deltas, wall-clock
 *                    ops/sec, latency percentiles (p50/p99/p999),
 *                    escape-filter fill, mode transitions and fault
 *                    events.  The file is truncated at open; each
 *                    line is written atomically so `emv_top` can
 *                    tail it live.  Works with resume=: a resumed
 *                    run restores its window cursor from the
 *                    checkpoint and continues at the next window.
 *   window=N         telemetry window size in measured trace ops
 *                    (default 100000; requires metrics=).
 *   trace=FLAGS      comma-separated debug-trace flags (Tlb, Walk,
 *                    Segment, Filter, Balloon, Compaction, Vmm,
 *                    Hotplug, Fault, or All).
 *   tracefile=PATH   send trace records to PATH instead of stderr.
 *   profile=1        print a phase-timing summary (RAII timers),
 *                    the host memory's resident and stored frames
 *                    and the process's peak RSS.
 *   audit=1          enable runtime invariants plus the differential
 *                    auditor: every MMU translation is re-derived
 *                    through the reference 2D nested walk and
 *                    compared.  Results appear as machine.audit.*
 *                    stats; any mismatch makes emvsim exit 1.
 *
 * Fault injection:
 *   faults=SPEC      schedule of mid-run faults at trace-op
 *                    granularity: "kind@op[xCOUNT],..." with kinds
 *                    dram guestpte nestedpte filtersat balloonfail
 *                    hotplugfail compactfail slotrevoke.
 *   policy=POLICY    degrade (recover: offline frames, retry with
 *                    backoff, downgrade modes along Table III) or
 *                    failfast (first hardware fault ends the run
 *                    with a structured report and exit code 2).
 *   faultseed=N      seed for victim selection and filter noise.
 */

#include <atomic>
#include <climits>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include <sys/resource.h>

#include "common/audit.hh"
#include "common/logging.hh"
#include "common/profile.hh"
#include "common/telemetry.hh"
#include "fault/fault_plan.hh"
#include "sim/checkpoint.hh"
#include "sim/experiment.hh"
#include "sim/report.hh"

using namespace emv;

namespace {

/** Largest run() slice between interruption checks. */
constexpr std::uint64_t kSubChunkOps = 65536;

/** Exit codes (documented above and in README.md). */
enum ExitCode : int {
    kExitOk = 0,
    kExitUsageOrAudit = 1,
    kExitTerminalFault = 2,
    kExitInterrupted = 3,
};

/** Every accepted key=value knob, with its help line. */
struct Knob
{
    const char *key;
    const char *help;
};

constexpr Knob kKnobs[] = {
    {"workload", "gups graph500 memcached npb:cg cactusADM GemsFDTD "
                 "mcf omnetpp canneal streamcluster (default gups)"},
    {"config", "paper label: 4K 2M 1G THP A+B DS DD 4K+VD 4K+GD "
               "sh4K sh2M ... (default 4K+4K)"},
    {"scale", "workload footprint scale (default 0.25)"},
    {"ops", "measured trace ops (default 1000000)"},
    {"warmup", "warmup trace ops (default 200000)"},
    {"seed", "workload / machine seed (default 42)"},
    {"badframes", "boot-time hard faults in the segment backing "
                  "(Fig. 13; default 0)"},
    {"fragguest", "guest fragmentation: max free-run MB (0 = off)"},
    {"fraghost", "host fragmentation: max free-run MB (0 = off)"},
    {"stats", "print counter dumps (default 1)"},
    {"statsjson", "dump the machine's stat groups as emv-stats-v1 "
                  "JSON"},
    {"metrics", "stream emv-metrics-v1 windowed snapshots to this "
                "JSONL path (tail with emv_top)"},
    {"window", "telemetry window size in measured trace ops "
               "(default 100000; requires metrics=)"},
    {"trace", "debug-trace flags, e.g. Tlb,Walk or All"},
    {"tracefile", "send trace records to this file"},
    {"profile", "print phase timings, host frames and peak RSS "
                "(default 0)"},
    {"audit", "differential audit; mismatches exit 1 (default 0)"},
    {"faults", "mid-run fault schedule, e.g. "
               "dram@5000x8,balloonfail@7000,filtersat@9000"},
    {"policy", "fault policy: degrade (default) or failfast"},
    {"faultseed", "fault victim-selection seed (default 7)"},
    {"ckpt", "write emv-ckpt-v1 checkpoints to this path (atomic "
             "write+rename; also flushed on SIGTERM/SIGINT)"},
    {"ckptevery", "periodic checkpoint interval in trace ops "
                  "(requires ckpt=)"},
    {"resume", "restore a checkpoint and continue the run (run "
               "identity comes from the checkpoint)"},
    {"stopafter", "stop at trace op N as if SIGTERM arrived: flush "
                  "checkpoint, exit 3 (test knob)"},
    {"crashafter", "raise SIGKILL at trace op N (test knob)"},
};

/** Identity knobs come from the checkpoint on resume. */
constexpr const char *kIdentityKeys[] = {
    "workload", "config",    "scale",     "ops",
    "warmup",   "seed",      "badframes", "fragguest",
    "fraghost", "faults",    "policy",    "faultseed",
    "audit",    "stopafter", "crashafter",
};

void
printUsage(std::FILE *out)
{
    std::fprintf(out, "usage: emvsim [key=value]...\n\n");
    for (const auto &knob : kKnobs)
        std::fprintf(out, "  %-10s %s\n", knob.key, knob.help);
    std::fprintf(out,
                 "\nexit codes:\n"
                 "  0  run completed; no audit mismatches\n"
                 "  1  usage error, audit mismatch, or corrupt "
                 "checkpoint\n"
                 "  2  terminal fault ended the run\n"
                 "  3  interrupted (signal or stopafter); "
                 "checkpoint flushed when ckpt= is set\n");
}

const char *
argValue(int argc, char **argv, const char *key)
{
    const std::size_t len = std::strlen(key);
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], key, len) == 0 &&
            argv[i][len] == '=') {
            return argv[i] + len + 1;
        }
    }
    return nullptr;
}

std::optional<workload::WorkloadKind>
workloadByName(const std::string &name)
{
    using workload::WorkloadKind;
    for (auto kind :
         {WorkloadKind::Gups, WorkloadKind::Graph500,
          WorkloadKind::Memcached, WorkloadKind::NpbCg,
          WorkloadKind::CactusADM, WorkloadKind::GemsFDTD,
          WorkloadKind::Mcf, WorkloadKind::Omnetpp,
          WorkloadKind::Canneal, WorkloadKind::Streamcluster}) {
        if (name == workload::workloadName(kind))
            return kind;
    }
    return std::nullopt;
}

// A lock-free atomic store is async-signal safe.
std::atomic<int> gStopRequested{0};

void
onStopSignal(int)
{
    gStopRequested.store(1, std::memory_order_relaxed);
}

bool
stopRequested()
{
    return gStopRequested.load(std::memory_order_relaxed) != 0;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuietLogging(true);

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h" || arg == "help") {
            printUsage(stdout);
            return kExitOk;
        }
    }
    // Every knob, parsed whole (sim::parseKeyValues; "ops=3e6" or a
    // typo'd key is a usage error, exit 1).
    sim::CheckpointMeta meta;
    meta.scale = 0.25;
    meta.warmupOps = 200000;
    meta.measureOps = 1000000;
    sim::RunParams params;
    std::string resume_path, stats_json, ckpt_path, metrics_path;
    std::uint64_t bad_frames = 0, frag_guest_mb = 0, frag_host_mb = 0;
    std::uint64_t audit_on = 0, profile_on = 0, stats_on = 1;
    std::uint64_t ckpt_every = 0, stop_after = 0, crash_after = 0;
    std::uint64_t window_ops = 100000;
    constexpr std::uint64_t kAny = UINT64_MAX;
    sim::parseKeyValues(
        argc, argv,
        {{"ops", &meta.measureOps, 0, kAny},
         {"warmup", &meta.warmupOps, 0, kAny}, {"seed", &meta.seed, 0, kAny},
         {"badframes", &bad_frames, 0, UINT_MAX},
         {"fragguest", &frag_guest_mb, 0, kAny / MiB},
         {"fraghost", &frag_host_mb, 0, kAny / MiB},
         {"stats", &stats_on, 0, kAny}, {"window", &window_ops, 1, kAny},
         {"profile", &profile_on, 0, kAny}, {"audit", &audit_on, 0, kAny},
         {"faultseed", &meta.faultSeed, 0, kAny},
         {"ckptevery", &ckpt_every, 0, kAny},
         {"stopafter", &stop_after, 0, kAny},
         {"crashafter", &crash_after, 0, kAny}},
        {{"workload", &meta.workload}, {"config", &meta.configLabel},
         {"statsjson", &stats_json}, {"metrics", &metrics_path},
         {"trace", &params.traceFlags}, {"tracefile", &params.traceFilePath},
         {"faults", &meta.faultSpec}, {"policy", &meta.faultPolicy},
         {"ckpt", &ckpt_path}, {"resume", &resume_path}},
        meta.scale);

    const bool resuming = argValue(argc, argv, "resume") != nullptr;
    if (resuming) {
        // The checkpoint is the single source of truth for the
        // run's identity; conflicting knobs are a usage error, not
        // a silent override.
        for (const char *key : kIdentityKeys) {
            if (argValue(argc, argv, key)) {
                std::fprintf(stderr, "emvsim: '%s' cannot be "
                             "combined with resume= (the checkpoint "
                             "defines the run)\n", key);
                return kExitUsageOrAudit;
            }
        }
    }
    if (argValue(argc, argv, "faults") &&
        !fault::FaultPlan::parse(meta.faultSpec)) {
        std::fprintf(stderr, "emvsim: bad fault spec '%s' "
                     "(expected kind@op[xCOUNT],...)\n",
                     meta.faultSpec.c_str());
        return kExitUsageOrAudit;
    }
    if (!fault::faultPolicyByName(meta.faultPolicy)) {
        std::fprintf(stderr, "emvsim: bad fault policy '%s' "
                     "(degrade or failfast)\n",
                     meta.faultPolicy.c_str());
        return kExitUsageOrAudit;
    }
    meta.badFrames = static_cast<unsigned>(bad_frames);
    meta.fragGuestBytes = frag_guest_mb * MiB;
    meta.fragHostBytes = frag_host_mb * MiB;
    meta.audit = audit_on != 0;
    if (ckpt_every && ckpt_path.empty()) {
        std::fprintf(stderr,
                     "emvsim: ckptevery= requires ckpt=\n");
        return kExitUsageOrAudit;
    }
    if (argValue(argc, argv, "window") && metrics_path.empty()) {
        std::fprintf(stderr, "emvsim: window= requires metrics=\n");
        return kExitUsageOrAudit;
    }

    sim::LoadedCheckpoint loaded;
    if (resuming) {
        std::string error;
        if (!sim::loadCheckpoint(resume_path, loaded, error)) {
            std::fprintf(stderr, "emvsim: cannot resume '%s': %s\n",
                         resume_path.c_str(), error.c_str());
            return kExitUsageOrAudit;
        }
        meta = loaded.meta;
    }

    auto kind = workloadByName(meta.workload);
    if (!kind) {
        std::fprintf(stderr,
                     "unknown workload '%s'; one of: gups graph500 "
                     "memcached npb:cg cactusADM GemsFDTD mcf "
                     "omnetpp canneal streamcluster\n",
                     meta.workload.c_str());
        return kExitUsageOrAudit;
    }
    auto spec = sim::specFromLabel(meta.configLabel);
    if (!spec) {
        std::fprintf(stderr, "unknown config label '%s'\n",
                     meta.configLabel.c_str());
        return kExitUsageOrAudit;
    }

    params.scale = meta.scale;
    params.measureOps = meta.measureOps;
    params.warmupOps = meta.warmupOps;
    params.seed = meta.seed;
    params.badFrames = meta.badFrames;
    params.badFrameSeed = meta.badFrameSeed;
    params.faultSpec = meta.faultSpec;
    params.faultPolicy = meta.faultPolicy;
    params.faultSeed = meta.faultSeed;
    params.audit = meta.audit;
    params.profile = profile_on != 0;
    params.applyObservability();

    auto wl = workload::makeWorkload(*kind, params.seed,
                                     params.scale);
    auto cfg = sim::makeMachineConfig(*spec, params);
    if (meta.fragGuestBytes) {
        cfg.guestFragmentation.enabled = true;
        cfg.guestFragmentation.maxRunBytes = meta.fragGuestBytes;
    }
    if (meta.fragHostBytes) {
        cfg.hostFragmentation.enabled = true;
        cfg.hostFragmentation.maxRunBytes = meta.fragHostBytes;
        cfg.contiguousHostReservation = false;
    }

    std::printf("emvsim: %s under %s (scale=%.3g, %s footprint)\n",
                wl->info().name.c_str(), meta.configLabel.c_str(),
                params.scale,
                sim::bytesStr(wl->info().footprintBytes).c_str());
    if (!params.faultSpec.empty()) {
        std::printf("fault plan: %s (policy=%s)\n",
                    params.faultSpec.c_str(),
                    params.faultPolicy.c_str());
    }

    sim::Machine machine(cfg, *wl);

    std::optional<telemetry::TelemetryRecorder> recorder;
    if (!metrics_path.empty()) {
        telemetry::TelemetryConfig tcfg;
        tcfg.path = metrics_path;
        tcfg.windowOps = window_ops;
        recorder.emplace(tcfg);
    }
    telemetry::TelemetryRecorder *telem = nullptr;

    // Telemetry attaches at the start of the measured interval (the
    // warmup-boundary resetStats) so recorder op space == measured
    // ops.  On a resume past that boundary it attaches immediately,
    // restoring its window cursor from the checkpoint.
    const auto attachTelemetry = [&](bool from_checkpoint) {
        if (!recorder || telem)
            return true;
        machine.attachTelemetry(&*recorder);
        telem = &*recorder;
        std::string error;
        if (from_checkpoint &&
            !sim::restoreTelemetry(loaded, *recorder, error)) {
            std::fprintf(stderr, "emvsim: cannot resume '%s': %s\n",
                         resume_path.c_str(), error.c_str());
            return false;
        }
        if (!recorder->openSink(&error)) {
            std::fprintf(stderr,
                         "emvsim: cannot write metrics '%s': %s\n",
                         metrics_path.c_str(), error.c_str());
            return false;
        }
        return true;
    };

    bool did_reset = false;
    if (resuming) {
        std::string error;
        if (!sim::restoreMachine(loaded, machine, error)) {
            std::fprintf(stderr, "emvsim: cannot resume '%s': %s\n",
                         resume_path.c_str(), error.c_str());
            return kExitUsageOrAudit;
        }
        // A checkpoint taken at or past the warmup boundary was
        // written after resetStats(); do not reset again.
        did_reset = meta.warmupDone == meta.warmupOps;
        if (did_reset && !attachTelemetry(true))
            return kExitUsageOrAudit;
        std::printf("resumed from %s (warmup %llu/%llu, measured "
                    "%llu/%llu)\n", resume_path.c_str(),
                    static_cast<unsigned long long>(meta.warmupDone),
                    static_cast<unsigned long long>(meta.warmupOps),
                    static_cast<unsigned long long>(meta.measuredOps),
                    static_cast<unsigned long long>(meta.measureOps));
    }

    std::signal(SIGTERM, onStopSignal);
    std::signal(SIGINT, onStopSignal);

    const auto flushCheckpoint = [&]() {
        if (ckpt_path.empty())
            return true;
        std::string error;
        if (!sim::saveCheckpoint(ckpt_path, meta, machine, error,
                                 telem)) {
            std::fprintf(stderr, "emvsim: checkpoint failed: %s\n",
                         error.c_str());
            return false;
        }
        return true;
    };

    // Replay in bounded slices so signals, periodic checkpoints and
    // the deterministic test knobs all land on exact op boundaries.
    std::uint64_t since_ckpt = 0;
    bool interrupted = false;
    bool terminal = false;
    while (!interrupted && !terminal) {
        if (!did_reset && meta.warmupDone == meta.warmupOps) {
            machine.resetStats();
            did_reset = true;
            if (!attachTelemetry(false))
                return kExitUsageOrAudit;
        }
        const bool in_warmup = meta.warmupDone < meta.warmupOps;
        const std::uint64_t remaining =
            in_warmup ? meta.warmupOps - meta.warmupDone
                      : meta.measureOps - meta.measuredOps;
        if (!in_warmup && remaining == 0)
            break;

        std::uint64_t slice = std::min(remaining, kSubChunkOps);
        const std::uint64_t done =
            meta.warmupDone + meta.measuredOps;
        const auto boundAt = [&](std::uint64_t target) {
            if (target > done && target - done < slice)
                slice = target - done;
        };
        if (ckpt_every)
            boundAt(done + (ckpt_every - since_ckpt));
        if (stop_after)
            boundAt(stop_after);
        if (crash_after)
            boundAt(crash_after);

        const auto result = machine.run(slice);
        if (!result.completed) {
            terminal = true;
            break;
        }
        if (in_warmup)
            meta.warmupDone += slice;
        else
            meta.measuredOps += slice;
        since_ckpt += slice;
        if (!did_reset && meta.warmupDone == meta.warmupOps) {
            machine.resetStats();
            did_reset = true;
            if (!attachTelemetry(false))
                return kExitUsageOrAudit;
        }

        const std::uint64_t total =
            meta.warmupDone + meta.measuredOps;
        if (crash_after && total >= crash_after)
            raise(SIGKILL);
        const bool want_stop =
            stopRequested() || (stop_after && total >= stop_after);
        if (want_stop || (ckpt_every && since_ckpt >= ckpt_every)) {
            if (!flushCheckpoint())
                return kExitUsageOrAudit;
            since_ckpt = 0;
        }
        interrupted = want_stop;
    }

    if (interrupted) {
        std::printf("\n-- interrupted --\n"
                    "ops:        %llu of %llu (warmup %llu)\n",
                    static_cast<unsigned long long>(
                        meta.warmupDone + meta.measuredOps),
                    static_cast<unsigned long long>(
                        meta.warmupOps + meta.measureOps),
                    static_cast<unsigned long long>(meta.warmupDone));
        if (!ckpt_path.empty()) {
            std::printf("checkpoint: %s (resume=%s)\n",
                        ckpt_path.c_str(), ckpt_path.c_str());
        }
        return kExitInterrupted;
    }

    if (!ckpt_path.empty() && !flushCheckpoint())
        return kExitUsageOrAudit;

    // Interrupted runs leave the open window in the checkpoint for
    // the resumed run to finish; completed runs flush it here.
    if (telem)
        telem->finish();

    const auto run = machine.measuredResult();

    std::printf("\n-- results --\n");
    std::printf("translation overhead: %s\n",
                sim::pct(run.translationOverhead()).c_str());
    std::printf("total overhead:       %s\n",
                sim::pct(run.totalOverhead()).c_str());
    std::printf("L1 misses:            %llu\n",
                static_cast<unsigned long long>(run.l1Misses));
    std::printf("L2 misses (walks):    %llu (%llu)\n",
                static_cast<unsigned long long>(run.l2Misses),
                static_cast<unsigned long long>(run.walks));
    std::printf("cycles per walk:      %.1f\n", run.cyclesPerWalk);
    std::printf("coverage F_VD/F_GD/F_DD: %s / %s / %s\n",
                sim::pct(run.fractionVmmOnly).c_str(),
                sim::pct(run.fractionGuestOnly).c_str(),
                sim::pct(run.fractionBoth).c_str());
    std::printf("guest segment: %s\nVMM segment:   %s\n",
                machine.guestSegment().toString().c_str(),
                machine.vmmSegment().toString().c_str());
    if (telem) {
        std::printf("metrics:       %s (%llu windows)\n",
                    metrics_path.c_str(),
                    static_cast<unsigned long long>(
                        telem->windowsEmitted()));
    }
    if (!params.faultSpec.empty()) {
        std::printf("final mode:    %s\n",
                    core::modeName(machine.config().mode));
    }

    if (stats_on != 0) {
        std::printf("\n-- mmu counters --\n");
        machine.mmu().stats().dump(std::cout);
        if (machine.vm()) {
            std::printf("\n-- vm counters --\n");
            machine.vm()->stats().dump(std::cout);
        }
        std::printf("\n-- os counters --\n");
        machine.os().stats().dump(std::cout);
        if (!params.faultSpec.empty()) {
            std::printf("\n-- fault counters --\n");
            machine.faultInjector().stats().dump(std::cout);
        }
    }

    if (!stats_json.empty()) {
        auto groups = machine.statGroups();
        if (params.audit)
            groups.push_back(&audit::stats());
        if (sim::writeStatsJson(stats_json, groups)) {
            std::printf("\nwrote %s\n", stats_json.c_str());
        } else {
            std::fprintf(stderr, "cannot write '%s'\n",
                         stats_json.c_str());
            return kExitUsageOrAudit;
        }
    }
    if (params.profile) {
        std::printf("\n");
        prof::report(std::cout);
        rusage usage{};
        getrusage(RUSAGE_SELF, &usage);
        std::printf("host memory: %zu frames resident, %zu stored\n"
                    "peak RSS:    %.1f MiB\n",
                    machine.hostMem().residentFrames(),
                    machine.hostMem().storedFrames(),
                    static_cast<double>(usage.ru_maxrss) / 1024.0);
    }
    if (params.audit) {
        std::printf("\naudit checks:     %llu\n"
                    "audit mismatches: %llu\n",
                    static_cast<unsigned long long>(
                        audit::checkCount()),
                    static_cast<unsigned long long>(
                        audit::mismatchCount()));
    }

    // A terminal fault is a clean, structured, non-zero exit — not
    // an abort: stats and JSON above still reflect the partial run.
    if (const auto *terminal_fault = machine.terminalFault()) {
        std::printf("\n-- terminal fault --\n"
                    "reason: %s\n"
                    "space:  %s\n"
                    "addr:   %s\n"
                    "op:     %llu\n",
                    terminal_fault->reason.c_str(),
                    core::toString(terminal_fault->space),
                    hexAddr(terminal_fault->addr).c_str(),
                    static_cast<unsigned long long>(
                        terminal_fault->opIndex));
        return kExitTerminalFault;
    }
    if (params.audit && (audit::mismatchCount() != 0 ||
                         audit::failureCount() != 0)) {
        return kExitUsageOrAudit;
    }
    return kExitOk;
}
