/**
 * @file
 * In-process parallel smoke: N worker threads each build, run and
 * destroy an independent Machine — with its stat groups and its
 * thread's audit counters — while sharing one telemetry recorder.
 * This is the library-level twin of `emvsim threads=N` and the
 * concurrency contract the thread-safety annotations
 * (common/thread_safety.hh) promise; run it under the tsan preset
 * to turn the contract into a checked property (DESIGN.md §12).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/audit.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/telemetry.hh"
#include "sim/machine.hh"

namespace emv::sim {
namespace {

using core::Mode;
using workload::WorkloadKind;

constexpr unsigned kThreads = 4;
constexpr double kScale = 0.02;
constexpr std::uint64_t kWarmupOps = 4000;
constexpr std::uint64_t kMeasureOps = 16000;

struct ShardOutcome
{
    RunResult run;
    bool completed = false;
    /** This worker thread's audit counts. */
    std::uint64_t auditChecks = 0;
    std::uint64_t auditFailures = 0;
    std::uint64_t auditMismatches = 0;
};

/** One worker: construct in-thread, warm up, reset, tick the shared
 *  recorder over the measured interval, destroy in-thread. */
void
runMachine(unsigned index, Mode mode,
           telemetry::TelemetryRecorder *recorder,
           std::atomic<std::uint64_t> &ops_done, ShardOutcome &out)
{
    auto wl = workload::makeWorkload(WorkloadKind::Gups,
                                     42 + index, kScale);
    MachineConfig cfg;
    cfg.mode = mode;
    Machine machine(cfg, *wl);
    if (!machine.run(kWarmupOps).completed)
        return;
    machine.resetStats();
    if (recorder)
        machine.attachTelemetryTicker(recorder);
    constexpr std::uint64_t kSlice = 2000;
    for (std::uint64_t done = 0; done < kMeasureOps;
         done += kSlice) {
        // Accounted at dispatch: every recorder tick inside run()
        // then happens-after its slice's add, so window deltas
        // reconcile exactly with the recorder's op space.
        ops_done.fetch_add(kSlice, std::memory_order_relaxed);
        if (!machine.run(kSlice).completed)
            return;
    }
    out.run = machine.measuredResult();
    out.completed = true;
}

/** runMachine(), then record the thread's audit counts. */
void
runShard(unsigned index, Mode mode,
         telemetry::TelemetryRecorder *recorder,
         std::atomic<std::uint64_t> &ops_done, ShardOutcome &out)
{
    runMachine(index, mode, recorder, ops_done, out);
    out.auditChecks = audit::checkCount();
    out.auditFailures = audit::failureCount();
    out.auditMismatches = audit::mismatchCount();
}

TEST(ParallelSmoke, MachinesSharingRegistryAndTelemetry)
{
    setQuietLogging(true);

    const std::string path =
        testing::TempDir() + "parallel_smoke_metrics.jsonl";
    telemetry::TelemetryConfig tcfg;
    tcfg.path = path;
    tcfg.windowOps = 8000;
    telemetry::TelemetryRecorder recorder(tcfg);
    std::atomic<std::uint64_t> ops_done{0};
    recorder.addCounter("ops", [&ops_done] {
        return ops_done.load(std::memory_order_relaxed);
    });
    recorder.addGauge("threads", [] {
        return static_cast<double>(kThreads);
    });
    recorder.setModeSource([] { return std::string("mixed"); });
    ASSERT_TRUE(recorder.openSink());

    // One machine per mode: the shards are heterogeneous, like a
    // sweep driver's would be.
    const Mode modes[kThreads] = {
        Mode::Native, Mode::BaseVirtualized, Mode::DualDirect,
        Mode::VmmDirect};
    std::vector<ShardOutcome> outcomes(kThreads);
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < kThreads; ++t) {
        workers.emplace_back(runShard, t, modes[t], &recorder,
                             std::ref(ops_done),
                             std::ref(outcomes[t]));
    }
    for (auto &worker : workers)
        worker.join();
    recorder.finish();

    // Every shard completed and did real per-machine work.
    for (unsigned t = 0; t < kThreads; ++t) {
        ASSERT_TRUE(outcomes[t].completed) << "shard " << t;
        EXPECT_EQ(outcomes[t].run.accessOps, kMeasureOps)
            << "shard " << t;
        EXPECT_GT(outcomes[t].run.baseCycles, 0.0) << "shard " << t;
    }
    // The shared recorder saw the union of the measured intervals
    // and emitted strictly ordered, untorn windows.
    const std::uint64_t total =
        std::uint64_t{kThreads} * kMeasureOps;
    EXPECT_EQ(recorder.opsObserved(), total);
    EXPECT_EQ(recorder.windowsEmitted(), total / tcfg.windowOps);

    std::ifstream in(path);
    std::string line;
    std::size_t windows = 0;
    std::uint64_t delta_sum = 0;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        json::Value record;
        ASSERT_TRUE(json::parse(line, record,
                                /*rejectDuplicateKeys=*/true))
            << line;
        EXPECT_EQ(record.find("schema")->string, "emv-metrics-v1");
        EXPECT_EQ(record.find("window")->number,
                  static_cast<double>(windows));
        delta_sum += static_cast<std::uint64_t>(
            record.find("deltas")->find("ops")->number);
        ++windows;
    }
    EXPECT_EQ(windows, total / tcfg.windowOps);
    EXPECT_EQ(delta_sum, total);
}

TEST(ParallelSmoke, SharedAuditCountersUnderConcurrentMachines)
{
    setQuietLogging(true);
    audit::resetCounters();
    audit::setEnabled(true);

    std::atomic<std::uint64_t> ops_done{0};
    std::vector<ShardOutcome> outcomes(kThreads);
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < kThreads; ++t) {
        workers.emplace_back(runShard, t, Mode::DualDirect, nullptr,
                             std::ref(ops_done),
                             std::ref(outcomes[t]));
    }
    for (auto &worker : workers)
        worker.join();
    audit::setEnabled(false);

    // Each machine's checks landed in its own thread's counters
    // (fresh at thread start), with no lock between the workers.
    for (unsigned t = 0; t < kThreads; ++t) {
        ASSERT_TRUE(outcomes[t].completed) << "shard " << t;
        EXPECT_GT(outcomes[t].auditChecks, 0u) << "shard " << t;
        EXPECT_EQ(outcomes[t].auditFailures, 0u) << "shard " << t;
        EXPECT_EQ(outcomes[t].auditMismatches, 0u) << "shard " << t;
    }
    // None of them reached the driver thread's counters.
    EXPECT_EQ(audit::checkCount(), 0u);
}

} // namespace
} // namespace emv::sim
