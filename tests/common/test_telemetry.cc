/**
 * @file
 * Tests for common/telemetry: LatencyHistogram bucketing/quantile
 * error bounds, merge/delta algebra, checkpoint round-trips, and
 * TelemetryRecorder window emission — including the resume contract
 * (a deserialized recorder continues with the next window index and
 * produces byte-identical subsequent windows under a deterministic
 * clock) and the delta-reconciliation invariant the emvsim metrics
 * stream relies on.
 */

#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/ckpt.hh"
#include "common/json.hh"
#include "common/telemetry.hh"

using namespace emv;
using telemetry::LatencyHistogram;
using telemetry::TelemetryConfig;
using telemetry::TelemetryRecorder;

namespace {

std::vector<std::string>
readLines(const std::string &path)
{
    std::ifstream in(path);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) {
        if (!line.empty())
            lines.push_back(line);
    }
    return lines;
}

std::string
tempPath(const char *name)
{
    return testing::TempDir() + name;
}

} // namespace

// ---------------------------------------------------------------------
// LatencyHistogram
// ---------------------------------------------------------------------

TEST(LatencyHistogram, SmallValuesAreExact)
{
    LatencyHistogram h;
    for (std::uint64_t v = 0; v < LatencyHistogram::kSubBuckets; ++v)
        h.record(v);
    for (std::uint64_t v = 0; v < LatencyHistogram::kSubBuckets; ++v) {
        EXPECT_EQ(LatencyHistogram::bucketIndex(v), v);
        EXPECT_EQ(LatencyHistogram::bucketLow(
                      LatencyHistogram::bucketIndex(v)), v);
        EXPECT_EQ(LatencyHistogram::bucketWidth(
                      LatencyHistogram::bucketIndex(v)), 1u);
    }
    EXPECT_EQ(h.count(), LatencyHistogram::kSubBuckets);
}

TEST(LatencyHistogram, BucketBoundsContainValue)
{
    for (std::uint64_t v :
         {0ull, 1ull, 15ull, 16ull, 17ull, 100ull, 1000ull, 4095ull,
          4096ull, 123456789ull, ~0ull >> 1}) {
        const unsigned index = LatencyHistogram::bucketIndex(v);
        ASSERT_LT(index, LatencyHistogram::kBucketCount) << v;
        const std::uint64_t low = LatencyHistogram::bucketLow(index);
        const std::uint64_t width =
            LatencyHistogram::bucketWidth(index);
        EXPECT_LE(low, v) << v;
        EXPECT_LT(v - low, width) << v;
    }
}

TEST(LatencyHistogram, BucketIndexIsMonotone)
{
    unsigned prev = 0;
    for (std::uint64_t v = 0; v < 100000; ++v) {
        const unsigned index = LatencyHistogram::bucketIndex(v);
        EXPECT_GE(index, prev) << v;
        prev = index;
    }
}

TEST(LatencyHistogram, PercentileEdgeCases)
{
    LatencyHistogram empty;
    EXPECT_EQ(empty.percentile(0.5), 0.0);
    EXPECT_EQ(empty.mean(), 0.0);
    EXPECT_EQ(empty.min(), 0u);
    EXPECT_EQ(empty.max(), 0u);

    LatencyHistogram one;
    one.record(7);
    // A single small sample is exact at every quantile.
    EXPECT_EQ(one.percentile(0.0), 7.0);
    EXPECT_EQ(one.percentile(0.5), 7.0);
    EXPECT_EQ(one.percentile(1.0), 7.0);

    LatencyHistogram h;
    h.record(3);
    h.record(1000);
    EXPECT_EQ(h.percentile(-0.5), 3.0);    // p <= 0 -> min
    EXPECT_EQ(h.percentile(2.0), 1000.0);  // p >= 1 -> max
}

TEST(LatencyHistogram, QuantileRelativeErrorBounded)
{
    // One sample per histogram: any quantile must come back within
    // the documented 1/16 relative error (midpoint of a 1/16-octave
    // sub-bucket, clamped to [min, max]).
    for (std::uint64_t v :
         {17ull, 100ull, 999ull, 12345ull, 7777777ull}) {
        LatencyHistogram h;
        h.record(v);
        const double estimate = h.percentile(0.5);
        const double rel =
            std::abs(estimate - static_cast<double>(v)) /
            static_cast<double>(v);
        EXPECT_LE(rel, 1.0 / 16.0) << v;
    }
}

TEST(LatencyHistogram, MergeAddsSamples)
{
    LatencyHistogram a, b;
    for (int i = 0; i < 100; ++i)
        a.record(10);
    for (int i = 0; i < 50; ++i)
        b.record(5000);
    a.merge(b);
    EXPECT_EQ(a.count(), 150u);
    EXPECT_EQ(a.sum(), 100u * 10 + 50u * 5000);
    EXPECT_EQ(a.min(), 10u);
    EXPECT_EQ(a.max(), 5000u);
    EXPECT_EQ(a.percentile(0.5), 10.0);
}

TEST(LatencyHistogram, DeltaIsBucketwiseDifference)
{
    LatencyHistogram cumulative;
    for (int i = 0; i < 10; ++i)
        cumulative.record(8);
    LatencyHistogram snapshot = cumulative;
    for (int i = 0; i < 5; ++i)
        cumulative.record(300);

    const LatencyHistogram window =
        LatencyHistogram::delta(cumulative, snapshot);
    EXPECT_EQ(window.count(), 5u);
    EXPECT_EQ(window.sum(), cumulative.sum() - snapshot.sum());
    // Only the 300-bucket grew in this window.
    EXPECT_EQ(window.bucketCount(LatencyHistogram::bucketIndex(300)),
              5u);
    EXPECT_EQ(window.bucketCount(LatencyHistogram::bucketIndex(8)),
              0u);
    // Delta min/max are bucket bounds, not exact extremes, but must
    // still bracket the true window values.
    EXPECT_LE(window.min(), 300u);
    EXPECT_GE(window.max(), 300u);
}

TEST(LatencyHistogram, CheckpointRoundTrip)
{
    LatencyHistogram h;
    for (std::uint64_t v : {1ull, 3ull, 17ull, 1000ull, 123456ull})
        for (int i = 0; i < 7; ++i)
            h.record(v);

    ckpt::Encoder enc;
    ckpt::save(enc, h);
    ckpt::Decoder dec(enc.buffer().data(), enc.buffer().size());
    LatencyHistogram restored;
    ASSERT_TRUE(ckpt::load(dec, restored));
    ASSERT_TRUE(dec.ok()) << dec.error();

    EXPECT_EQ(restored.count(), h.count());
    EXPECT_EQ(restored.sum(), h.sum());
    EXPECT_EQ(restored.min(), h.min());
    EXPECT_EQ(restored.max(), h.max());
    for (unsigned i = 0; i < LatencyHistogram::kBucketCount; ++i)
        ASSERT_EQ(restored.bucketCount(i), h.bucketCount(i)) << i;
    EXPECT_EQ(restored.percentile(0.99), h.percentile(0.99));
}

TEST(LatencyHistogram, DeserializeRejectsGarbage)
{
    ckpt::Encoder enc;
    enc.u64(~0ull);  // Not a plausible histogram header.
    enc.u64(~0ull);
    ckpt::Decoder dec(enc.buffer().data(), enc.buffer().size());
    LatencyHistogram h;
    EXPECT_FALSE(ckpt::load(dec, h) && dec.ok());
}

// ---------------------------------------------------------------------
// TelemetryRecorder
// ---------------------------------------------------------------------

namespace {

/** A recorder over one counter/scalar/gauge plus a latency source,
 *  with a deterministic clock, writing to @p path. */
struct Rig
{
    std::uint64_t ops = 0;          //!< The counter source.
    double cycles = 0.0;            //!< The scalar source.
    LatencyHistogram latency;       //!< The cumulative histogram.
    std::uint64_t fakeNowNs = 0;    //!< Injected clock value.

    std::unique_ptr<TelemetryRecorder> recorder;

    explicit Rig(const std::string &path,
                 std::uint64_t window_ops = 100)
    {
        TelemetryConfig config;
        config.path = path;
        config.windowOps = window_ops;
        recorder = std::make_unique<TelemetryRecorder>(
            config, [this] { return fakeNowNs; });
        attachSources(*recorder);
    }

    void
    attachSources(TelemetryRecorder &rec)
    {
        rec.addCounter("ops", [this] { return ops; });
        rec.addScalar("cycles", [this] { return cycles; });
        rec.addGauge("fill", [] { return 0.25; });
        rec.setLatencySource(&latency);
        rec.setModeSource([] { return std::string("DD"); });
    }

    /** One simulated trace op: bump sources, tick the recorder. */
    void
    step(std::uint64_t lat)
    {
        ++ops;
        cycles += static_cast<double>(lat);
        latency.record(lat);
        recorder->onOp();
    }
};

} // namespace

TEST(TelemetryRecorder, EmitsValidatedWindows)
{
    const std::string path = tempPath("telemetry_windows.jsonl");
    Rig rig(path, /*window_ops=*/100);
    std::string error;
    ASSERT_TRUE(rig.recorder->openSink(&error)) << error;

    for (int i = 0; i < 250; ++i) {
        rig.fakeNowNs += 10;
        rig.step(i % 2 ? 4 : 40);
    }
    rig.recorder->event("downgrade", "DD->4K+VD");
    rig.recorder->finish();
    EXPECT_EQ(rig.recorder->windowsEmitted(), 3u);

    const auto lines = readLines(path);
    ASSERT_EQ(lines.size(), 3u);
    std::uint64_t delta_sum = 0;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        json::Value rec;
        ASSERT_TRUE(json::parse(lines[i], rec,
                                /*rejectDuplicateKeys=*/true))
            << lines[i];
        EXPECT_EQ(rec.find("schema")->string, "emv-metrics-v1");
        EXPECT_EQ(rec.find("window")->number,
                  static_cast<double>(i));
        const auto *deltas = rec.find("deltas");
        ASSERT_NE(deltas, nullptr);
        delta_sum += static_cast<std::uint64_t>(
            deltas->find("ops")->number);
        EXPECT_EQ(rec.find("mode")->string, "DD");
        EXPECT_DOUBLE_EQ(rec.find("gauges")->find("fill")->number,
                         0.25);
    }
    // Reconciliation: per-window deltas sum to the run-end value
    // of the source counter, with no ops lost at window seams.
    EXPECT_EQ(delta_sum, rig.ops);

    // The last record's cumulative tail must agree with the live
    // histogram exactly (same data, same estimator).
    json::Value last;
    ASSERT_TRUE(json::parse(lines.back(), last));
    const auto *cumulative = last.find("cumulative_latency");
    ASSERT_NE(cumulative, nullptr);
    EXPECT_DOUBLE_EQ(cumulative->find("p50")->number,
                     rig.latency.percentile(0.50));
    EXPECT_DOUBLE_EQ(cumulative->find("p99")->number,
                     rig.latency.percentile(0.99));
    EXPECT_DOUBLE_EQ(cumulative->find("p999")->number,
                     rig.latency.percentile(0.999));

    // The event landed in the final (partial) window.
    const auto *events = last.find("events");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->array.size(), 1u);
    EXPECT_EQ(events->array[0].find("kind")->string, "downgrade");
}

TEST(TelemetryRecorder, RebaseDropsHistory)
{
    const std::string path = tempPath("telemetry_rebase.jsonl");
    Rig rig(path, /*window_ops=*/50);
    ASSERT_TRUE(rig.recorder->openSink());

    // Warmup-style traffic, then a rebase: nothing of it may leak
    // into the windows emitted afterwards.
    rig.ops = 9999;
    rig.cycles = 1e9;
    rig.recorder->rebase();
    for (int i = 0; i < 50; ++i)
        rig.step(5);
    rig.recorder->finish();

    const auto lines = readLines(path);
    ASSERT_EQ(lines.size(), 1u);
    json::Value rec;
    ASSERT_TRUE(json::parse(lines[0], rec));
    EXPECT_EQ(rec.find("deltas")->find("ops")->number, 50.0);
}

TEST(TelemetryRecorder, ResumeContinuesByteIdentically)
{
    // Reference: one uninterrupted run, constant clock.
    const std::string ref_path = tempPath("telemetry_ref.jsonl");
    Rig ref(ref_path, /*window_ops=*/100);
    ASSERT_TRUE(ref.recorder->openSink());
    for (int i = 0; i < 350; ++i)
        ref.step(static_cast<std::uint64_t>(i % 37));
    ref.recorder->finish();
    const auto ref_lines = readLines(ref_path);
    ASSERT_EQ(ref_lines.size(), 4u);

    // Interrupted twin: same op stream, checkpointed mid-window-1
    // (op 150), restored into a fresh recorder, then resumed.
    const std::string pre_path = tempPath("telemetry_pre.jsonl");
    Rig twin(pre_path, /*window_ops=*/100);
    ASSERT_TRUE(twin.recorder->openSink());
    for (int i = 0; i < 150; ++i)
        twin.step(static_cast<std::uint64_t>(i % 37));

    ckpt::Encoder enc;
    ckpt::save(enc, *twin.recorder);

    const std::string post_path = tempPath("telemetry_post.jsonl");
    TelemetryConfig config;
    config.path = post_path;
    config.windowOps = 100;
    TelemetryRecorder resumed(config,
                              [&twin] { return twin.fakeNowNs; });
    twin.attachSources(resumed);
    ckpt::Decoder dec(enc.buffer().data(), enc.buffer().size());
    ASSERT_TRUE(ckpt::load(dec, resumed));
    ASSERT_TRUE(dec.ok()) << dec.error();
    EXPECT_EQ(resumed.opsObserved(), 150u);
    EXPECT_EQ(resumed.windowIndex(), 1u);
    ASSERT_TRUE(resumed.openSink());

    twin.recorder = nullptr;  // The half-written pre file stays put.
    for (int i = 150; i < 350; ++i) {
        ++twin.ops;
        twin.cycles += static_cast<double>(i % 37);
        twin.latency.record(static_cast<std::uint64_t>(i % 37));
        resumed.onOp();
    }
    resumed.finish();

    // The pre-crash file holds window 0; the resumed file holds
    // windows 1..3, each byte-identical to the reference stream.
    const auto pre_lines = readLines(pre_path);
    ASSERT_EQ(pre_lines.size(), 1u);
    EXPECT_EQ(pre_lines[0], ref_lines[0]);
    const auto post_lines = readLines(post_path);
    ASSERT_EQ(post_lines.size(), 3u);
    for (std::size_t i = 0; i < post_lines.size(); ++i)
        EXPECT_EQ(post_lines[i], ref_lines[i + 1]) << i;
}

TEST(TelemetryRecorder, DeserializeRejectsSourceMismatch)
{
    Rig rig(tempPath("telemetry_mismatch.jsonl"));
    ckpt::Encoder enc;
    ckpt::save(enc, *rig.recorder);

    TelemetryConfig config;
    config.path = tempPath("telemetry_mismatch2.jsonl");
    config.windowOps = 100;
    TelemetryRecorder other(config);
    other.addCounter("renamed", [] { return 0ull; });
    ckpt::Decoder dec(enc.buffer().data(), enc.buffer().size());
    EXPECT_FALSE(ckpt::load(dec, other) && dec.ok());
}

TEST(TelemetryRecorder, WindowSizeChangeAcrossResumeRejected)
{
    Rig rig(tempPath("telemetry_winsize.jsonl"), 100);
    ckpt::Encoder enc;
    ckpt::save(enc, *rig.recorder);

    TelemetryConfig config;
    config.path = tempPath("telemetry_winsize2.jsonl");
    config.windowOps = 200;  // Changed: would corrupt the series.
    TelemetryRecorder other(config);
    rig.attachSources(other);
    ckpt::Decoder dec(enc.buffer().data(), enc.buffer().size());
    EXPECT_FALSE(ckpt::load(dec, other) && dec.ok());
}
