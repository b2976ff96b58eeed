/**
 * @file
 * Time-series telemetry: windowed metric snapshots and HDR-style
 * latency histograms.
 *
 * Stat groups (stats.hh) answer "what happened over the whole run";
 * this layer answers "how did the run evolve".  Two pieces:
 *
 *   LatencyHistogram — a log-bucketed histogram with 16 linear
 *   sub-buckets per power-of-two octave (HdrHistogram's trick).
 *   Values below 16 are exact; above that the relative quantile
 *   error is bounded by 1/16 (6.25%), a 32x tighter bound than the
 *   one-octave Distribution buckets in stats.hh.  Histograms are
 *   mergeable and subtractable, so a per-window histogram is just
 *   the difference of two cumulative snapshots.
 *
 *   TelemetryRecorder — samples a set of registered counter/scalar
 *   sources every N trace ops (the *window*), computes per-window
 *   deltas and wall-clock rates, and appends one emv-metrics-v1
 *   JSON object per window to a JSONL sink.  Each record is built
 *   in memory and written with a single fwrite + flush, so a tail
 *   reader (emv_top) never observes a torn line.
 *
 * emv-metrics-v1 record (one JSON object per line):
 *
 *   {"schema":"emv-metrics-v1","window":K,
 *    "op_start":S,"op_end":E,"wall_ns":W,
 *    "rate":{"ops_per_sec":..,"host_ns_per_op":..},
 *    "deltas":{<counter>:delta,...,<scalar>:delta,...},
 *    "gauges":{<gauge>:value,...},
 *    "mode":"DualDirect",
 *    "latency":{"count":..,"mean":..,"max":..,
 *               "p50":..,"p99":..,"p999":..},
 *    "cumulative_latency":{"count":..,"p50":..,"p99":..,"p999":..},
 *    "events":[{"op":..,"kind":"downgrade","detail":".."},...]}
 *
 * Window semantics: windows cover [K*N, (K+1)*N) in recorder op
 * space (ops seen since the recorder was attached — emvsim attaches
 * at the start of the measured interval, so op space == measured
 * ops and the sum of per-window deltas reconciles exactly with the
 * run-end emv-stats-v1 aggregates).  A final partial window, if
 * any, is emitted by finish() with op_end < (K+1)*N.
 *
 * The recorder checkpoints its window cursor, baseline snapshots
 * and pending events (persist()), so a resumed run
 * continues with the next window index and — under a deterministic
 * clock — byte-identical subsequent windows.
 */

#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

namespace emv {
namespace ckpt {
class Encoder;
class Decoder;
} // namespace ckpt
} // namespace emv

namespace emv::telemetry {

/**
 * Log-bucketed latency histogram with bounded relative error.
 *
 * Bucketing: values in [0, 16) map to one exact bucket each; a
 * value v >= 16 with bit width (exp+1) maps to sub-bucket
 * (v >> (exp-4)) of octave exp, i.e. 16 linear sub-buckets per
 * octave.  The representative value of a bucket is its midpoint,
 * so any quantile estimate is within half a sub-bucket width —
 * a relative error of at most 1/32 — of a true sample value.
 *
 * record() is integer-only (no floating point, no branches beyond
 * min/max), cheap enough for the per-translation hot path.
 */
class LatencyHistogram
{
  public:
    static constexpr unsigned kSubBucketBits = 4;
    static constexpr unsigned kSubBuckets = 1u << kSubBucketBits;
    /** Exact buckets [0,16) + 60 octaves x 16 sub-buckets. */
    static constexpr unsigned kBucketCount =
        kSubBuckets + (64 - kSubBucketBits) * kSubBuckets;

    void record(std::uint64_t value);
    void reset();

    std::uint64_t count() const { return _count; }
    std::uint64_t sum() const { return _sum; }
    std::uint64_t min() const { return _count ? _min : 0; }
    std::uint64_t max() const { return _max; }
    double mean() const;

    /**
     * Quantile estimate for @p p in [0, 1]: the midpoint of the
     * bucket holding the ceil(p * count)-th smallest sample,
     * clamped to the observed [min, max].  p <= 0 returns min();
     * p >= 1 returns max(); an empty histogram returns 0.
     */
    double percentile(double p) const;

    /** Merge another histogram's samples into this one. */
    void merge(const LatencyHistogram &other);

    /**
     * Bucket-wise difference `now - prev` where @p prev is an
     * earlier snapshot of the same (monotonically growing)
     * histogram.  The delta's min/max are bucket *bounds* (the
     * exact extremes of the window are not recoverable), which is
     * within the same 1/16 error envelope as the quantiles.
     */
    static LatencyHistogram delta(const LatencyHistogram &now,
                                  const LatencyHistogram &prev);

    /** Raw occupancy (tests). */
    std::uint64_t bucketCount(unsigned index) const
    { return _buckets[index]; }

    /** Bucket index for @p value (tests). */
    static unsigned bucketIndex(std::uint64_t value);
    /** Lower bound / width of bucket @p index (tests). */
    static std::uint64_t bucketLow(unsigned index);
    static std::uint64_t bucketWidth(unsigned index);

    /** Checkpoint bit-exactly (sparse: only occupied buckets). */
    template <class Ar>
    void persist(Ar &ar);

  private:
    std::uint64_t _count = 0;
    std::uint64_t _sum = 0;
    std::uint64_t _min = 0;
    std::uint64_t _max = 0;
    std::vector<std::uint64_t> _buckets =
        std::vector<std::uint64_t>(kBucketCount, 0);
};

/** Construction knobs for a TelemetryRecorder. */
struct TelemetryConfig
{
    std::string path;                  //!< JSONL sink path.
    std::uint64_t windowOps = 100000;  //!< Trace ops per window.
};

/**
 * Windowed metrics recorder; see the file comment for the record
 * schema and window semantics.
 *
 * Lifecycle: construct, register sources (addCounter/addScalar/
 * addGauge/setLatencySource/setModeSource), openSink(), then call
 * onOp() once per trace op and finish() at the end of the run.
 * For checkpoint/resume, load (persist()) after the sources are
 * registered (names are matched) and before openSink().
 *
 * A recorder belongs to one machine and reads that machine's
 * counters (Machine::attachTelemetry), so like the machine it is
 * used from one thread only and takes no lock.  Registration and
 * the checkpoint load belong to the setup phase, before the first
 * onOp().
 */
class TelemetryRecorder
{
  public:
    /** Monotonic nanosecond clock; injectable for deterministic
     *  tests.  The default uses std::chrono::steady_clock. */
    using ClockFn = std::function<std::uint64_t()>;

    explicit TelemetryRecorder(const TelemetryConfig &config,
                               ClockFn clock = nullptr);
    ~TelemetryRecorder();

    TelemetryRecorder(const TelemetryRecorder &) = delete;
    TelemetryRecorder &operator=(const TelemetryRecorder &) = delete;

    /** @{ Source registration (setup phase: before openSink and
     * the checkpoint load).  Counter and scalar sources are delta'd per
     * window; gauges are sampled at window close.  Names become JSON
     * member names.  Getters run at window close: they must not call
     * back into the recorder. */
    void addCounter(const std::string &name,
                    std::function<std::uint64_t()> get);
    void addScalar(const std::string &name, std::function<double()> get);
    void addGauge(const std::string &name, std::function<double()> get);
    /** Cumulative per-translation latency histogram to window. */
    void setLatencySource(const LatencyHistogram *hist);
    /** Current translation mode, emitted per window. */
    void setModeSource(std::function<std::string()> get);
    /** @} */

    /**
     * Open (truncate) the JSONL sink and start the wall clock.
     * False with @p error set when the file cannot be created.
     */
    bool openSink(std::string *error = nullptr);

    /** Advance one trace op; emits a record at window boundaries. */
    void onOp();

    /** Mark an event (mode transition, fault) in the current window. */
    void event(const std::string &kind, const std::string &detail);

    /** Emit the final partial window (if non-empty) and flush. */
    void finish();

    /** Re-baseline every source without emitting (stat reset). */
    void rebase();

    std::uint64_t windowIndex() const { return _windowIndex; }
    std::uint64_t opsObserved() const { return opsSeen; }
    std::uint64_t windowsEmitted() const { return emitted; }

    /**
     * Checkpoint the window cursor, baseline snapshots, pending
     * events and accumulated wall time.  A load checks that the
     * registered source names match the saved ones.
     */
    template <class Ar>
    void persist(Ar &ar);

  private:
    struct PendingEvent
    {
        std::uint64_t op = 0;
        std::string kind;
        std::string detail;
    };

    void closeWindow();

    const TelemetryConfig config;
    const ClockFn clock;
    std::FILE *sink = nullptr;

    std::vector<std::pair<std::string,
                          std::function<std::uint64_t()>>> counters;
    std::vector<std::pair<std::string,
                          std::function<double()>>> scalars;
    std::vector<std::pair<std::string,
                          std::function<double()>>> gauges;
    const LatencyHistogram *latencySource = nullptr;
    std::function<std::string()> modeSource;

    /** Baselines at the current window's open. */
    std::vector<std::uint64_t> counterBase;
    std::vector<double> scalarBase;
    LatencyHistogram latencyBase;

    std::uint64_t opsSeen = 0;
    std::uint64_t windowStartOp = 0;
    std::uint64_t _windowIndex = 0;
    std::uint64_t emitted = 0;

    /** Wall time attributed to the open window before the current
     *  mark (survives checkpoints); markNs is live-process only. */
    std::uint64_t windowWallNs = 0;
    std::uint64_t markNs = 0;
    bool markValid = false;

    std::vector<PendingEvent> pendingEvents;
};

} // namespace emv::telemetry
