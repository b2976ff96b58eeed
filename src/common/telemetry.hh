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
 * and pending events (serialize()/deserialize()), so a resumed run
 * continues with the next window index and — under a deterministic
 * clock — byte-identical subsequent windows.
 */

#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "common/thread_safety.hh"

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
    void serialize(ckpt::Encoder &enc) const;
    bool deserialize(ckpt::Decoder &dec);

  private:
    std::uint64_t _count = 0;
    std::uint64_t _sum = 0;
    std::uint64_t _min = 0;
    std::uint64_t _max = 0;
    std::vector<std::uint64_t> _buckets =
        std::vector<std::uint64_t>(kBucketCount, 0);
};

/**
 * A latency histogram shared between threads.  Worker threads run
 * thread-confined LatencyHistograms on their hot paths (record()
 * stays lock-free) and merge() them here at batch boundaries;
 * readers take a snapshot() for windowing or reporting.  The lock is
 * a leaf lock: merge/snapshot never call out while holding it.
 */
class SharedLatencyHistogram
{
  public:
    /** Fold a worker's (thread-confined) histogram in. */
    void
    merge(const LatencyHistogram &other) EMV_EXCLUDES(mutex)
    {
        LockGuard lock(mutex);
        hist.merge(other);
    }

    /** Consistent copy for windowing / percentile queries. */
    LatencyHistogram
    snapshot() const EMV_EXCLUDES(mutex)
    {
        LockGuard lock(mutex);
        return hist;
    }

    std::uint64_t
    count() const EMV_EXCLUDES(mutex)
    {
        LockGuard lock(mutex);
        return hist.count();
    }

    void
    reset() EMV_EXCLUDES(mutex)
    {
        LockGuard lock(mutex);
        hist.reset();
    }

  private:
    mutable Mutex mutex;
    LatencyHistogram hist EMV_GUARDED_BY(mutex);
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
 * For checkpoint/resume, deserialize() after the sources are
 * registered (names are matched) and before openSink().
 *
 * Thread safety: the recorder is internally synchronized — every
 * public method takes the leaf `mutex`, so threads may tick
 * onOp()/event() against one shared recorder and each JSONL record
 * is still a single atomic line with strictly increasing window
 * indices.  (In the simulator a recorder belongs to one machine,
 * whose sources it reads: Machine::attachTelemetry.)  Two caveats the annotations encode: (a) window
 * emission runs the registered source getters *under the lock*, so
 * getters must not call back into the recorder (they read counters
 * and atomics; the leaf-lock rule in thread_safety.hh applies);
 * (b) registration and deserialize() belong to the setup phase,
 * before the recorder is shared.
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

    /** @{ Source registration (setup phase: before openSink /
     * deserialize, and before the recorder is shared).  Counter and
     * scalar sources are delta'd per window; gauges are sampled at
     * window close.  Names become JSON member names.  Getters run
     * under the recorder lock at window close: they must not call
     * back into the recorder. */
    void addCounter(const std::string &name,
                    std::function<std::uint64_t()> get)
        EMV_EXCLUDES(mutex);
    void addScalar(const std::string &name,
                   std::function<double()> get) EMV_EXCLUDES(mutex);
    void addGauge(const std::string &name,
                  std::function<double()> get) EMV_EXCLUDES(mutex);
    /** Cumulative per-translation latency histogram to window. */
    void setLatencySource(const LatencyHistogram *hist)
        EMV_EXCLUDES(mutex);
    /** Current translation mode, emitted per window. */
    void setModeSource(std::function<std::string()> get)
        EMV_EXCLUDES(mutex);
    /** @} */

    /**
     * Open (truncate) the JSONL sink and start the wall clock.
     * False with @p error set when the file cannot be created.
     */
    bool openSink(std::string *error = nullptr) EMV_EXCLUDES(mutex);

    /** Advance one trace op; emits a record at window boundaries.
     *  Safe from any thread; one uncontended lock per op (the
     *  batched engine will tick once per decoded block instead). */
    void onOp() EMV_EXCLUDES(mutex);

    /** Mark an event (mode transition, fault) in the current window. */
    void event(const std::string &kind, const std::string &detail)
        EMV_EXCLUDES(mutex);

    /** Emit the final partial window (if non-empty) and flush. */
    void finish() EMV_EXCLUDES(mutex);

    /** Re-baseline every source without emitting (stat reset). */
    void rebase() EMV_EXCLUDES(mutex);

    std::uint64_t windowIndex() const EMV_EXCLUDES(mutex);
    std::uint64_t opsObserved() const EMV_EXCLUDES(mutex);
    std::uint64_t windowsEmitted() const EMV_EXCLUDES(mutex);

    /**
     * Checkpoint the window cursor, baseline snapshots, pending
     * events and accumulated wall time.  deserialize() validates
     * that the registered source names match the saved ones.
     */
    void serialize(ckpt::Encoder &enc) const EMV_EXCLUDES(mutex);
    bool deserialize(ckpt::Decoder &dec) EMV_EXCLUDES(mutex);

  private:
    struct PendingEvent
    {
        std::uint64_t op = 0;
        std::string kind;
        std::string detail;
    };

    void closeWindow(bool final_window) EMV_REQUIRES(mutex);
    std::uint64_t now() const;

    /** Leaf lock over all recorder state (see class comment). */
    mutable Mutex mutex;

    const TelemetryConfig config;
    const ClockFn clock;
    std::FILE *sink EMV_GUARDED_BY(mutex) = nullptr;

    std::vector<std::pair<std::string,
                          std::function<std::uint64_t()>>> counters
        EMV_GUARDED_BY(mutex);
    std::vector<std::pair<std::string,
                          std::function<double()>>> scalars
        EMV_GUARDED_BY(mutex);
    std::vector<std::pair<std::string,
                          std::function<double()>>> gauges
        EMV_GUARDED_BY(mutex);
    const LatencyHistogram *latencySource EMV_GUARDED_BY(mutex) =
        nullptr;
    std::function<std::string()> modeSource EMV_GUARDED_BY(mutex);

    /** Baselines at the current window's open. */
    std::vector<std::uint64_t> counterBase EMV_GUARDED_BY(mutex);
    std::vector<double> scalarBase EMV_GUARDED_BY(mutex);
    LatencyHistogram latencyBase EMV_GUARDED_BY(mutex);

    std::uint64_t opsSeen EMV_GUARDED_BY(mutex) = 0;
    std::uint64_t windowStartOp EMV_GUARDED_BY(mutex) = 0;
    std::uint64_t _windowIndex EMV_GUARDED_BY(mutex) = 0;
    std::uint64_t emitted EMV_GUARDED_BY(mutex) = 0;

    /** Wall time attributed to the open window before the current
     *  mark (survives checkpoints); markNs is live-process only. */
    std::uint64_t windowWallNs EMV_GUARDED_BY(mutex) = 0;
    std::uint64_t markNs EMV_GUARDED_BY(mutex) = 0;
    bool markValid EMV_GUARDED_BY(mutex) = false;

    std::vector<PendingEvent> pendingEvents EMV_GUARDED_BY(mutex);
};

} // namespace emv::telemetry
