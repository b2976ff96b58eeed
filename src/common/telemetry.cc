#include "common/telemetry.hh"

#include <bit>
#include <chrono>
#include <cmath>
#include <sstream>

#include "common/ckpt.hh"
#include "common/json.hh"

namespace emv::telemetry {

// ---------------------------------------------------------------------
// LatencyHistogram
// ---------------------------------------------------------------------

unsigned
LatencyHistogram::bucketIndex(std::uint64_t value)
{
    if (value < kSubBuckets)
        return static_cast<unsigned>(value);
    const unsigned exp =
        63u - static_cast<unsigned>(std::countl_zero(value));
    const unsigned shift = exp - kSubBucketBits;
    return (shift << kSubBucketBits) +
           static_cast<unsigned>(value >> shift);
}

std::uint64_t
LatencyHistogram::bucketLow(unsigned index)
{
    if (index < kSubBuckets)
        return index;
    const unsigned shift = (index >> kSubBucketBits) - 1;
    const std::uint64_t mantissa =
        index - (static_cast<std::uint64_t>(shift) << kSubBucketBits);
    return mantissa << shift;
}

std::uint64_t
LatencyHistogram::bucketWidth(unsigned index)
{
    if (index < kSubBuckets)
        return 1;
    const unsigned shift = (index >> kSubBucketBits) - 1;
    return std::uint64_t{1} << shift;
}

void
LatencyHistogram::record(std::uint64_t value)
{
    if (_count == 0 || value < _min)
        _min = value;
    if (value > _max)
        _max = value;
    ++_count;
    _sum += value;
    ++_buckets[bucketIndex(value)];
}

void
LatencyHistogram::reset()
{
    _count = 0;
    _sum = 0;
    _min = 0;
    _max = 0;
    std::fill(_buckets.begin(), _buckets.end(), 0);
}

double
LatencyHistogram::mean() const
{
    return _count ? static_cast<double>(_sum) /
                        static_cast<double>(_count)
                  : 0.0;
}

double
LatencyHistogram::percentile(double p) const
{
    if (_count == 0)
        return 0.0;
    if (p <= 0.0)
        return static_cast<double>(min());
    if (p >= 1.0)
        return static_cast<double>(max());
    const double count = static_cast<double>(_count);
    std::uint64_t rank =
        static_cast<std::uint64_t>(std::ceil(p * count));
    if (rank < 1)
        rank = 1;
    if (rank > _count)
        rank = _count;
    std::uint64_t cumulative = 0;
    for (unsigned b = 0; b < kBucketCount; ++b) {
        cumulative += _buckets[b];
        if (cumulative >= rank) {
            const std::uint64_t width = bucketWidth(b);
            const double rep =
                width == 1
                    ? static_cast<double>(bucketLow(b))
                    : static_cast<double>(bucketLow(b)) +
                          static_cast<double>(width) / 2.0;
            const double lo = static_cast<double>(min());
            const double hi = static_cast<double>(max());
            return std::min(std::max(rep, lo), hi);
        }
    }
    return static_cast<double>(max());
}

void
LatencyHistogram::merge(const LatencyHistogram &other)
{
    if (other._count == 0)
        return;
    if (_count == 0 || other._min < _min)
        _min = other._min;
    if (other._max > _max)
        _max = other._max;
    _count += other._count;
    _sum += other._sum;
    for (unsigned b = 0; b < kBucketCount; ++b)
        _buckets[b] += other._buckets[b];
}

LatencyHistogram
LatencyHistogram::delta(const LatencyHistogram &now,
                        const LatencyHistogram &prev)
{
    LatencyHistogram out;
    out._count = now._count >= prev._count
                     ? now._count - prev._count
                     : 0;
    out._sum = now._sum >= prev._sum ? now._sum - prev._sum : 0;
    unsigned first = kBucketCount;
    unsigned last = 0;
    for (unsigned b = 0; b < kBucketCount; ++b) {
        const std::uint64_t d =
            now._buckets[b] >= prev._buckets[b]
                ? now._buckets[b] - prev._buckets[b]
                : 0;
        out._buckets[b] = d;
        if (d != 0) {
            if (first == kBucketCount)
                first = b;
            last = b;
        }
    }
    if (out._count != 0 && first != kBucketCount) {
        // Exact window extremes are not recoverable from cumulative
        // snapshots; use the occupied buckets' bounds instead.
        out._min = bucketLow(first);
        out._max = bucketLow(last) + bucketWidth(last) - 1;
    }
    return out;
}

template <class Ar>
void
LatencyHistogram::persist(Ar &ar)
{
    if constexpr (Ar::loading)
        reset();
    ar.u64(_count);
    ar.u64(_sum);
    ar.u64(_min);
    ar.u64(_max);
    // Occupied buckets only, as (index, count) pairs.
    std::uint32_t occupied = 0;
    for (unsigned b = 0; b < kBucketCount; ++b)
        occupied += _buckets[b] != 0;
    ar.u32(occupied);
    std::uint32_t b = 0;
    for (std::uint32_t i = 0; ar.ok() && i < occupied; ++i, ++b) {
        if constexpr (!Ar::loading) {
            while (_buckets[b] == 0)
                ++b;
        }
        ar.u32(b);
        if (!ar.check(b < kBucketCount,
                      "latency histogram: bucket index out of range"))
            return;
        ar.u64(_buckets[b]);
    }
}

template void LatencyHistogram::persist(ckpt::Encoder &);
template void LatencyHistogram::persist(ckpt::Decoder &);

// ---------------------------------------------------------------------
// TelemetryRecorder
// ---------------------------------------------------------------------

namespace {

std::uint64_t
steadyNowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace

TelemetryRecorder::TelemetryRecorder(const TelemetryConfig &config,
                                     ClockFn clock)
    : config(config),
      clock(clock ? std::move(clock) : ClockFn(&steadyNowNs))
{
}

TelemetryRecorder::~TelemetryRecorder()
{
    if (sink)
        std::fclose(sink);
}

void
TelemetryRecorder::addCounter(const std::string &name,
                              std::function<std::uint64_t()> get)
{
    counterBase.push_back(get ? get() : 0);
    counters.emplace_back(name, std::move(get));
}

void
TelemetryRecorder::addScalar(const std::string &name,
                             std::function<double()> get)
{
    scalarBase.push_back(get ? get() : 0.0);
    scalars.emplace_back(name, std::move(get));
}

void
TelemetryRecorder::addGauge(const std::string &name,
                            std::function<double()> get)
{
    gauges.emplace_back(name, std::move(get));
}

void
TelemetryRecorder::setLatencySource(const LatencyHistogram *hist)
{
    latencySource = hist;
    if (hist)
        latencyBase = *hist;
}

void
TelemetryRecorder::setModeSource(std::function<std::string()> get)
{
    modeSource = std::move(get);
}

bool
TelemetryRecorder::openSink(std::string *error)
{
    if (sink) {
        std::fclose(sink);
        sink = nullptr;
    }
    sink = std::fopen(config.path.c_str(), "wb");
    if (!sink) {
        if (error)
            *error = "cannot create '" + config.path + "'";
        return false;
    }
    markNs = clock();
    markValid = true;
    return true;
}

void
TelemetryRecorder::onOp()
{
    ++opsSeen;
    if (opsSeen - windowStartOp >= config.windowOps)
        closeWindow();
}

void
TelemetryRecorder::event(const std::string &kind,
                         const std::string &detail)
{
    pendingEvents.push_back({opsSeen, kind, detail});
}

void
TelemetryRecorder::finish()
{
    closeWindow();
    if (sink) {
        std::fflush(sink);
        std::fclose(sink);
        sink = nullptr;
    }
}

void
TelemetryRecorder::rebase()
{
    for (std::size_t i = 0; i < counters.size(); ++i)
        counterBase[i] = counters[i].second();
    for (std::size_t i = 0; i < scalars.size(); ++i)
        scalarBase[i] = scalars[i].second();
    if (latencySource)
        latencyBase = *latencySource;
}

void
TelemetryRecorder::closeWindow()
{
    const std::uint64_t ops_in_window = opsSeen - windowStartOp;
    if (ops_in_window == 0)
        return;

    if (markValid) {
        const std::uint64_t n = clock();
        windowWallNs += n >= markNs ? n - markNs : 0;
        markNs = n;
    }

    std::ostringstream line;
    json::Writer w(line, /*pretty=*/false);
    w.beginObject();
    w.member("schema", "emv-metrics-v1");
    w.member("window", _windowIndex);
    w.member("op_start", windowStartOp);
    w.member("op_end", opsSeen);
    w.member("wall_ns", windowWallNs);

    const double wall = static_cast<double>(windowWallNs);
    const double ops = static_cast<double>(ops_in_window);
    w.key("rate");
    w.beginObject();
    w.member("ops_per_sec", wall > 0.0 ? ops * 1e9 / wall : 0.0);
    w.member("host_ns_per_op", wall > 0.0 ? wall / ops : 0.0);
    w.endObject();

    w.key("deltas");
    w.beginObject();
    for (std::size_t i = 0; i < counters.size(); ++i) {
        const std::uint64_t current = counters[i].second();
        const std::uint64_t base = counterBase[i];
        w.member(counters[i].first,
                 current >= base ? current - base : 0);
        counterBase[i] = current;
    }
    for (std::size_t i = 0; i < scalars.size(); ++i) {
        const double current = scalars[i].second();
        const double d = current - scalarBase[i];
        w.member(scalars[i].first, d > 0.0 ? d : 0.0);
        scalarBase[i] = current;
    }
    w.endObject();

    w.key("gauges");
    w.beginObject();
    for (const auto &[name, get] : gauges)
        w.member(name, get());
    w.endObject();

    w.member("mode", modeSource ? modeSource() : std::string());

    if (latencySource) {
        const LatencyHistogram windowed =
            LatencyHistogram::delta(*latencySource, latencyBase);
        w.key("latency");
        w.beginObject();
        w.member("count", windowed.count());
        w.member("mean", windowed.mean());
        w.member("max", static_cast<std::uint64_t>(windowed.max()));
        w.member("p50", windowed.percentile(0.50));
        w.member("p99", windowed.percentile(0.99));
        w.member("p999", windowed.percentile(0.999));
        w.endObject();
        w.key("cumulative_latency");
        w.beginObject();
        w.member("count", latencySource->count());
        w.member("mean", latencySource->mean());
        w.member("max", latencySource->max());
        w.member("p50", latencySource->percentile(0.50));
        w.member("p99", latencySource->percentile(0.99));
        w.member("p999", latencySource->percentile(0.999));
        w.endObject();
        latencyBase = *latencySource;
    }

    w.key("events");
    w.beginArray();
    for (const auto &ev : pendingEvents) {
        w.beginObject();
        w.member("op", ev.op);
        w.member("kind", ev.kind);
        w.member("detail", ev.detail);
        w.endObject();
    }
    w.endArray();
    w.endObject();

    if (sink) {
        // One fwrite per record: a tailing reader never sees a torn
        // line, and a crash loses at most the open window.
        const std::string text = line.str() + "\n";
        std::fwrite(text.data(), 1, text.size(), sink);
        std::fflush(sink);
    }

    windowStartOp = opsSeen;
    ++_windowIndex;
    ++emitted;
    windowWallNs = 0;
    pendingEvents.clear();
}

template <class Ar>
void
TelemetryRecorder::persist(Ar &ar)
{
    std::uint32_t version = 1;  // Telemetry chunk layout version.
    ar.u32(version);
    if (!ar.check(version == 1, [&] {
            return "telemetry: unsupported chunk version " +
                   std::to_string(version);
        }))
        return;
    std::uint64_t window_ops = config.windowOps;
    ar.u64(window_ops);
    if (!ar.check(window_ops == config.windowOps, [&] {
            return "telemetry: window size changed across resume (" +
                   std::to_string(window_ops) + " vs " +
                   std::to_string(config.windowOps) + ")";
        }))
        return;
    ar.u64(opsSeen);
    ar.u64(windowStartOp);
    ar.u64(_windowIndex);
    ar.u64(emitted);
    // Fold the live mark into the persisted wall time so a resumed
    // window accounts the pre-interruption host time it consumed.
    std::uint64_t wall = windowWallNs;
    if (!Ar::loading && markValid) {
        const std::uint64_t n = clock();
        wall += n >= markNs ? n - markNs : 0;
    }
    ar.u64(wall);
    if constexpr (Ar::loading) {
        windowWallNs = wall;
        markValid = false;  // openSink() restarts the live mark.
    }

    // Baselines per source, checked against the registered names.
    const auto bases = [&](const char *kind, const auto &sources,
                           auto &base, auto &&field) {
        std::uint32_t n = static_cast<std::uint32_t>(sources.size());
        ar.u32(n);
        if (!ar.check(n == sources.size(), [&] {
                return std::string("telemetry: ") + kind +
                       " source count mismatch";
            }))
            return;
        for (std::size_t i = 0; ar.ok() && i < sources.size(); ++i) {
            std::string name = sources[i].first;
            ar.str(name);
            field(base[i]);
            ar.check(name == sources[i].first, [&] {
                return std::string("telemetry: ") + kind + " source '" +
                       sources[i].first + "' was '" + name +
                       "' at save time";
            });
        }
    };
    bases("counter", counters, counterBase,
          [&](std::uint64_t &v) { ar.u64(v); });
    bases("scalar", scalars, scalarBase, [&](double &v) { ar.f64(v); });
    latencyBase.persist(ar);

    ar.seq32(pendingEvents, [&](auto &ev) {
        ar.u64(ev.op);
        ar.str(ev.kind);
        ar.str(ev.detail);
    });
}

template void TelemetryRecorder::persist(ckpt::Encoder &);
template void TelemetryRecorder::persist(ckpt::Decoder &);

} // namespace emv::telemetry
