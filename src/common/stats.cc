#include "common/stats.hh"

#include <cmath>

#include "common/ckpt.hh"
#include "common/logging.hh"

namespace emv {

void
Distribution::sample(double value)
{
    if (_count == 0) {
        _min = value;
        _max = value;
    } else {
        _min = std::min(_min, value);
        _max = std::max(_max, value);
    }
    ++_count;
    _sum += value;
    const double delta = value - _mean;
    _mean += delta / static_cast<double>(_count);
    _m2 += delta * (value - _mean);
    ++_buckets[bucketIndex(value)];
}

unsigned
Distribution::bucketIndex(double value)
{
    if (!(value >= 1.0))  // Also catches NaN.
        return 0;
    const int exponent = std::ilogb(value);  // floor(log2(v)) >= 0.
    const unsigned bucket = static_cast<unsigned>(exponent) + 1;
    return bucket < kBuckets ? bucket : kBuckets - 1;
}

double
Distribution::percentile(double p) const
{
    if (_count == 0)
        return 0.0;
    p = std::min(std::max(p, 0.0), 1.0);
    const double target = p * static_cast<double>(_count);
    std::uint64_t cumulative = 0;
    for (unsigned b = 0; b < kBuckets; ++b) {
        cumulative += _buckets[b];
        if (static_cast<double>(cumulative) >= target &&
            _buckets[b] != 0) {
            // Representative value: geometric midpoint of the
            // bucket's [2^(b-1), 2^b) range, clamped to what was
            // actually observed.
            const double rep =
                b == 0 ? 0.5 : 1.5 * std::ldexp(1.0, b - 1);
            return std::min(std::max(rep, _min), _max);
        }
    }
    return _max;
}

void
Distribution::reset()
{
    *this = Distribution();
}

double
Distribution::mean() const
{
    return _count ? _mean : 0.0;
}

double
Distribution::variance() const
{
    return _count > 1 ? _m2 / static_cast<double>(_count - 1) : 0.0;
}

double
Distribution::stddev() const
{
    return std::sqrt(variance());
}

void
Distribution::serialize(ckpt::Encoder &enc) const
{
    enc.u64(_count);
    enc.f64(_sum);
    enc.f64(_min);
    enc.f64(_max);
    enc.f64(_mean);
    enc.f64(_m2);
    for (std::uint64_t b : _buckets)
        enc.u64(b);
}

bool
Distribution::deserialize(ckpt::Decoder &dec)
{
    _count = dec.u64();
    _sum = dec.f64();
    _min = dec.f64();
    _max = dec.f64();
    _mean = dec.f64();
    _m2 = dec.f64();
    for (auto &b : _buckets)
        b = dec.u64();
    return dec.ok();
}

template <typename Stat>
void
StatGroup::declare(std::map<std::string, Stat *> &kind, const char *name,
                   Stat &stat)
{
    emv_assert(!counters.count(name) && !scalars.count(name) &&
                   !distributions.count(name),
               "stat %s.%s declared twice", _name.c_str(), name);
    kind.emplace(name, &stat);
}

Counter::Counter(StatGroup &group, const char *name)
{
    group.declare(group.counters, name, *this);
}

Scalar::Scalar(StatGroup &group, const char *name)
{
    group.declare(group.scalars, name, *this);
}

Distribution::Distribution(StatGroup &group, const char *name)
{
    group.declare(group.distributions, name, *this);
}

void
StatGroup::setParent(const std::string &prefix)
{
    parentPrefix = prefix;
    parentGroup = nullptr;
}

void
StatGroup::setParent(const StatGroup *group)
{
    parentGroup = group;
    parentPrefix.clear();
}

std::string
StatGroup::fullName() const
{
    if (parentGroup)
        return parentGroup->fullName() + "." + _name;
    return parentPrefix.empty() ? _name : parentPrefix + "." + _name;
}

std::uint64_t
StatGroup::counterValue(const std::string &name) const
{
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second->value();
}

double
StatGroup::scalarValue(const std::string &name) const
{
    auto it = scalars.find(name);
    return it == scalars.end() ? 0.0 : it->second->value();
}

void
StatGroup::resetAll()
{
    for (auto &[name, c] : counters)
        c->reset();
    for (auto &[name, s] : scalars)
        s->reset();
    for (auto &[name, d] : distributions)
        d->reset();
}

void
StatGroup::copyValues(const StatGroup &other)
{
    ckpt::Encoder enc;
    other.serialize(enc);
    ckpt::Decoder dec(enc.buffer().data(), enc.buffer().size());
    const bool same_stats = deserialize(dec) && dec.atEnd();
    emv_assert(same_stats, "%s: copyValues from a group with other "
               "stats: %s", _name.c_str(), dec.error().c_str());
    _name = other._name;
}

void
StatGroup::visit(StatVisitor &visitor) const
{
    visitor.beginGroup(*this);
    for (const auto &[name, c] : counters)
        visitor.visitCounter(*this, name, *c);
    for (const auto &[name, s] : scalars)
        visitor.visitScalar(*this, name, *s);
    for (const auto &[name, d] : distributions)
        visitor.visitDistribution(*this, name, *d);
    visitor.endGroup(*this);
}

void
StatGroup::dump(std::ostream &os) const
{
    const std::string full = fullName();
    for (const auto &[name, c] : counters)
        os << full << '.' << name << ' ' << c->value() << '\n';
    for (const auto &[name, s] : scalars)
        os << full << '.' << name << ' ' << s->value() << '\n';
    for (const auto &[name, d] : distributions) {
        os << full << '.' << name << ".count " << d->count() << '\n';
        os << full << '.' << name << ".mean " << d->mean() << '\n';
        os << full << '.' << name << ".stddev " << d->stddev() << '\n';
        os << full << '.' << name << ".min " << d->min() << '\n';
        os << full << '.' << name << ".max " << d->max() << '\n';
    }
}

void
StatGroup::serialize(ckpt::Encoder &enc) const
{
    enc.u64(counters.size());
    for (const auto &[name, c] : counters) {
        enc.str(name);
        enc.u64(c->value());
    }
    enc.u64(scalars.size());
    for (const auto &[name, s] : scalars) {
        enc.str(name);
        enc.f64(s->value());
    }
    enc.u64(distributions.size());
    for (const auto &[name, d] : distributions) {
        enc.str(name);
        d->serialize(enc);
    }
}

bool
StatGroup::deserialize(ckpt::Decoder &dec)
{
    resetAll();
    // Restore each saved stat into the declared one of its name.
    const auto restore = [&](auto &kind, auto &&read) {
        const std::uint64_t n = dec.u64();
        for (std::uint64_t i = 0; dec.ok() && i < n; ++i) {
            const std::string name = dec.str();
            const auto it = kind.find(name);
            if (it == kind.end())
                dec.fail("unknown stat " + _name + "." + name);
            else
                read(*it->second);
        }
    };
    restore(counters, [&](Counter &c) { c += dec.u64(); });
    restore(scalars, [&](Scalar &s) { s.set(dec.f64()); });
    restore(distributions, [&](Distribution &d) { d.deserialize(dec); });
    return dec.ok();
}

ConfidenceInterval
confidence95(const std::vector<double> &samples)
{
    ConfidenceInterval ci;
    const auto n = samples.size();
    if (n == 0)
        return ci;

    double sum = 0.0;
    for (double s : samples)
        sum += s;
    ci.mean = sum / static_cast<double>(n);
    if (n < 2)
        return ci;

    double sq = 0.0;
    for (double s : samples) {
        const double d = s - ci.mean;
        sq += d * d;
    }
    const double var = sq / static_cast<double>(n - 1);
    const double sem = std::sqrt(var / static_cast<double>(n));

    // Two-sided 95% Student-t critical values; index by df, clamped.
    static const double tTable[] = {
        0.0,   12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365,
        2.306, 2.262,  2.228, 2.201, 2.179, 2.160, 2.145, 2.131,
        2.120, 2.110,  2.101, 2.093, 2.086, 2.080, 2.074, 2.069,
        2.064, 2.060,  2.056, 2.052, 2.048, 2.045, 2.042,
    };
    const std::size_t df = n - 1;
    const double t = df < std::size(tTable) ? tTable[df] : 1.96;
    ci.halfWidth = t * sem;
    return ci;
}

} // namespace emv
