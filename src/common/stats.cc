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

template <class Ar>
void
Distribution::persist(Ar &ar)
{
    ar.u64(_count);
    ar.f64(_sum);
    ar.f64(_min);
    ar.f64(_max);
    ar.f64(_mean);
    ar.f64(_m2);
    for (std::uint64_t &b : _buckets)
        ar.u64(b);
}

template void Distribution::persist(ckpt::Encoder &);
template void Distribution::persist(ckpt::Decoder &);

template <typename Stat>
void
StatGroup::declare(std::map<std::string, Stat *> &kind, StatName name,
                   Stat &stat)
{
    const std::string key = name.c_str();
    emv_assert(!counters.count(key) && !scalars.count(key) &&
                   !distributions.count(key),
               "stat %s.%s declared twice", _name.c_str(), key.c_str());
    kind.emplace(key, &stat);
}

Counter::Counter(StatGroup &group, StatName name)
{
    group.declare(group.counters, name, *this);
}

Scalar::Scalar(StatGroup &group, StatName name)
{
    group.declare(group.scalars, name, *this);
}

Distribution::Distribution(StatGroup &group, StatName name)
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
    ckpt::save(enc, other);
    ckpt::Decoder dec(enc.buffer().data(), enc.buffer().size());
    const bool same_stats = ckpt::load(dec, *this) && dec.atEnd();
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

template <class Ar, typename Stat, class F>
void
StatGroup::persistKind(Ar &ar, std::map<std::string, Stat *> &kind,
                       F &&field)
{
    std::uint64_t n = kind.size();
    ar.u64(n);
    auto it = kind.begin();
    for (std::uint64_t i = 0; ar.ok() && i < n; ++i) {
        std::string name;
        if constexpr (!Ar::loading)
            name = it->first;
        ar.str(name);
        if constexpr (Ar::loading) {
            it = kind.find(name);
            if (!ar.check(it != kind.end(),
                          "unknown stat " + _name + "." + name))
                return;
        }
        field(*it->second);
        ++it;
    }
}

template <class Ar>
void
StatGroup::persist(Ar &ar)
{
    if constexpr (Ar::loading)
        resetAll();
    persistKind(ar, counters, [&](Counter &c) { ar.u64(c._value); });
    persistKind(ar, scalars, [&](Scalar &s) { ar.f64(s._value); });
    persistKind(ar, distributions,
                [&](Distribution &d) { d.persist(ar); });
}

template void StatGroup::persist(ckpt::Encoder &);
template void StatGroup::persist(ckpt::Decoder &);

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
