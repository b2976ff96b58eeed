#include "common/rng.hh"

#include "common/ckpt.hh"

#include <cmath>

namespace emv {

std::uint64_t
splitMix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

namespace {

inline std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &s : state)
        s = splitMix64(sm);
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(state[1] * 5, 7) * 9;
    const std::uint64_t t = state[1] << 17;

    state[2] ^= state[0];
    state[3] ^= state[1];
    state[1] ^= state[2];
    state[0] ^= state[3];
    state[2] ^= t;
    state[3] = rotl(state[3], 45);

    return result;
}

std::uint64_t
Rng::nextBelow(std::uint64_t bound)
{
    if (bound == 0)
        return 0;
    // Rejection sampling to remove modulo bias.
    const std::uint64_t threshold = -bound % bound;
    for (;;) {
        std::uint64_t r = next();
        if (r >= threshold)
            return r % bound;
    }
}

std::uint64_t
Rng::nextRange(std::uint64_t lo, std::uint64_t hi)
{
    return lo + nextBelow(hi - lo + 1);
}

double
Rng::nextDouble()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool
Rng::nextBool(double p)
{
    return nextDouble() < p;
}

std::uint64_t
Rng::nextZipf(std::uint64_t n, double theta)
{
    // Standard incremental Zipf sampler (cf. Gray et al., SIGMOD'94).
    if (n != zipfN || theta != zipfTheta) {
        zipfN = n;
        zipfTheta = theta;
        zipfZeta2 = 1.0 + std::pow(0.5, theta);
        // Harmonic-like zeta(n, theta); O(n) but computed once per
        // (n, theta) pair which workloads fix at construction.
        double zeta = 0.0;
        for (std::uint64_t i = 1; i <= n; ++i)
            zeta += 1.0 / std::pow(static_cast<double>(i), theta);
        zipfZetaN = zeta;
        zipfAlpha = 1.0 / (1.0 - theta);
        zipfEta = (1.0 - std::pow(2.0 / static_cast<double>(n),
                                  1.0 - theta)) /
                  (1.0 - zipfZeta2 / zeta);
    }

    const double u = nextDouble();
    const double uz = u * zipfZetaN;
    if (uz < 1.0)
        return 0;
    if (uz < zipfZeta2)
        return 1;
    auto rank = static_cast<std::uint64_t>(
        static_cast<double>(zipfN) *
        std::pow(zipfEta * u - zipfEta + 1.0, zipfAlpha));
    return rank >= zipfN ? zipfN - 1 : rank;
}

template <class Ar>
void
Rng::persist(Ar &ar)
{
    for (std::uint64_t &s : state)
        ar.u64(s);
    ar.u64(zipfN);
    ar.f64(zipfTheta);
    ar.f64(zipfZetaN);
    ar.f64(zipfAlpha);
    ar.f64(zipfEta);
    ar.f64(zipfZeta2);
}

template void Rng::persist(ckpt::Encoder &);
template void Rng::persist(ckpt::Decoder &);

} // namespace emv
