/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Every stochastic element of the simulator (workload address
 * streams, fragmentation injection, bad-page selection, Bloom-filter
 * hash matrices) draws from an explicitly seeded Rng so that every
 * experiment is exactly reproducible from its printed seed.
 */

#pragma once

#include <cstdint>

namespace emv {

namespace ckpt {
class Encoder;
class Decoder;
} // namespace ckpt

/**
 * xoshiro256** generator seeded through SplitMix64.
 *
 * Small, fast, and high quality; good enough for workload synthesis
 * and far more reproducible across platforms than std::mt19937
 * pipelines through distribution objects.
 *
 * Thread-safety: none by design.  Each Rng is a deterministic
 * stream owned by exactly one component (machine, workload,
 * injector) and advanced only from that owner's thread; sharing a
 * stream across threads would make the draw order — and therefore
 * every checkpoint — schedule-dependent.  sim::runMatrix() gives
 * each cell's Machine its own seed instead of sharing streams.
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Uniform 64-bit value. */
    std::uint64_t next();

    /** Uniform value in [0, bound) with rejection for unbiasedness. */
    std::uint64_t nextBelow(std::uint64_t bound);

    /** Uniform value in [lo, hi] inclusive. */
    std::uint64_t nextRange(std::uint64_t lo, std::uint64_t hi);

    /** Uniform double in [0, 1). */
    double nextDouble();

    /** Bernoulli draw with probability @p p. */
    bool nextBool(double p);

    /**
     * Zipfian rank in [0, n) with exponent @p theta, via rejection
     * inversion (Gray et al.)-style approximation suitable for the
     * large n used by key-value workloads.
     */
    std::uint64_t nextZipf(std::uint64_t n, double theta);

    /**
     * Checkpoint the full generator state (xoshiro words + cached
     * Zipf parameters) so a restored stream continues bit-exactly.
     */
    template <class Ar>
    void persist(Ar &ar);

  private:
    std::uint64_t state[4];

    /** Cached parameters for nextZipf (recomputed when n changes). */
    std::uint64_t zipfN = 0;
    double zipfTheta = 0.0;
    double zipfZetaN = 0.0;
    double zipfAlpha = 0.0;
    double zipfEta = 0.0;
    double zipfZeta2 = 0.0;
};

/** SplitMix64 step, exposed for seeding derived generators. */
std::uint64_t splitMix64(std::uint64_t &state);

} // namespace emv

