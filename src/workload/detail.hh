/**
 * @file
 * Shared plumbing for workload generators (region bookkeeping,
 * footprint scaling).  Internal to the workload library.
 */

#pragma once

#include "common/logging.hh"
#include "workload/workload.hh"

namespace emv::workload {

/**
 * Base class handling region specs and binding.  @p Derived lists
 * its cursor fields once, in a public `template <class Ar> void
 * fields(Ar &ar)`, which both checkpoint archives run after the RNG
 * stream.
 */
template <class Derived>
class BasicWorkload : public Workload
{
  public:
    explicit BasicWorkload(std::uint64_t seed) : Workload(seed) {}

    void persist(ckpt::Encoder &ar) override { persistAll(ar); }
    void persist(ckpt::Decoder &ar) override { persistAll(ar); }

    const WorkloadInfo &
    info() const override
    {
        return _info;
    }

    const std::vector<RegionSpec> &
    regions() const override
    {
        return specs;
    }

    void
    bindRegions(const std::vector<Addr> &b) override
    {
        emv_assert(b.size() == specs.size(),
                   "bindRegions: %zu bases for %zu regions", b.size(),
                   specs.size());
        bases = b;
    }

  protected:
    /** Base VA of region @p i (after binding). */
    Addr
    base(std::size_t i) const
    {
        emv_assert(i < bases.size(),
                   "region %zu accessed before binding", i);
        return bases[i];
    }

    Addr
    bytesOf(std::size_t i) const
    {
        return specs[i].bytes;
    }

    /** Scale a footprint, keeping 2M alignment and a sane floor. */
    static Addr
    scaleBytes(Addr bytes, double scale)
    {
        auto scaled = static_cast<Addr>(
            static_cast<double>(bytes) * scale);
        scaled = alignUp(std::max<Addr>(scaled, 4 * MiB), kPage2M);
        return scaled;
    }

    /** Uniform random 8-byte-aligned address within region @p i. */
    Addr
    randomIn(std::size_t i)
    {
        return base(i) + (rng.nextBelow(bytesOf(i) / 8) * 8);
    }

    /** Total footprint across regions (for info()). */
    Addr
    totalFootprint() const
    {
        Addr total = 0;
        for (const auto &spec : specs)
            total += spec.bytes;
        return total;
    }

    WorkloadInfo _info;
    std::vector<RegionSpec> specs;
    std::vector<Addr> bases;

  private:
    template <class Ar>
    void
    persistAll(Ar &ar)
    {
        rng.persist(ar);
        static_cast<Derived &>(*this).fields(ar);
    }
};

} // namespace emv::workload

