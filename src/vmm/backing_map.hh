/**
 * @file
 * Guest-physical → host-physical backing extents.
 *
 * The VMM's authoritative record of where each gPA lives in host
 * memory, kept as coalesced extents ((gpa, hpa) runs contiguous in
 * *both* spaces).  The nested page table is derived from this map;
 * VMM-segment creation is exactly the question "what is the largest
 * extent?", and ballooning/remapping/migration are hole-punching
 * and splicing operations here.
 */

#pragma once

#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "common/types.hh"

namespace emv {
namespace ckpt {
class Encoder;
class Decoder;
} // namespace ckpt
} // namespace emv

namespace emv::vmm {

/** One backing extent: [gpa, gpa+bytes) -> [hpa, hpa+bytes). */
struct Extent
{
    Addr gpa = 0;
    Addr bytes = 0;
    Addr hpa = 0;

    bool operator==(const Extent &) const = default;
};

/** Coalescing extent map. */
class BackingMap
{
  public:
    /** Add backing; must not overlap existing extents. */
    void add(Addr gpa, Addr bytes, Addr hpa);

    /** Remove backing for [gpa, gpa+bytes), splitting extents. */
    void remove(Addr gpa, Addr bytes);

    /** hPA for @p gpa, if backed. */
    std::optional<Addr> toHpa(Addr gpa) const;

    /** True if the whole range is backed (possibly discontiguously
     *  in hPA). */
    bool covered(Addr gpa, Addr bytes) const;

    /**
     * hPA of @p gpa if [gpa, gpa+bytes) is covered by one extent
     * (i.e. linear in host memory); nullopt otherwise.
     */
    std::optional<Addr> linearHpa(Addr gpa, Addr bytes) const;

    /** All extents in gPA order. */
    std::vector<Extent> extents() const;

    /** The largest extent (contiguous in both spaces). */
    std::optional<Extent> largestExtent() const;

    /** Visit the backed sub-extents intersecting [gpa, gpa+bytes). */
    void forEachIn(Addr gpa, Addr bytes,
                   const std::function<void(const Extent &)> &fn)
        const;

    /** Total backed bytes. */
    Addr totalBytes() const;

    std::size_t extentCount() const { return byGpa.size(); }
    bool empty() const { return byGpa.empty(); }

    /**
     * Audit-mode structural check (EMV_INVARIANT): extents are
     * non-empty, no gPA is double-backed (extents disjoint in gPA),
     * and gPA-adjacent extents are not hPA-contiguous (i.e. the map
     * stays maximally coalesced).  Called automatically by
     * add()/remove() under auditing.
     */
    void auditInvariants() const;

    /** Checkpoint the extent map (replaces contents on restore). */
    template <class Ar>
    void persist(Ar &ar);

  private:
    struct Value
    {
        Addr bytes;
        Addr hpa;
    };

    /** gpa -> (bytes, hpa). */
    std::map<Addr, Value> byGpa;
};

} // namespace emv::vmm

