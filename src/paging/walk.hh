/**
 * @file
 * Walk traces: the raw material of the paper's cost analysis.
 *
 * Every simulated page walk produces a WalkTrace listing each memory
 * reference (tagged with which dimension and level issued it) and
 * each base-bound calculation.  Fig. 2's "24 references" and Table
 * I/II's "4 accesses + 5 calculations" drop straight out of these
 * traces; the cost model then prices them.
 */

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/logging.hh"
#include "common/types.hh"

namespace emv::paging {

/** Which table a walk reference read. */
enum class RefStage : std::uint8_t {
    GuestTable,   //!< gVA→gPA guest page-table entry (read via hPA).
    NestedTable,  //!< gPA→hPA nested page-table entry.
    NativeTable,  //!< Native (unvirtualized) page-table entry.
    ShadowTable,  //!< Shadow (gVA→hPA) page-table entry.
};

/** Number of RefStage values. */
inline constexpr std::size_t kRefStages = 4;

/** Printable stage name for trace records. */
inline const char *
refStageName(RefStage stage)
{
    switch (stage) {
      case RefStage::GuestTable: return "guest";
      case RefStage::NestedTable: return "nested";
      case RefStage::NativeTable: return "native";
      case RefStage::ShadowTable: return "shadow";
    }
    return "?";
}

/**
 * One memory reference made by the page-walk hardware.  Left without
 * member initializers so a WalkTrace's unused slots cost nothing to
 * construct; WalkTrace::addRef writes every field.
 */
struct WalkRef
{
    Addr hpa;           //!< Host physical address actually read.
    RefStage stage;
    std::int8_t level;  //!< Radix level (4..1) of the entry.
};

/**
 * A walk's references in fixed inline storage: no heap allocation
 * per walk.  Read-only to callers; WalkTrace::addRef appends.
 */
class WalkRefs
{
  public:
    /** Fig. 2's worst case: a 2D walk over 4-level tables makes
     *  4 x (4 nested + 1 guest) + 4 = 24 references. */
    static constexpr std::size_t kCapacity = 24;

    std::size_t size() const { return count; }
    bool empty() const { return count == 0; }
    const WalkRef &operator[](std::size_t i) const { return items[i]; }
    const WalkRef *begin() const { return items; }
    const WalkRef *end() const { return items + count; }

  private:
    friend struct WalkTrace;

    WalkRef items[kCapacity];
    std::size_t count = 0;
};

/** Full record of one translation's walk activity. */
struct WalkTrace
{
    WalkRefs refs;
    unsigned calculations = 0;  //!< Base-bound checks / segment adds.

    void
    addRef(Addr hpa, RefStage stage, int level)
    {
        emv_assert(refs.count < WalkRefs::kCapacity,
                   "walk trace overflow: more than %zu references",
                   WalkRefs::kCapacity);
        refs.items[refs.count++] =
            WalkRef{hpa, stage, static_cast<std::int8_t>(level)};
        ++stageRefs[static_cast<std::size_t>(stage)];
    }

    /** References read from @p stage's tables, tallied by addRef. */
    std::size_t
    countStage(RefStage stage) const
    {
        return stageRefs[static_cast<std::size_t>(stage)];
    }

    void
    clear()
    {
        refs.count = 0;
        stageRefs = {};
        calculations = 0;
    }

  private:
    std::array<std::uint8_t, kRefStages> stageRefs{};
};

/** Result of a simulated walk. */
struct WalkOutcome
{
    Addr pa = 0;                       //!< Translated address.
    PageSize size = PageSize::Size4K;  //!< Granule of the mapping.
    bool ok = false;                   //!< False on a page fault.
};

} // namespace emv::paging

