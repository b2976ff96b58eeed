/**
 * @file
 * Set-associative TLB with LRU replacement.
 *
 * One structure serves two entry kinds, mirroring the evaluation
 * platform (Table VI: "EPT TLB/NTLB shares the TLB — no separate
 * structure"):
 *
 *  - Guest entries: complete gVA→hPA translations;
 *  - Nested entries: gPA→hPA translations cached during 2D walks.
 *
 * Because nested entries occupy the same ways as guest entries, a
 * virtualized run loses effective TLB capacity — the mechanism
 * behind the paper's observed 1.3–1.6x TLB-miss inflation (§IX.A).
 */

#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>

#include "common/stats.hh"
#include "common/types.hh"
#include "tlb/set_assoc.hh"

namespace emv::tlb {

/** What a TLB entry translates. */
enum class EntryKind : std::uint8_t {
    Guest,   //!< gVA→hPA (or native VA→PA).
    Nested,  //!< gPA→hPA, cached by the 2D walk.
};

/** Successful lookup result. */
struct TlbHit
{
    Addr frame = 0;           //!< Base of the translated page.
    PageSize size = PageSize::Size4K;
};

/**
 * A single set-associative translation buffer.  Entries carry their
 * page size; lookups probe one class (kind and size) at a time, the
 * caller deciding which classes this structure holds.  A live-entry
 * count per class lets a probe of a class with no entries count its
 * miss without touching the array: a tag only ever matches its own
 * class, so hits, misses, LRU stamps and victims are unchanged.
 */
class Tlb
{
  public:
    Tlb(StatName name, unsigned sets, unsigned ways);

    /**
     * Probe for the page of @p size containing @p addr.
     * @return The mapping on a hit (LRU updated).
     */
    std::optional<TlbHit> lookup(EntryKind kind, Addr addr,
                                 PageSize size);

    /** Install a mapping (replaces LRU in the set). */
    void insert(EntryKind kind, Addr addr, Addr frame, PageSize size);

    /** Invalidate one page. */
    void flushPage(EntryKind kind, Addr addr, PageSize size);

    /** Invalidate all entries of @p kind. */
    void flushKind(EntryKind kind);

    /** Invalidate everything. */
    void flushAll();

    /** Number of valid entries of @p kind (occupancy accounting). */
    std::size_t occupancy(EntryKind kind) const;

    unsigned sets() const { return array.sets(); }
    unsigned ways() const { return array.ways(); }

    StatGroup &stats() { return _stats; }

    /**
     * Checkpoint entries, LRU clock and stats.  A load fails
     * (structured, no UB) if the saved geometry differs.
     */
    template <class Ar>
    void persist(Ar &ar);

  private:
    /** Live entries per class, indexed by tag & 15. */
    using ClassCounts = std::array<std::uint32_t, 16>;

    /** The array tag: vpn << 4 | kind << 2 | size. */
    static std::uint64_t
    tagOf(EntryKind kind, Addr addr, PageSize size)
    {
        return ((addr >> pageShift(size)) << 4) |
               (static_cast<std::uint64_t>(kind) << 2) |
               static_cast<std::uint64_t>(size);
    }

    struct Stats : StatGroup
    {
        using StatGroup::StatGroup;
        Counter hits{*this, "hits"};
        Counter misses{*this, "misses"};
        Counter inserts{*this, "inserts"};
        Counter evictions{*this, "evictions"};
        Counter kindFlushes{*this, "kind_flushes"};
        Counter fullFlushes{*this, "full_flushes"};
    };

    /** Panic: insert() got a @p frame not aligned to @p size. */
    [[noreturn, gnu::cold]] static void misalignedFrame(Addr frame,
                                                        PageSize size);

    /** Count the array's valid entries per class. */
    ClassCounts recount() const;

    /** Audit: the maintained counts match the array. */
    void checkCounts() const;

    SetAssoc array;
    ClassCounts live{};
    Stats _stats;
};

inline std::optional<TlbHit>
Tlb::lookup(EntryKind kind, Addr addr, PageSize size)
{
    const std::uint64_t tag = tagOf(kind, addr, size);
    if (live[tag & 15] != 0) {
        if (auto frame = array.find(tag)) {
            ++_stats.hits;
            return TlbHit{*frame, size};
        }
    }
    ++_stats.misses;
    return std::nullopt;
}

inline void
Tlb::insert(EntryKind kind, Addr addr, Addr frame, PageSize size)
{
    if (!isAligned(frame, pageBytes(size))) [[unlikely]]
        misalignedFrame(frame, size);
    const std::uint64_t tag = tagOf(kind, addr, size);
    const auto found = array.insert(tag, frame);
    if (found.present)
        return;
    ++live[tag & 15];
    ++_stats.inserts;
    if (found.evicted) {
        --live[found.evictedTag & 15];
        ++_stats.evictions;
    }
}

} // namespace emv::tlb
