/**
 * @file
 * Half-open interval set over 64-bit addresses.
 *
 * Used everywhere a module reasons about ranges of frames or pages:
 * free guest-physical ranges (self-ballooning looks for the largest
 * contiguous run), memory slots, hot-plugged regions, and segment
 * candidates.
 */

#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "common/types.hh"

namespace emv {

namespace ckpt {
class Encoder;
class Decoder;
} // namespace ckpt

/** A half-open range [start, end). */
struct Interval
{
    Addr start = 0;
    Addr end = 0;

    Addr length() const { return end - start; }
    bool empty() const { return end <= start; }
    bool contains(Addr addr) const { return addr >= start && addr < end; }

    bool operator==(const Interval &) const = default;
};

/**
 * Set of disjoint half-open intervals with coalescing insert and
 * splitting erase.
 *
 * Besides the intervals by start it keeps them by length and their
 * total, so largest(), findFit() and totalLength() cost O(log n) or
 * less instead of a scan: the buddy allocator's free-run index is
 * queried after every fragmenter pin and compaction step.
 */
class IntervalSet
{
  public:
    IntervalSet() = default;

    /**
     * The set of @p runs, which must ascend, be disjoint and not
     * touch (as intervals() returns them).  No audit runs, so a
     * restore can rebuild a set without counting checks.
     */
    explicit IntervalSet(const std::vector<Interval> &runs);

    /** Insert [start, end), merging with any overlapping/adjacent. */
    void insert(Addr start, Addr end);

    /** Remove [start, end), splitting intervals as needed. */
    void erase(Addr start, Addr end);

    /** True if @p addr lies in some interval. */
    bool contains(Addr addr) const;

    /** True if the whole range [start, end) is covered. */
    bool containsRange(Addr start, Addr end) const;

    /** True if any byte of [start, end) is covered. */
    bool intersectsRange(Addr start, Addr end) const;

    /** Bytes of [start, end) covered by the set. */
    Addr coveredBytesInRange(Addr start, Addr end) const;

    /** Total bytes covered. */
    Addr totalLength() const { return total; }

    /** Largest single interval (the lowest of equals), if any. */
    std::optional<Interval> largest() const;

    /**
     * The highest @p bytes the set covers, as intervals from the top
     * down (the last one trimmed to fit); empty when the set covers
     * fewer bytes.
     */
    std::vector<Interval> highest(Addr bytes) const;

    /**
     * Smallest interval of at least @p length bytes whose start is
     * aligned to @p align; best-fit to limit fragmentation.  Of
     * equally long intervals the lowest wins.
     */
    std::optional<Interval> findFit(Addr length, Addr align = 1) const;

    /**
     * Highest-addressed aligned fit of at least @p length bytes
     * (placed at the top of the highest interval that fits).
     */
    std::optional<Interval> findFitHigh(Addr length,
                                        Addr align = 1) const;

    /**
     * Lowest-addressed aligned fit whose start is >= @p min_start;
     * falls back to the lowest fit anywhere if none qualifies.
     */
    std::optional<Interval> findFitLowAbove(Addr length, Addr align,
                                            Addr min_start) const;

    /** All intervals in ascending order. */
    std::vector<Interval> intervals() const;

    /**
     * Audit-mode structural check (EMV_INVARIANT): every interval is
     * non-empty, the set is disjoint *and* coalesced (no two
     * intervals touch), and the length index and total agree with
     * the intervals.  @p what names the owner in failure records.
     * Called automatically by insert()/erase() under auditing.
     */
    void auditInvariants(const char *what = "intervals") const;

    bool empty() const { return byStart.empty(); }
    std::size_t count() const { return byStart.size(); }
    void clear();

    /**
     * Intervals examined or changed so far by every set on the
     * calling thread: a host-work count, so a test can check that a
     * caller's queries scale with the intervals they touch rather
     * than with a set, also when a set is built just to be queried.
     */
    static std::uint64_t threadWork();

    /** Checkpoint the interval list (replaces contents on restore). */
    template <class Ar>
    void persist(Ar &ar);

  private:
    using StartMap = std::map<Addr, Addr>;

    /** Add [start, end), which touches no interval of the set. */
    void add(Addr start, Addr end);
    /** Remove one interval; @return the next one by start. */
    StartMap::iterator remove(StartMap::iterator it);
    /**
     * Make @p it the interval [start, end), which touches no other
     * interval, by editing its index nodes in place: no allocation.
     */
    void reshape(StartMap::iterator it, Addr start, Addr end);

    /** start -> end. */
    StartMap byStart;
    /** (length, start) of every interval. */
    std::set<std::pair<Addr, Addr>> byLength;
    Addr total = 0;
};

} // namespace emv

