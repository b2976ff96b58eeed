/**
 * @file
 * x86-64 four-level page-table builder.
 *
 * A PageTable is a real radix tree of encoded 64-bit entries stored
 * through a MemSpace.  The MemSpace abstraction captures *whose*
 * memory the table nodes live in:
 *
 *  - the nested page table's nodes live directly in host physical
 *    memory (the VMM runs natively);
 *  - the guest page table's nodes live in *guest physical* memory,
 *    whose bytes physically reside wherever the VMM mapped each gPA
 *    — so guest-table reads/writes are themselves translated, which
 *    is precisely what makes the 2D walk two-dimensional.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "mem/phys_accessor.hh"
#include "paging/pte.hh"

namespace emv {
namespace ckpt {
class Encoder;
class Decoder;
} // namespace ckpt
} // namespace emv

namespace emv::paging {

/**
 * Address space in which a page table's nodes are allocated and
 * accessed: the word interface of mem::PhysAccessor plus table-frame
 * allocation.  Implementations: os::FrameManager (the guest OS's, so
 * process tables route through the VMM's mapping, and the VMM's, for
 * nested and shadow tables in host memory) and test harnesses.
 */
class MemSpace : public mem::PhysAccessor
{
  public:
    /** Allocate and zero a 4 KB frame for a table node. */
    virtual Addr allocTableFrame() = 0;

    /** Release a table-node frame. */
    virtual void freeTableFrame(Addr frame) = 0;
};

/** Result of a software (non-simulated) translation. */
struct SoftTranslation
{
    Addr pa = 0;            //!< Full translated address.
    PageSize size = PageSize::Size4K;
    bool writable = false;
};

/**
 * Four-level x86-64 page table.
 *
 * mapRange()/unmapRange() maintain the radix tree one leaf table at
 * a time; map()/unmap() are their one-page calls, and
 * mapIfUnmapped() is populate's check-then-map of one leaf table, so
 * all of them share one descent.  translate() is a software walk
 * used for correctness checks and by the shadow pager.  The
 * simulated, cycle-accounted walk is radixWalk() in walker.hh.
 */
class PageTable
{
  public:
    explicit PageTable(MemSpace &space);
    ~PageTable();

    PageTable(const PageTable &) = delete;
    PageTable &operator=(const PageTable &) = delete;

    /**
     * Map [@p va, @p va + @p bytes) to the frames from @p pa as pages
     * of @p size; all three must be size-aligned, and the frames
     * below 2^52.  Descends once per leaf table and writes up to 512
     * entries there as one run (a whole table as one writeStep()),
     * leaving every count, entry and table-frame allocation exactly
     * as the per-page map() sequence over the range would.  Panics
     * on conflicting existing mappings (callers unmap first).
     */
    void mapRange(Addr va, Addr pa, Addr bytes, PageSize size,
                  bool writable = true, bool user_mode = true);

    /**
     * Map the @p size pages of [@p va, @p va + @p bytes), all inside
     * one leaf table's span, to the frames @p frames supplies, one
     * per page in ascending VA order, but only if none of them is
     * mapped: no larger leaf covers the span, and its leaf table is
     * absent, empty, or holds none of the span's entries (read only
     * in that last case).  One descent makes the check; @p frames
     * then runs, before any table is made, and may decline by
     * returning nullptr; the descent then resumes to make the
     * missing tables, and the entries are written without reading
     * them again.  Tables, counts and entries end as the per-page
     * map() sequence would leave them.
     * @return true if the span was mapped; false changes nothing.
     */
    bool mapIfUnmapped(Addr va, Addr bytes, PageSize size,
                       const std::function<const Addr *()> &frames);

    /**
     * Remove the @p size leaves at the size-aligned pages of
     * [@p va, @p va + @p bytes).  Pages without such a leaf (holes,
     * larger leaves above, smaller mappings below) are skipped, as
     * unmap() skips them.  A whole leaf table the space holds as a
     * step descriptor is read and cleared as one (readStep(),
     * writeStep()).  Tables left empty are freed bottom-up once per
     * leaf table, in the order the per-page sequence frees them.
     * @return the number of leaves removed.
     */
    std::uint64_t unmapRange(Addr va, Addr bytes, PageSize size);

    /** Map one page: a one-page mapRange(). */
    void
    map(Addr va, Addr pa, PageSize size, bool writable = true,
        bool user_mode = true)
    {
        mapRange(va, pa, pageBytes(size), size, writable, user_mode);
    }

    /**
     * Remove the mapping of the page of @p size at @p va: a one-page
     * unmapRange().  @return true if a mapping was removed.
     */
    bool
    unmap(Addr va, PageSize size)
    {
        return unmapRange(va, pageBytes(size), size) != 0;
    }

    /** Software walk; nullopt if not mapped. */
    std::optional<SoftTranslation> translate(Addr va) const;

    /** One leaf mapping, as visited by forEachLeaf(). */
    struct Leaf
    {
        Addr va = 0;
        Addr pa = 0;       //!< Frame base.
        PageSize size = PageSize::Size4K;
        bool writable = false;
    };

    /**
     * Visit every leaf mapping in ascending VA order (reverse-map
     * construction for compaction and the shadow pager).
     */
    void forEachLeaf(const std::function<void(const Leaf &)> &fn) const;

    /**
     * Visit, in ascending VA order, every leaf that intersects
     * [@p va, @p va + @p bytes) (low canonical half), reading only
     * the entries that cover the range.
     */
    void forEachLeafIn(Addr va, Addr bytes,
                       const std::function<void(const Leaf &)> &fn)
        const;

    /** True if @p va has any mapping. */
    bool isMapped(Addr va) const { return translate(va).has_value(); }

    /**
     * True if mapping a page of @p size at @p va would conflict:
     * either a covering leaf exists above/at that level, or any
     * smaller mappings exist below it.  O(levels), not O(pages).
     */
    bool leafRangeOccupied(Addr va, PageSize size) const;

    /** Root node address (in this table's MemSpace). */
    Addr root() const { return rootFrame; }

    /** Number of live leaf mappings. */
    std::uint64_t mappedLeaves() const { return leaves; }

    /** Number of table nodes (including the root). */
    std::uint64_t tableNodes() const { return liveEntries.size(); }

    /** Monotonic count of map/unmap operations (PT update events). */
    std::uint64_t updateCount() const { return updates; }

    /** Bytes of memory consumed by table nodes. */
    Addr tableBytes() const { return tableNodes() * kPage4K; }

    /**
     * Checkpoint table metadata (root, leaf/update counts and the
     * per-node live-entry counts, sorted by node address).  The
     * tree contents themselves live in the MemSpace's physical
     * memory and are captured by the PhysMemory chunk, so restore
     * never reads the tree.
     */
    template <class Ar>
    void persist(Ar &ar);

  private:
    /** Post-load check: the root has a live count. */
    void validate(ckpt::Decoder &dec) const;

    /** The tables from the root down to one leaf table. */
    struct Path
    {
        /** tables[0] is the root, tables[depth] the table reached. */
        Addr tables[kLevels];
        /** entries[i] is the entry in tables[i] that points to
         *  tables[i + 1]. */
        Addr entries[kLevels];
        int depth = 0;
        /** The entry the walk stopped at when it stopped early. */
        Pte stop{0};
    };

    /**
     * The one descent of map and unmap: walk from the root towards
     * the level-@p target table that holds @p va's entry, recording
     * the path.  With @p create, missing tables are allocated (a leaf
     * on the way panics); otherwise the walk stops at a missing or
     * leaf entry.  With @p resume the walk continues from the last
     * table @p path reached instead of the root.
     * @return the level of the last table reached: @p target unless
     *         the walk stopped early.
     */
    int descend(Addr va, int target, bool create, Path &path,
                bool resume = false);

    /**
     * The loop of mapRange() and mapIfUnmapped(): write the leaves of
     * [@p va, @p va + @p bytes), page i to frame_at(i * page), one
     * leaf table at a time.  With @p stepping, frame_at(pos) is
     * frame_at(0) + pos, so a whole leaf table is one writeStep().
     * With @p resume the first descent resumes @p path, whose span
     * was checked clear, so its entries are not read.
     */
    template <typename FrameAt>
    void mapLeaves(Addr va, Addr bytes, PageSize size, bool writable,
                   bool user_mode, FrameAt frame_at, bool stepping,
                   Path &path, bool resume);

    /** Free the path's tables left empty, bottom-up (not the root). */
    void freeEmptyTables(const Path &path);

    /** Recursively free an entire subtree. */
    void freeSubtree(Addr table, int level);

    /** Recursive helper for forEachLeaf(): leaves intersecting
     *  [first, last]. */
    void visitLeaves(Addr table, int level, Addr va_prefix, Addr first,
                     Addr last,
                     const std::function<void(const Leaf &)> &fn) const;

    /**
     * True if the node holds no present entries: an O(1) check of
     * its live count (audited against a rescan of the node).
     */
    bool nodeEmpty(Addr table) const;

    /** Present entries in the node, by reading all 512 of them. */
    std::uint32_t scanPresent(Addr table) const;

    MemSpace &space;
    Addr rootFrame;
    std::uint64_t leaves = 0;
    std::uint64_t updates = 0;
    /** Present entries per table node (the root included), keyed by
     *  node address; its size is the node count. */
    std::unordered_map<Addr, std::uint32_t> liveEntries;
};

} // namespace emv::paging

