#include "paging/page_table.hh"

#include <algorithm>

#include "common/audit.hh"
#include "common/ckpt.hh"
#include "common/logging.hh"

namespace emv::paging {

namespace {

/** Bytes one entry of a level-@p level table covers. */
constexpr Addr
entryBytes(int level)
{
    return 1ull << (12 + 9 * (level - 1));
}

/** The zeros unmapRange() writes over a run of cleared leaves. */
constexpr std::uint64_t kZeroRun[kEntriesPerTable] = {};

/** Offset just past @p pos within [0, @p bytes) where the naturally
 *  aligned @p span block holding @p va + @p pos ends. */
Addr
blockEnd(Addr va, Addr pos, Addr bytes, Addr span)
{
    const Addr left = span - ((va + pos) & (span - 1));
    return left >= bytes - pos ? bytes : pos + left;
}

} // namespace

PageTable::PageTable(MemSpace &space)
    : space(space), rootFrame(space.allocTableFrame())
{
    liveEntries.emplace(rootFrame, 0);
}

PageTable::~PageTable()
{
    freeSubtree(rootFrame, kLevels);
}

void
PageTable::freeSubtree(Addr table, int level)
{
    if (level > 1) {
        std::uint64_t entries[kEntriesPerTable];
        space.readRun(table, kEntriesPerTable, entries);
        for (const std::uint64_t raw : entries) {
            const Pte pte{raw};
            if (pte.present() && !pte.pageSize())
                freeSubtree(pte.frame(), level - 1);
        }
    }
    space.freeTableFrame(table);
    liveEntries.erase(table);
}

std::uint32_t
PageTable::scanPresent(Addr table) const
{
    std::uint64_t entries[kEntriesPerTable];
    space.readRun(table, kEntriesPerTable, entries);
    std::uint32_t present = 0;
    for (const std::uint64_t raw : entries)
        present += Pte{raw}.present();
    return present;
}

bool
PageTable::nodeEmpty(Addr table) const
{
    const std::uint32_t live = liveEntries.at(table);
    EMV_INVARIANT(live == scanPresent(table),
                  "page table: node %s has live count %u but %u "
                  "present entries", hexAddr(table).c_str(), live,
                  scanPresent(table));
    return live == 0;
}

int
PageTable::descend(Addr va, int target, bool create, Path &path,
                   bool resume)
{
    if (!resume) {
        path.depth = 0;
        path.tables[0] = rootFrame;
    }
    for (int level = kLevels - path.depth; level > target; --level) {
        const Addr table = path.tables[path.depth];
        const Addr entry_addr = table + 8ull * tableIndex(va, level);
        Pte pte{space.read64(entry_addr)};
        Addr child;
        if (pte.present() && !pte.pageSize()) {
            child = pte.frame();
        } else if (!create) {
            path.stop = pte;
            return level;
        } else {
            emv_assert(!pte.present(),
                       "map: %s page at va %s conflicts with an "
                       "existing %s leaf",
                       pageSizeName(leafSize(target)),
                       hexAddr(va).c_str(),
                       pageSizeName(leafSize(level)));
            child = space.allocTableFrame();
            space.write64(entry_addr, Pte::makeTable(child));
            ++liveEntries[table];
            liveEntries.emplace(child, 0);
        }
        path.entries[path.depth] = entry_addr;
        path.tables[++path.depth] = child;
    }
    return target;
}

void
PageTable::freeEmptyTables(const Path &path)
{
    for (int i = path.depth; i > 0; --i) {
        const Addr child = path.tables[i];
        if (!nodeEmpty(child))
            break;
        space.write64(path.entries[i - 1], 0);
        space.freeTableFrame(child);
        liveEntries.erase(child);
        --liveEntries[path.tables[i - 1]];
    }
}

template <typename FrameAt>
void
PageTable::mapLeaves(Addr va, Addr bytes, PageSize size, bool writable,
                     bool user_mode, FrameAt frame_at, bool stepping,
                     Path &path, bool resume)
{
    const Addr step = pageBytes(size);
    const int target = leafLevel(size);
    std::uint64_t run[kEntriesPerTable];
    for (Addr pos = 0; pos < bytes; resume = false) {
        descend(va + pos, target, true, path, resume);
        const Addr table = path.tables[path.depth];
        std::uint32_t &live = liveEntries.at(table);
        const Addr first = va + pos;
        const Addr end = blockEnd(va, pos, bytes, entryBytes(target + 1));
        const auto n = static_cast<unsigned>((end - pos) / step);
        const Addr run_addr = table + 8ull * tableIndex(first, target);
        // An empty table has no entry to collide with, and a resumed
        // descent's span was checked clear.
        if (!resume && live != 0) {
            space.readRun(run_addr, n, run);
            for (unsigned i = 0; i < n; ++i) {
                emv_assert(!Pte{run[i]}.present(),
                           "map: va %s already mapped (unmap first)",
                           hexAddr(first + i * step).c_str());
            }
        }
        if (stepping && n == kEntriesPerTable) {
            // Frames below 2^52 that step by the page size make
            // entries that step by it too.
            space.writeStep(run_addr,
                            Pte::makeLeaf(frame_at(pos), target,
                                          writable, user_mode),
                            step);
            pos += n * step;
        } else {
            for (unsigned i = 0; i < n; ++i, pos += step)
                run[i] = Pte::makeLeaf(frame_at(pos), target, writable,
                                       user_mode);
            space.writeRun(run_addr, n, run);
        }
        live += n;
        leaves += n;
        updates += n;
        // Under audit, read every installed leaf back.
        if (!audit::enabled())
            continue;
        for (unsigned i = 0; i < n; ++i) {
            const Addr page = first + i * step;
            const Addr pa = frame_at(page - va);
            EMV_CHECK([&] {
                          auto readback = translate(page);
                          return readback && readback->pa == pa &&
                                 readback->size == size;
                      }(),
                      "map: software readback of va %s disagrees with "
                      "the just-installed %s leaf at pa %s",
                      hexAddr(page).c_str(), pageSizeName(size),
                      hexAddr(pa).c_str());
        }
    }
}

void
PageTable::mapRange(Addr va, Addr pa, Addr bytes, PageSize size,
                    bool writable, bool user_mode)
{
    const Addr step = pageBytes(size);
    emv_assert(isAligned(va, step), "map: va %s not aligned to %s page",
               hexAddr(va).c_str(), pageSizeName(size));
    emv_assert(isAligned(pa, step), "map: pa %s not aligned to %s page",
               hexAddr(pa).c_str(), pageSizeName(size));
    emv_assert(isAligned(bytes, step),
               "map: length %s not a multiple of the %s page",
               hexAddr(bytes).c_str(), pageSizeName(size));
    emv_assert(bytes == 0 || (pa + bytes - 1) >> 52 == 0,
               "map: frames [%s, +%s) reach past 2^52",
               hexAddr(pa).c_str(), hexAddr(bytes).c_str());
    Path path;
    mapLeaves(va, bytes, size, writable, user_mode,
              [pa](Addr pos) { return pa + pos; }, true, path, false);
}

bool
PageTable::mapIfUnmapped(Addr va, Addr bytes, PageSize size,
                         const std::function<const Addr *()> &frames)
{
    const Addr step = pageBytes(size);
    const int target = leafLevel(size);
    const Addr span = entryBytes(target + 1);
    emv_assert(isAligned(va, step) && isAligned(bytes, step) &&
                   bytes > 0 &&
                   alignDown(va, span) == alignDown(va + bytes - 1, span),
               "mapIfUnmapped: [%s, +%s) is not %s pages inside one "
               "leaf table", hexAddr(va).c_str(), hexAddr(bytes).c_str(),
               pageSizeName(size));
    Path path;
    if (descend(va, target, false, path) == target) {
        // The leaf table exists: unless it is empty, read the span.
        const Addr table = path.tables[path.depth];
        if (liveEntries.at(table) != 0) {
            const auto n = static_cast<unsigned>(bytes / step);
            std::uint64_t entries[kEntriesPerTable];
            space.readRun(table + 8ull * tableIndex(va, target), n,
                          entries);
            for (unsigned i = 0; i < n; ++i) {
                if (Pte{entries[i]}.present())
                    return false;
            }
        }
    } else if (path.stop.present()) {
        return false;  // A larger leaf covers the span.
    }
    const Addr *pa = frames();
    if (!pa)
        return false;
    mapLeaves(va, bytes, size, true, true,
              [pa, step](Addr pos) { return pa[pos / step]; }, false,
              path, true);
    return true;
}

std::uint64_t
PageTable::unmapRange(Addr va, Addr bytes, PageSize size)
{
    const Addr step = pageBytes(size);
    emv_assert(isAligned(va, step),
               "unmap: va %s not aligned to %s page",
               hexAddr(va).c_str(), pageSizeName(size));
    emv_assert(isAligned(bytes, step),
               "unmap: length %s not a multiple of the %s page",
               hexAddr(bytes).c_str(), pageSizeName(size));

    const int target = leafLevel(size);
    std::uint64_t removed = 0;
    Path path;
    for (Addr pos = 0; pos < bytes;) {
        const int reached = descend(va + pos, target, false, path);
        if (reached != target) {
            // No table below this entry: skip all the pages it covers.
            pos = blockEnd(va, pos, bytes, entryBytes(reached));
            continue;
        }
        const Addr table = path.tables[path.depth];
        const Addr end = blockEnd(va, pos, bytes, entryBytes(target + 1));
        const auto n = static_cast<unsigned>((end - pos) / step);
        const Addr run_addr = table + 8ull * tableIndex(va + pos, target);
        pos = end;
        // Skip absent entries and tables of smaller mappings.
        const auto is_leaf = [target](std::uint64_t raw) {
            const Pte pte{raw};
            return pte.present() && (target == 1 || pte.pageSize());
        };
        std::uint64_t first = 0, stride = 0;
        const bool linear = n == kEntriesPerTable &&
                            space.readStep(run_addr, first, stride);
        unsigned cleared = 0;
        if (linear && (stride & (kPage4K - 1)) == 0) {
            // Every entry has the flag bits of the first: the table
            // is all leaves or has none.
            if (is_leaf(first)) {
                space.writeStep(run_addr, 0, 0);
                cleared = n;
            }
        } else {
            std::uint64_t entries[kEntriesPerTable];
            if (linear) {
                for (unsigned i = 0; i < n; ++i)
                    entries[i] = first + i * stride;
            } else {
                space.readRun(run_addr, n, entries);
            }
            for (unsigned i = 0; i < n;) {
                if (!is_leaf(entries[i])) {
                    ++i;
                    continue;
                }
                unsigned j = i + 1;
                while (j < n && is_leaf(entries[j]))
                    ++j;
                space.writeRun(run_addr + 8ull * i, j - i, kZeroRun);
                cleared += j - i;
                i = j;
            }
        }
        if (cleared) {
            liveEntries.at(table) -= cleared;
            leaves -= cleared;
            updates += cleared;
            removed += cleared;
            freeEmptyTables(path);
        }
    }
    return removed;
}

void
PageTable::visitLeaves(Addr table, int level, Addr va_prefix, Addr first,
                       Addr last,
                       const std::function<void(const Leaf &)> &fn)
    const
{
    // Read the entries that intersect [first, last] as one run.
    const Addr step = entryBytes(level);
    const Addr span_last = va_prefix + (kEntriesPerTable * step - 1);
    if (last < va_prefix || first > span_last)
        return;
    const auto lo = static_cast<unsigned>(
        first > va_prefix ? (first - va_prefix) / step : 0);
    const auto hi = static_cast<unsigned>(
        (std::min(last, span_last) - va_prefix) / step);
    std::uint64_t entries[kEntriesPerTable];
    space.readRun(table + 8ull * lo, hi - lo + 1, entries);
    for (unsigned i = lo; i <= hi; ++i) {
        const Addr va = va_prefix + static_cast<Addr>(i) * step;
        Pte pte{entries[i - lo]};
        if (!pte.present())
            continue;
        const bool leaf = level == 1 || pte.pageSize();
        if (leaf) {
            Leaf out;
            out.va = va;
            out.pa = pte.frame();
            out.size = leafSize(level);
            out.writable = pte.writable();
            fn(out);
        } else {
            visitLeaves(pte.frame(), level - 1, va, first, last, fn);
        }
    }
}

void
PageTable::forEachLeaf(const std::function<void(const Leaf &)> &fn)
    const
{
    visitLeaves(rootFrame, kLevels, 0, 0, ~Addr{0}, fn);
}

void
PageTable::forEachLeafIn(Addr va, Addr bytes,
                         const std::function<void(const Leaf &)> &fn)
    const
{
    if (bytes > 0)
        visitLeaves(rootFrame, kLevels, 0, va, va + (bytes - 1), fn);
}

bool
PageTable::leafRangeOccupied(Addr va, PageSize size) const
{
    const int target = leafLevel(size);
    Addr table = rootFrame;
    for (int level = kLevels; level > target; --level) {
        Pte pte{space.read64(table + 8ull * tableIndex(va, level))};
        if (!pte.present())
            return false;
        if (pte.pageSize())
            return true;  // Covered by a larger leaf.
        table = pte.frame();
    }
    // Present at the target level — as a leaf *or* as a table of
    // smaller mappings — means the range is occupied.
    Pte pte{space.read64(table + 8ull * tableIndex(va, target))};
    return pte.present();
}

std::optional<SoftTranslation>
PageTable::translate(Addr va) const
{
    Addr table = rootFrame;
    for (int level = kLevels; level >= 1; --level) {
        const Addr entry_addr = table + 8ull * tableIndex(va, level);
        Pte pte{space.read64(entry_addr)};
        if (!pte.present())
            return std::nullopt;
        const bool leaf = level == 1 || pte.pageSize();
        if (leaf) {
            const PageSize size = leafSize(level);
            SoftTranslation out;
            out.size = size;
            out.writable = pte.writable();
            out.pa = pte.frame() + (va & (pageBytes(size) - 1));
            return out;
        }
        table = pte.frame();
    }
    return std::nullopt;
}

template <class Ar>
void
PageTable::persist(Ar &ar)
{
    // The entries themselves are restored with physical memory; only
    // the tree metadata lives here.  A load supersedes the
    // constructor-allocated root with the saved one (its frame is
    // accounted for by the restored allocator state).  The live
    // counts are restored too, so the tree is never read back
    // through the MemSpace.
    ar.u64(rootFrame);
    ar.u64(leaves);
    ar.u64(updates);

    std::vector<std::pair<Addr, std::uint32_t>> counts;
    if constexpr (!Ar::loading) {
        counts.assign(liveEntries.begin(), liveEntries.end());
        std::sort(counts.begin(), counts.end());
    }
    ar.seq(counts, [&](auto &count) {
        ar.u64(count.first);
        ar.u32(count.second);
    });
    if constexpr (Ar::loading) {
        liveEntries = {counts.begin(), counts.end()};
        validate(ar);
    }
}

template void PageTable::persist(ckpt::Encoder &);
template void PageTable::persist(ckpt::Decoder &);

void
PageTable::validate(ckpt::Decoder &dec) const
{
    dec.check(liveEntries.count(rootFrame) != 0,
              "page table: no live count for the root");
}

} // namespace emv::paging
