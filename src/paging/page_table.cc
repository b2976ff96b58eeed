#include "paging/page_table.hh"

#include <algorithm>

#include "common/audit.hh"
#include "common/ckpt.hh"
#include "common/logging.hh"

namespace emv::paging {

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
        for (int i = 0; i < kEntriesPerTable; ++i) {
            Pte pte{space.read64(table + 8ull * i)};
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
    std::uint32_t present = 0;
    for (int i = 0; i < kEntriesPerTable; ++i)
        present += Pte{space.read64(table + 8ull * i)}.present();
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

void
PageTable::map(Addr va, Addr pa, PageSize size, bool writable,
               bool user_mode)
{
    emv_assert(isAligned(va, pageBytes(size)),
               "map: va %s not aligned to %s page",
               hexAddr(va).c_str(), pageSizeName(size));
    emv_assert(isAligned(pa, pageBytes(size)),
               "map: pa %s not aligned to %s page",
               hexAddr(pa).c_str(), pageSizeName(size));

    const int target = leafLevel(size);
    Addr table = rootFrame;
    for (int level = kLevels; level > target; --level) {
        const Addr entry_addr = table + 8ull * tableIndex(va, level);
        Pte pte{space.read64(entry_addr)};
        if (!pte.present()) {
            const Addr child = space.allocTableFrame();
            space.write64(entry_addr, Pte::makeTable(child));
            ++liveEntries[table];
            liveEntries.emplace(child, 0);
            table = child;
        } else {
            emv_assert(!pte.pageSize(),
                       "map: %s page at va %s conflicts with an "
                       "existing %s leaf",
                       pageSizeName(size), hexAddr(va).c_str(),
                       pageSizeName(leafSize(level)));
            table = pte.frame();
        }
    }

    const Addr entry_addr = table + 8ull * tableIndex(va, target);
    Pte existing{space.read64(entry_addr)};
    emv_assert(!existing.present(),
               "map: va %s already mapped (unmap first)",
               hexAddr(va).c_str());
    space.write64(entry_addr,
                  Pte::makeLeaf(pa, target, writable, user_mode));
    ++liveEntries[table];
    ++leaves;
    ++updates;
    EMV_CHECK([&] {
                  auto readback = translate(va);
                  return readback && readback->pa == pa &&
                         readback->size == size;
              }(),
              "map: software readback of va %s disagrees with the "
              "just-installed %s leaf at pa %s",
              hexAddr(va).c_str(), pageSizeName(size),
              hexAddr(pa).c_str());
}

bool
PageTable::unmap(Addr va, PageSize size)
{
    emv_assert(isAligned(va, pageBytes(size)),
               "unmap: va %s not aligned to %s page",
               hexAddr(va).c_str(), pageSizeName(size));

    const int target = leafLevel(size);
    // Record the path so empty tables can be reclaimed bottom-up.
    Addr path_tables[kLevels];
    Addr path_entries[kLevels];
    int depth = 0;

    Addr table = rootFrame;
    for (int level = kLevels; level > target; --level) {
        const Addr entry_addr = table + 8ull * tableIndex(va, level);
        Pte pte{space.read64(entry_addr)};
        if (!pte.present() || pte.pageSize())
            return false;
        path_tables[depth] = table;
        path_entries[depth] = entry_addr;
        ++depth;
        table = pte.frame();
    }

    const Addr entry_addr = table + 8ull * tableIndex(va, target);
    Pte pte{space.read64(entry_addr)};
    if (!pte.present())
        return false;
    const bool is_leaf_here = target > 1 ? pte.pageSize() : true;
    if (!is_leaf_here)
        return false;  // A smaller mapping exists below this level.
    space.write64(entry_addr, 0);
    --liveEntries[table];
    --leaves;
    ++updates;

    // Reclaim now-empty intermediate tables (not the root).
    Addr child = table;
    for (int i = depth - 1; i >= 0; --i) {
        if (child == rootFrame || !nodeEmpty(child))
            break;
        space.write64(path_entries[i], 0);
        space.freeTableFrame(child);
        liveEntries.erase(child);
        --liveEntries[path_tables[i]];
        child = path_tables[i];
    }
    return true;
}

void
PageTable::visitLeaves(Addr table, int level, Addr va_prefix,
                       const std::function<void(const Leaf &)> &fn)
    const
{
    const Addr step = 1ull << (12 + 9 * (level - 1));
    for (int i = 0; i < kEntriesPerTable; ++i) {
        Pte pte{space.read64(table + 8ull * i)};
        if (!pte.present())
            continue;
        const Addr va = va_prefix + static_cast<Addr>(i) * step;
        const bool leaf = level == 1 || pte.pageSize();
        if (leaf) {
            Leaf out;
            out.va = va;
            out.pa = pte.frame();
            out.size = leafSize(level);
            out.writable = pte.writable();
            fn(out);
        } else {
            visitLeaves(pte.frame(), level - 1, va, fn);
        }
    }
}

void
PageTable::forEachLeaf(const std::function<void(const Leaf &)> &fn)
    const
{
    visitLeaves(rootFrame, kLevels, 0, fn);
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

void
PageTable::serialize(ckpt::Encoder &enc) const
{
    enc.u64(rootFrame);
    enc.u64(leaves);
    enc.u64(updates);

    std::vector<std::pair<Addr, std::uint32_t>> counts(
        liveEntries.begin(), liveEntries.end());
    std::sort(counts.begin(), counts.end());
    enc.u64(counts.size());
    for (const auto &[node, live] : counts) {
        enc.u64(node);
        enc.u32(live);
    }
}

bool
PageTable::deserialize(ckpt::Decoder &dec)
{
    // The entries themselves are restored with physical memory; only
    // the tree metadata lives here.  The constructor-allocated root
    // is superseded by the saved root (its frame is accounted for by
    // the restored allocator state).  The live counts are restored
    // too, so the tree is never read back through the MemSpace.
    rootFrame = dec.u64();
    leaves = dec.u64();
    updates = dec.u64();

    liveEntries.clear();
    const std::uint64_t ncounts = dec.u64();
    for (std::uint64_t i = 0; dec.ok() && i < ncounts; ++i) {
        const Addr node = dec.u64();
        const std::uint32_t live = dec.u32();
        if (dec.ok())
            liveEntries.emplace(node, live);
    }
    if (dec.ok() && !liveEntries.count(rootFrame)) {
        dec.fail("page table: no live count for the root");
        return false;
    }
    return dec.ok();
}

} // namespace emv::paging
