#include "mem/buddy_allocator.hh"

#include <algorithm>

#include "common/audit.hh"
#include "common/ckpt.hh"
#include "common/logging.hh"

namespace emv::mem {

namespace {

constexpr Addr
orderBytes(unsigned order)
{
    return kPage4K << order;
}

} // namespace

unsigned
BuddyAllocator::orderForBytes(Addr bytes)
{
    unsigned order = 0;
    while (orderBytes(order) < bytes && order < kMaxOrder)
        ++order;
    emv_assert(orderBytes(order) >= bytes,
               "allocation of %llu bytes exceeds max order block",
               static_cast<unsigned long long>(bytes));
    return order;
}

BuddyAllocator::BuddyAllocator(Addr base, Addr size_bytes)
    : rangeBase(base), rangeSize(size_bytes),
      freeLists(kMaxOrder + 1)
{
    emv_assert(isAligned(base, kPage4K), "buddy base must be 4K aligned");
    emv_assert(size_bytes > 0 && isAligned(size_bytes, kPage4K),
               "buddy size must be a positive 4K multiple");

    // Seed the free lists with the largest naturally aligned blocks
    // (alignment is relative to rangeBase) covering the range.
    Addr offset = 0;
    while (offset < size_bytes) {
        unsigned order = kMaxOrder;
        while (order > 0 &&
               (!isAligned(offset, orderBytes(order)) ||
                offset + orderBytes(order) > size_bytes)) {
            --order;
        }
        freeLists[order].insert(base + offset);
        offset += orderBytes(order);
    }
    freeRuns.insert(base, base + size_bytes);
}

std::optional<Addr>
BuddyAllocator::allocate(unsigned order)
{
    emv_assert(order <= kMaxOrder, "order %u beyond max", order);

    // Globally top-down: choose the candidate block (across all
    // orders >= requested) with the highest end address, so low
    // "kernel" memory is consumed last — like Linux preferring
    // higher zones for movable allocations.
    int best_order = -1;
    Addr best_end = 0;
    for (unsigned k = order; k <= kMaxOrder; ++k) {
        if (freeLists[k].empty())
            continue;
        const Addr block = *std::prev(freeLists[k].end());
        const Addr end = block + orderBytes(k);
        if (best_order < 0 || end > best_end) {
            best_order = static_cast<int>(k);
            best_end = end;
        }
    }
    if (best_order < 0) {
        ++_stats.allocFailures;
        return std::nullopt;
    }

    unsigned k = static_cast<unsigned>(best_order);
    auto it = std::prev(freeLists[k].end());
    Addr block = *it;
    freeLists[k].erase(it);
    // Split down, keeping the top half each time.
    while (k > order) {
        --k;
        freeLists[k].insert(block);
        block += orderBytes(k);
    }
    freeRuns.erase(block, block + orderBytes(order));
    ++_stats.allocations;
    if (audit::enabled())
        auditInvariants();
    return block;
}

bool
BuddyAllocator::allocateRun(std::uint64_t frames, std::vector<Addr> &out)
{
    // allocate(0) returns the highest free frame, so a run of them is
    // the top of the free set, handed out from the top down.
    const std::vector<Interval> runs = nextRun(frames);
    if (runs.empty())
        return frames == 0;
    for (const Interval &run : runs) {
        carve(run.start, run.end);
        for (Addr frame = run.end; frame > run.start;)
            out.push_back(frame -= kPage4K);
    }
    _stats.allocations += frames;
    if (audit::enabled())
        auditInvariants();
    return true;
}

std::optional<Addr>
BuddyAllocator::allocateBytes(Addr bytes)
{
    return allocate(orderForBytes(bytes));
}

void
BuddyAllocator::insertFree(Addr block, unsigned order)
{
    // Coalesce with the buddy as long as it is also free.
    while (order < kMaxOrder) {
        const Addr offset = block - rangeBase;
        const Addr buddy_offset = offset ^ orderBytes(order);
        const Addr buddy = rangeBase + buddy_offset;
        auto it = freeLists[order].find(buddy);
        if (it == freeLists[order].end())
            break;
        freeLists[order].erase(it);
        block = rangeBase + std::min(offset, buddy_offset);
        ++order;
    }
    freeLists[order].insert(block);
}

void
BuddyAllocator::free(Addr block, unsigned order)
{
    emv_assert(order <= kMaxOrder, "order %u beyond max", order);
    emv_assert(block >= rangeBase &&
               block + orderBytes(order) <= rangeBase + rangeSize,
               "freed block %s outside managed range",
               hexAddr(block).c_str());
    ++_stats.frees;
    insertFree(block, order);
    freeRuns.insert(block, block + orderBytes(order));
    if (audit::enabled())
        auditInvariants();
}

bool
BuddyAllocator::rangeFree(Addr start, Addr length) const
{
    return freeRuns.containsRange(start, start + length);
}

void
BuddyAllocator::carve(Addr start, Addr end)
{
    // The blocks of each order that intersect [start, end): those
    // that start before end but less than one block before start.
    struct Piece { Addr base; unsigned order; };
    std::vector<Piece> work;
    for (unsigned order = 0; order <= kMaxOrder; ++order) {
        auto &list = freeLists[order];
        const Addr reach = orderBytes(order) - 1;
        for (auto it = list.lower_bound(start - std::min(start, reach));
             it != list.end() && *it < end;) {
            work.push_back({*it, order});
            it = list.erase(it);
        }
    }
    // Split them: pieces inside the range are taken, pieces outside
    // go back on the lists (where they stay: their buddies are split
    // or taken).
    while (!work.empty()) {
        const Piece p = work.back();
        work.pop_back();
        const Addr pend = p.base + orderBytes(p.order);
        if (p.base >= start && pend <= end)
            continue;
        if (pend <= start || p.base >= end) {
            insertFree(p.base, p.order);
            continue;
        }
        emv_assert(p.order > 0, "carve reached order 0 straddle");
        const unsigned h = p.order - 1;
        work.push_back({p.base, h});
        work.push_back({p.base + orderBytes(h), h});
    }
    freeRuns.erase(start, end);
}

bool
BuddyAllocator::allocateRange(Addr start, Addr length)
{
    emv_assert(isAligned(start, kPage4K) && isAligned(length, kPage4K),
               "allocateRange arguments must be 4K aligned");
    if (length == 0)
        return true;
    if (start < rangeBase || start + length > rangeBase + rangeSize)
        return false;
    if (!rangeFree(start, length))
        return false;
    carve(start, start + length);
    ++_stats.rangeAllocations;
    if (audit::enabled())
        auditInvariants();
    return true;
}

void
BuddyAllocator::freeFrames(std::vector<Addr> frames)
{
    std::sort(frames.begin(), frames.end());
    for (std::size_t i = 0; i < frames.size();) {
        std::size_t j = i + 1;
        while (j < frames.size() && frames[j] == frames[j - 1] + kPage4K)
            ++j;
        const Addr end = frames[j - 1] + kPage4K;
        emv_assert(isAligned(frames[i], kPage4K) &&
                   frames[i] >= rangeBase &&
                   end <= rangeBase + rangeSize,
                   "freed frames [%s, %s) outside managed range",
                   hexAddr(frames[i]).c_str(), hexAddr(end).c_str());
        insertRange(frames[i], end);
        i = j;
    }
    _stats.frees += frames.size();
    if (audit::enabled())
        auditInvariants();
}

void
BuddyAllocator::freeRange(Addr start, Addr length)
{
    emv_assert(isAligned(start, kPage4K) && isAligned(length, kPage4K),
               "freeRange arguments must be 4K aligned");
    insertRange(start, start + length);
    ++_stats.rangeFrees;
    if (audit::enabled())
        auditInvariants();
}

void
BuddyAllocator::insertRange(Addr start, Addr end)
{
    // Return the range as order-0..n blocks with natural alignment.
    Addr addr = start;
    while (addr < end) {
        unsigned order = 0;
        const Addr offset = addr - rangeBase;
        while (order < kMaxOrder &&
               isAligned(offset, orderBytes(order + 1)) &&
               addr + orderBytes(order + 1) <= end) {
            ++order;
        }
        insertFree(addr, order);
        addr += orderBytes(order);
    }
    freeRuns.insert(start, end);
}

void
BuddyAllocator::auditInvariants() const
{
    for (unsigned order = 0; order <= kMaxOrder; ++order) {
        for (Addr block : freeLists[order]) {
            const Addr offset = block - rangeBase;
            EMV_INVARIANT(block >= rangeBase &&
                          offset + orderBytes(order) <= rangeSize,
                          "buddy: free block %s order %u outside "
                          "managed range", hexAddr(block).c_str(),
                          order);
            EMV_INVARIANT(isAligned(offset, orderBytes(order)),
                          "buddy: free block %s not aligned to "
                          "order %u", hexAddr(block).c_str(), order);
            if (order < kMaxOrder) {
                const Addr buddy =
                    rangeBase + (offset ^ orderBytes(order));
                EMV_INVARIANT(freeLists[order].count(buddy) == 0 ||
                              buddy == block,
                              "buddy: blocks %s and %s are free "
                              "buddies left uncoalesced at order %u",
                              hexAddr(std::min(block, buddy)).c_str(),
                              hexAddr(std::max(block, buddy)).c_str(),
                              order);
            }
        }
    }
    // If any block sat on two lists or two blocks overlapped, the
    // coalesced interval coverage would be short of the list total.
    const IntervalSet coverage = listCoverage();
    EMV_INVARIANT(coverage.totalLength() == freeBytes(),
                  "buddy: free-list accounting mismatch (%llu "
                  "interval bytes vs %llu list bytes)",
                  static_cast<unsigned long long>(
                      coverage.totalLength()),
                  static_cast<unsigned long long>(freeBytes()));
    EMV_INVARIANT(coverage.intervals() == freeRuns.intervals(),
                  "buddy: free-run index (%zu runs, %llu bytes) "
                  "disagrees with the free lists (%zu runs, %llu "
                  "bytes)", freeRuns.count(),
                  static_cast<unsigned long long>(
                      freeRuns.totalLength()),
                  coverage.count(),
                  static_cast<unsigned long long>(
                      coverage.totalLength()));
}

Addr
BuddyAllocator::freeBytes() const
{
    Addr total = 0;
    for (unsigned order = 0; order <= kMaxOrder; ++order)
        total += freeLists[order].size() * orderBytes(order);
    return total;
}

IntervalSet
BuddyAllocator::listCoverage() const
{
    std::vector<Interval> blocks;
    for (unsigned order = 0; order <= kMaxOrder; ++order) {
        for (Addr block : freeLists[order])
            blocks.push_back({block, block + orderBytes(order)});
    }
    std::sort(blocks.begin(), blocks.end(),
              [](const Interval &a, const Interval &b) {
                  return a.start < b.start;
              });
    std::vector<Interval> runs;
    for (const Interval &block : blocks) {
        if (!runs.empty() && runs.back().end >= block.start)
            runs.back().end = std::max(runs.back().end, block.end);
        else
            runs.push_back(block);
    }
    return IntervalSet(runs);
}

Addr
BuddyAllocator::largestFreeRun() const
{
    auto largest = freeRuns.largest();
    return largest ? largest->length() : 0;
}

double
BuddyAllocator::fragmentationIndex() const
{
    const Addr free_total = freeBytes();
    if (free_total == 0)
        return 0.0;
    const Addr run = largestFreeRun();
    return 1.0 - static_cast<double>(run) /
                 static_cast<double>(free_total);
}

template <class Ar>
void
BuddyAllocator::persist(Ar &ar)
{
    Addr base = rangeBase;
    Addr size = rangeSize;
    ar.u64(base);
    ar.u64(size);
    ar.check(base == rangeBase && size == rangeSize,
             "buddy: managed range mismatch");
    if (!ar.fixed(freeLists, "buddy: order count mismatch"))
        return;
    for (auto &list : freeLists)
        ar.u64s(list);
    _stats.persist(ar);
    if constexpr (Ar::loading)
        freeRuns = listCoverage();
}

template void BuddyAllocator::persist(ckpt::Encoder &);
template void BuddyAllocator::persist(ckpt::Decoder &);

} // namespace emv::mem
