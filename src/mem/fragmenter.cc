#include "mem/fragmenter.hh"

#include "common/logging.hh"
#include "common/profile.hh"

namespace emv::mem {

namespace {

constexpr Addr
orderBytes(unsigned order)
{
    return kPage4K << order;
}

} // namespace

std::vector<PinnedBlock>
Fragmenter::fragmentToRun(BuddyAllocator &buddy, Addr max_run_bytes,
                          unsigned pin_order)
{
    prof::Scope frag_scope(prof::Phase::Fragmentation);
    emv_assert(max_run_bytes >= kPage4K,
               "fragmentation target below one page");
    std::vector<PinnedBlock> pins;
    const Addr pin_bytes = orderBytes(pin_order);

    // Repeatedly split the largest free run by pinning a small block
    // inside it, until no run exceeds the target.
    for (;;) {
        auto largest = buddy.freeIntervals().largest();
        if (!largest || largest->length() <= max_run_bytes)
            break;
        // Place the pin so both remaining sides shrink: a random
        // point in the middle half of the run.
        const Addr span = largest->length() - pin_bytes;
        const Addr lo = span / 4;
        const Addr hi = span - span / 4;
        Addr offset = lo == hi ? lo : lo + rng.nextBelow(hi - lo);
        offset = alignDown(offset, pin_bytes);
        const Addr base = largest->start + offset;
        if (!buddy.allocateRange(base, pin_bytes)) {
            // Should not happen on a free interval; fall back to a
            // plain allocation to guarantee progress.
            auto block = buddy.allocate(pin_order);
            emv_assert(block.has_value(),
                       "fragmenter could not pin any block");
            pins.push_back({*block, pin_order});
            continue;
        }
        pins.push_back({base, pin_order});
    }
    return pins;
}

std::vector<PinnedBlock>
Fragmenter::pinFraction(BuddyAllocator &buddy, double fraction,
                        unsigned pin_order)
{
    prof::Scope frag_scope(prof::Phase::Fragmentation);
    emv_assert(fraction >= 0.0 && fraction <= 1.0,
               "pin fraction %f out of [0, 1]", fraction);
    std::vector<PinnedBlock> pins;
    const Addr pin_bytes = orderBytes(pin_order);
    const Addr target =
        static_cast<Addr>(fraction *
                          static_cast<double>(buddy.freeBytes()));
    Addr pinned = 0;

    while (pinned + pin_bytes <= target) {
        const auto ivs = buddy.freeIntervals().intervals();
        if (ivs.empty())
            break;
        // Pick a random interval weighted by index, then a random
        // aligned offset within it.
        const auto &iv = ivs[rng.nextBelow(ivs.size())];
        if (iv.length() < pin_bytes)
            continue;
        const Addr span = iv.length() - pin_bytes;
        Addr offset = span ? rng.nextBelow(span + 1) : 0;
        offset = alignDown(offset, pin_bytes);
        if (!buddy.allocateRange(iv.start + offset, pin_bytes))
            continue;
        pins.push_back({iv.start + offset, pin_order});
        pinned += pin_bytes;
    }
    return pins;
}

void
Fragmenter::release(BuddyAllocator &buddy,
                    const std::vector<PinnedBlock> &pins)
{
    for (const auto &pin : pins)
        buddy.free(pin.base, pin.order);
}

} // namespace emv::mem
