/**
 * @file
 * The radix page walk: one engine for every dimension (Fig. 2).
 *
 * A 2D nested walk is the native 4-level walk with one difference:
 * the table pointers and the final data address are guest-physical,
 * so each one first passes through a second-dimension gPA→hPA step
 * before the entry can be read.  radixWalk() is that single loop,
 * parameterized by the step:
 *
 *   - native, shadow and nested-dimension walks pass hostResident,
 *     the identity step (their table nodes already live in host
 *     physical memory);
 *   - the guest dimension of a 2D walk passes the MMU's gPA→hPA
 *     translation (nested TLB, nested walk, VMM segment, ...), which
 *     records its own references and calculations in the trace.
 *
 * The step is a template parameter, so each call to it is direct
 * and inlinable: no virtual call or type-erased callable sits on
 * the walk path.
 * Every entry read is recorded in the WalkTrace; an optional
 * WalkCache lets the walk start below the root.
 */

#pragma once

#include <algorithm>

#include "common/trace.hh"
#include "common/types.hh"
#include "mem/phys_memory.hh"
#include "paging/pte.hh"
#include "paging/walk.hh"
#include "tlb/walk_cache.hh"

namespace emv::paging {

/**
 * Identity step for tables resident in host physical memory.  It
 * reports a 1G granule, the largest there is, so the walk's result
 * keeps the leaf's own size (min(leaf, 1G) == leaf), and it adds no
 * references.  A closure object rather than a function, so each
 * walk instantiation calls it directly.
 */
inline constexpr auto hostResident = [](Addr pa) {
    return WalkOutcome{pa, PageSize::Size1G, true};
};

/**
 * Walk the 4-level table rooted at @p root for address @p va.
 *
 * @param mem     Host physical memory holding the table entries.
 * @param root    Base of the level-4 table, in the address space
 *                @p to_host translates from.
 * @param va      Address to translate (gVA, gPA or native VA).
 * @param stage   Tag recorded on every entry reference.
 * @param trace   Trace to append references to.
 * @param psc     Optional paging-structure cache for this dimension.
 * @param to_host Next dimension's step, `WalkOutcome(Addr)`: applied
 *                to every entry address and to the final data
 *                address; ok=false stops the walk (nested fault).
 * @return The translated address; size is the min of this walk's
 *         leaf granule and the data step's granule (what a single
 *         TLB entry could cover).
 */
template <typename ToHost>
WalkOutcome
radixWalk(const mem::PhysMemory &mem, Addr root, Addr va,
          RefStage stage, WalkTrace &trace, tlb::WalkCache *psc,
          ToHost &&to_host)
{
    using tlb::WalkCache;
    constexpr WalkOutcome kFault{0, PageSize::Size4K, false};

    Addr table = root;
    int start_level = kLevels;

    // Paging-structure cache: start at the deepest cached level.  In
    // a 2D walk, skipping a guest level also skips the nested
    // translation of that level's entry pointer, which is where most
    // of the 2D blow-up lives.
    if (psc) {
        for (int level = 2; level <= kLevels; ++level) {
            if (auto hit = psc->lookup(WalkCache::key(level, va))) {
                table = *hit;
                start_level = level - 1;
                EMV_TRACE(Walk, "psc hit %s va=%s skip_to=L%d",
                          refStageName(stage), hexAddr(va).c_str(),
                          start_level);
                break;
            }
        }
    }

    for (int level = start_level; level >= 1; --level) {
        const Addr entry = table + 8ull * tableIndex(va, level);
        const WalkOutcome entry_host = to_host(entry);
        if (!entry_host.ok)
            return kFault;

        trace.addRef(entry_host.pa, stage, level);
        EMV_TRACE(Walk, "ref %s L%d va=%s entry=%s hpa=%s",
                  refStageName(stage), level, hexAddr(va).c_str(),
                  hexAddr(entry).c_str(),
                  hexAddr(entry_host.pa).c_str());
        const Pte pte{mem.read64(entry_host.pa)};
        if (!pte.present())
            return kFault;

        if (level == 1 || pte.pageSize()) {
            const PageSize size = leafSize(level);
            const WalkOutcome data =
                to_host(pte.frame() + (va & (pageBytes(size) - 1)));
            if (!data.ok)
                return kFault;
            return WalkOutcome{data.pa, std::min(size, data.size),
                               true};
        }
        if (psc)
            psc->insert(WalkCache::key(level, va), pte.frame());
        table = pte.frame();
    }
    return kFault;
}

} // namespace emv::paging
