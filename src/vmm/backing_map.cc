#include "vmm/backing_map.hh"

#include "common/audit.hh"
#include "common/ckpt.hh"
#include "common/logging.hh"

namespace emv::vmm {

void
BackingMap::auditInvariants() const
{
    bool first = true;
    Addr prev_gpa_end = 0;
    Addr prev_hpa_end = 0;
    for (const auto &[gpa, value] : byGpa) {
        EMV_INVARIANT(value.bytes > 0, "backing: empty extent at %s",
                      hexAddr(gpa).c_str());
        if (!first) {
            EMV_INVARIANT(gpa >= prev_gpa_end,
                          "backing: gPA %s double-backed (previous "
                          "extent ends at %s)", hexAddr(gpa).c_str(),
                          hexAddr(prev_gpa_end).c_str());
            EMV_INVARIANT(gpa != prev_gpa_end ||
                          value.hpa != prev_hpa_end,
                          "backing: uncoalesced extents meet at %s",
                          hexAddr(gpa).c_str());
        }
        prev_gpa_end = gpa + value.bytes;
        prev_hpa_end = value.hpa + value.bytes;
        first = false;
    }
}

void
BackingMap::add(Addr gpa, Addr bytes, Addr hpa)
{
    if (bytes == 0)
        return;
    // Overlap check against neighbours.
    auto next = byGpa.lower_bound(gpa);
    if (next != byGpa.end()) {
        emv_assert(gpa + bytes <= next->first,
                   "backing add overlaps extent at %s",
                   hexAddr(next->first).c_str());
    }
    if (next != byGpa.begin()) {
        auto prev = std::prev(next);
        emv_assert(prev->first + prev->second.bytes <= gpa,
                   "backing add overlaps extent at %s",
                   hexAddr(prev->first).c_str());
    }

    // Coalesce with the successor when contiguous in both spaces.
    if (next != byGpa.end() && next->first == gpa + bytes &&
        next->second.hpa == hpa + bytes) {
        bytes += next->second.bytes;
        byGpa.erase(next);
    }
    // Coalesce with the predecessor likewise.
    auto it = byGpa.lower_bound(gpa);
    if (it != byGpa.begin()) {
        auto prev = std::prev(it);
        if (prev->first + prev->second.bytes == gpa &&
            prev->second.hpa + prev->second.bytes == hpa) {
            prev->second.bytes += bytes;
            if (audit::enabled())
                auditInvariants();
            return;
        }
    }
    byGpa.emplace(gpa, Value{bytes, hpa});
    if (audit::enabled())
        auditInvariants();
}

void
BackingMap::remove(Addr gpa, Addr bytes)
{
    if (bytes == 0)
        return;
    const Addr end = gpa + bytes;
    auto it = byGpa.upper_bound(gpa);
    if (it != byGpa.begin()) {
        auto prev = std::prev(it);
        if (prev->first + prev->second.bytes > gpa)
            it = prev;
    }
    while (it != byGpa.end() && it->first < end) {
        const Addr estart = it->first;
        const Addr ebytes = it->second.bytes;
        const Addr ehpa = it->second.hpa;
        const Addr eend = estart + ebytes;
        it = byGpa.erase(it);
        if (estart < gpa) {
            byGpa.emplace(estart, Value{gpa - estart, ehpa});
        }
        if (eend > end) {
            byGpa.emplace(end,
                          Value{eend - end, ehpa + (end - estart)});
            break;
        }
    }
    if (audit::enabled())
        auditInvariants();
}

std::optional<Addr>
BackingMap::toHpa(Addr gpa) const
{
    auto it = byGpa.upper_bound(gpa);
    if (it == byGpa.begin())
        return std::nullopt;
    --it;
    if (gpa >= it->first + it->second.bytes)
        return std::nullopt;
    return it->second.hpa + (gpa - it->first);
}

bool
BackingMap::covered(Addr gpa, Addr bytes) const
{
    Addr pos = gpa;
    const Addr end = gpa + bytes;
    while (pos < end) {
        auto it = byGpa.upper_bound(pos);
        if (it == byGpa.begin())
            return false;
        --it;
        const Addr eend = it->first + it->second.bytes;
        if (pos >= eend)
            return false;
        pos = eend;
    }
    return true;
}

std::optional<Addr>
BackingMap::linearHpa(Addr gpa, Addr bytes) const
{
    auto it = byGpa.upper_bound(gpa);
    if (it == byGpa.begin())
        return std::nullopt;
    --it;
    if (gpa < it->first || gpa + bytes > it->first + it->second.bytes)
        return std::nullopt;
    return it->second.hpa + (gpa - it->first);
}

std::vector<Extent>
BackingMap::extents() const
{
    std::vector<Extent> out;
    out.reserve(byGpa.size());
    for (const auto &[gpa, value] : byGpa)
        out.push_back(Extent{gpa, value.bytes, value.hpa});
    return out;
}

std::optional<Extent>
BackingMap::largestExtent() const
{
    std::optional<Extent> best;
    for (const auto &[gpa, value] : byGpa) {
        if (!best || value.bytes > best->bytes)
            best = Extent{gpa, value.bytes, value.hpa};
    }
    return best;
}

void
BackingMap::forEachIn(Addr gpa, Addr bytes,
                      const std::function<void(const Extent &)> &fn)
    const
{
    const Addr end = gpa + bytes;
    auto it = byGpa.upper_bound(gpa);
    if (it != byGpa.begin()) {
        auto prev = std::prev(it);
        if (prev->first + prev->second.bytes > gpa)
            it = prev;
    }
    for (; it != byGpa.end() && it->first < end; ++it) {
        const Addr lo = std::max(it->first, gpa);
        const Addr hi = std::min(it->first + it->second.bytes, end);
        if (hi > lo) {
            fn(Extent{lo, hi - lo,
                      it->second.hpa + (lo - it->first)});
        }
    }
}

Addr
BackingMap::totalBytes() const
{
    Addr total = 0;
    for (const auto &[gpa, value] : byGpa)
        total += value.bytes;
    return total;
}

template <class Ar>
void
BackingMap::persist(Ar &ar)
{
    std::vector<std::pair<Addr, Value>> extents;
    if constexpr (!Ar::loading)
        extents.assign(byGpa.begin(), byGpa.end());
    ar.seq(extents, [&](auto &extent) {
        ar.u64(extent.first);
        ar.u64(extent.second.bytes);
        ar.u64(extent.second.hpa);
    });
    if constexpr (Ar::loading)
        byGpa = {extents.begin(), extents.end()};
}

template void BackingMap::persist(ckpt::Encoder &);
template void BackingMap::persist(ckpt::Decoder &);

} // namespace emv::vmm
