#include "common/intervals.hh"

#include "common/audit.hh"
#include "common/ckpt.hh"
#include "common/logging.hh"

namespace emv {

namespace {

/** IntervalSet::threadWork(). */
thread_local std::uint64_t steps = 0;

} // namespace

std::uint64_t
IntervalSet::threadWork()
{
    return steps;
}

void
IntervalSet::auditInvariants(const char *what) const
{
    Addr prev_end = 0;
    bool first = true;
    Addr covered = 0;
    for (const auto &[start, end] : byStart) {
        covered += end - start;
        EMV_INVARIANT(byLength.count({end - start, start}) == 1,
                      "%s: [%s, %s) missing from the length index",
                      what, hexAddr(start).c_str(),
                      hexAddr(end).c_str());
        EMV_INVARIANT(end > start,
                      "%s: empty interval [%s, %s)", what,
                      hexAddr(start).c_str(), hexAddr(end).c_str());
        EMV_INVARIANT(first || start > prev_end,
                      "%s: intervals overlap or touch at %s "
                      "(previous ends at %s)", what,
                      hexAddr(start).c_str(),
                      hexAddr(prev_end).c_str());
        prev_end = end;
        first = false;
    }
    EMV_INVARIANT(byLength.size() == byStart.size() && covered == total,
                  "%s: length index holds %zu of %zu intervals, total "
                  "%llu of %llu bytes", what, byLength.size(),
                  byStart.size(), static_cast<unsigned long long>(total),
                  static_cast<unsigned long long>(covered));
}

IntervalSet::IntervalSet(const std::vector<Interval> &runs)
{
    for (const Interval &run : runs)
        add(run.start, run.end);
}

void
IntervalSet::add(Addr start, Addr end)
{
    ++steps;
    byStart.emplace(start, end);
    byLength.emplace(end - start, start);
    total += end - start;
}

IntervalSet::StartMap::iterator
IntervalSet::remove(StartMap::iterator it)
{
    ++steps;
    byLength.erase({it->second - it->first, it->first});
    total -= it->second - it->first;
    return byStart.erase(it);
}

void
IntervalSet::reshape(StartMap::iterator it, Addr start, Addr end)
{
    ++steps;
    const Addr old_length = it->second - it->first;
    auto length_node = byLength.extract({old_length, it->first});
    length_node.value() = {end - start, start};
    byLength.insert(std::move(length_node));
    total = total - old_length + (end - start);
    if (start == it->first) {
        it->second = end;
        return;
    }
    const auto hint = std::next(it);
    auto start_node = byStart.extract(it);
    start_node.key() = start;
    start_node.mapped() = end;
    byStart.insert(hint, std::move(start_node));
}

void
IntervalSet::clear()
{
    byStart.clear();
    byLength.clear();
    total = 0;
}

void
IntervalSet::insert(Addr start, Addr end)
{
    if (end <= start)
        return;

    // The first interval that could merge: the one before start if
    // it reaches start, else the first one after it.
    auto it = byStart.upper_bound(start);
    if (it != byStart.begin() && std::prev(it)->second >= start)
        --it;
    if (it == byStart.end() || it->first > end) {
        add(start, end);
    } else {
        // Grow the first merging interval over the others.
        const auto keep = it;
        start = std::min(start, keep->first);
        end = std::max(end, keep->second);
        for (it = std::next(keep);
             it != byStart.end() && it->first <= end;) {
            end = std::max(end, it->second);
            it = remove(it);
        }
        reshape(keep, start, end);
    }
    if (audit::enabled())
        auditInvariants();
}

void
IntervalSet::erase(Addr start, Addr end)
{
    if (end <= start)
        return;

    auto it = byStart.upper_bound(start);
    if (it != byStart.begin() && std::prev(it)->second > start)
        --it;
    while (it != byStart.end() && it->first < end) {
        const Addr is = it->first;
        const Addr ie = it->second;
        if (is < start) {
            // Keep the part below start in place; only a split of
            // one interval in two adds a node.
            reshape(it, is, start);
            if (ie > end) {
                add(end, ie);
                break;
            }
            ++it;
        } else if (ie > end) {
            reshape(it, end, ie);
            break;
        } else {
            it = remove(it);
        }
    }
    if (audit::enabled())
        auditInvariants();
}

bool
IntervalSet::contains(Addr addr) const
{
    ++steps;
    auto it = byStart.upper_bound(addr);
    if (it == byStart.begin())
        return false;
    --it;
    return addr < it->second;
}

bool
IntervalSet::containsRange(Addr start, Addr end) const
{
    if (end <= start)
        return true;
    ++steps;
    auto it = byStart.upper_bound(start);
    if (it == byStart.begin())
        return false;
    --it;
    return start >= it->first && end <= it->second;
}

bool
IntervalSet::intersectsRange(Addr start, Addr end) const
{
    if (end <= start)
        return false;
    ++steps;
    auto it = byStart.lower_bound(start);
    if (it != byStart.begin()) {
        auto prev = std::prev(it);
        if (prev->second > start)
            return true;
    }
    return it != byStart.end() && it->first < end;
}

Addr
IntervalSet::coveredBytesInRange(Addr start, Addr end) const
{
    if (end <= start)
        return 0;
    Addr covered = 0;
    auto it = byStart.upper_bound(start);
    if (it != byStart.begin())
        --it;
    for (; it != byStart.end() && it->first < end; ++it) {
        ++steps;
        const Addr lo = std::max(it->first, start);
        const Addr hi = std::min(it->second, end);
        if (hi > lo)
            covered += hi - lo;
    }
    return covered;
}

std::optional<Interval>
IntervalSet::largest() const
{
    if (byLength.empty())
        return std::nullopt;
    ++steps;
    // The lowest start among the longest.
    const auto it =
        byLength.lower_bound({byLength.rbegin()->first, 0});
    return Interval{it->second, it->second + it->first};
}

std::vector<Interval>
IntervalSet::highest(Addr bytes) const
{
    std::vector<Interval> out;
    if (bytes == 0 || bytes > total)
        return out;
    for (auto it = byStart.rbegin(); bytes > 0; ++it) {
        ++steps;
        const Addr take = std::min(bytes, it->second - it->first);
        out.push_back(Interval{it->second - take, it->second});
        bytes -= take;
    }
    return out;
}

std::optional<Interval>
IntervalSet::findFit(Addr length, Addr align) const
{
    emv_assert(align != 0 && (align & (align - 1)) == 0,
               "findFit alignment must be a power of two");
    // Shortest first, lowest first among equals: the first interval
    // whose aligned part still fits is the best fit.
    for (auto it = byLength.lower_bound({length, 0});
         it != byLength.end(); ++it) {
        ++steps;
        const Addr start = it->second;
        const Addr end = start + it->first;
        const Addr aligned = alignUp(start, align);
        if (aligned < end && end - aligned >= length)
            return Interval{aligned, aligned + length};
    }
    return std::nullopt;
}

std::optional<Interval>
IntervalSet::findFitHigh(Addr length, Addr align) const
{
    emv_assert(align != 0 && (align & (align - 1)) == 0,
               "findFitHigh alignment must be a power of two");
    for (auto it = byStart.rbegin(); it != byStart.rend(); ++it) {
        ++steps;
        const Addr start = it->first;
        const Addr end = it->second;
        if (end - start < length)
            continue;
        const Addr placed = alignDown(end - length, align);
        if (placed >= start && end - placed >= length)
            return Interval{placed, placed + length};
    }
    return std::nullopt;
}

std::optional<Interval>
IntervalSet::findFitLowAbove(Addr length, Addr align,
                             Addr min_start) const
{
    emv_assert(align != 0 && (align & (align - 1)) == 0,
               "findFitLowAbove alignment must be a power of two");
    std::optional<Interval> fallback;
    for (const auto &[start, end] : byStart) {
        ++steps;
        // Preferred placement: at or above min_start.
        const Addr placed = alignUp(std::max(start, min_start), align);
        if (placed < end && end - placed >= length)
            return Interval{placed, placed + length};
        // Remember the lowest fit anywhere as a fallback.
        if (!fallback) {
            const Addr any = alignUp(start, align);
            if (any < end && end - any >= length)
                fallback = Interval{any, any + length};
        }
    }
    return fallback;
}

std::vector<Interval>
IntervalSet::intervals() const
{
    std::vector<Interval> out;
    out.reserve(byStart.size());
    steps += byStart.size();
    for (const auto &[start, end] : byStart)
        out.push_back(Interval{start, end});
    return out;
}

template <class Ar>
void
IntervalSet::persist(Ar &ar)
{
    std::vector<std::pair<Addr, Addr>> runs;
    if constexpr (!Ar::loading)
        runs.assign(byStart.begin(), byStart.end());
    ar.seq(runs, [&](auto &run) {
        ar.u64(run.first);
        ar.u64(run.second);
    });
    if constexpr (Ar::loading) {
        clear();
        for (const auto &[start, end] : runs)
            add(start, end);
    }
}

template void IntervalSet::persist(ckpt::Encoder &);
template void IntervalSet::persist(ckpt::Decoder &);

} // namespace emv
