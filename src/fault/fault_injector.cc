#include "fault/fault_injector.hh"

#include "common/ckpt.hh"
#include "common/logging.hh"
#include "common/trace.hh"

namespace emv::fault {

namespace {

constexpr const char *kPointNames[] = {
    "balloon", "hotplug", "compaction",
};
static_assert(std::size(kPointNames) ==
              static_cast<unsigned>(FaultPoint::NumPoints));

} // namespace

const char *
faultPointName(FaultPoint point)
{
    const auto index = static_cast<unsigned>(point);
    emv_assert(index < std::size(kPointNames),
               "unknown fault point %u", index);
    return kPointNames[index];
}

FaultInjector::FaultInjector(const FaultPlan &plan, std::uint64_t seed)
    : events(plan.events()), _rng(seed)
{
    _stats.scheduledEvents += events.size();
}

std::vector<FaultEvent>
FaultInjector::eventsDue(std::uint64_t op)
{
    std::vector<FaultEvent> due;
    while (pending(op)) {
        due.push_back(events[cursor]);
        ++cursor;
        ++_stats.deliveredEvents;
        EMV_TRACE(Fault, "deliver %s x%u (scheduled op %llu, at %llu)",
                  faultKindName(due.back().kind), due.back().count,
                  static_cast<unsigned long long>(due.back().op),
                  static_cast<unsigned long long>(op));
    }
    return due;
}

void
FaultInjector::armFailures(FaultPoint point, unsigned count)
{
    armed[static_cast<std::size_t>(point)] += count;
    _stats.armedFailures += count;
    EMV_TRACE(Fault, "armed %u %s request failure(s)", count,
              faultPointName(point));
}

bool
FaultInjector::shouldFail(FaultPoint point)
{
    unsigned &slot = armed[static_cast<std::size_t>(point)];
    if (slot == 0)
        return false;
    --slot;
    ++_stats.injectedRequestFailures;
    EMV_TRACE(Fault, "%s request failure injected (%u left)",
              faultPointName(point), slot);
    return true;
}

template <class Ar>
void
FaultInjector::persist(Ar &ar)
{
    if (!ar.fixed(events, "fault: event count mismatch (restore "
                          "requires the same fault plan)"))
        return;
    ar.u64(cursor);
    ar.check(cursor <= events.size(), "fault: cursor out of range");
    for (unsigned &count : armed)
        ar.u32(count);
    _rng.persist(ar);
    _stats.persist(ar);
}

template void FaultInjector::persist(ckpt::Encoder &);
template void FaultInjector::persist(ckpt::Decoder &);

} // namespace emv::fault
