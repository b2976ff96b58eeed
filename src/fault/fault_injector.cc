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

void
FaultInjector::serialize(ckpt::Encoder &enc) const
{
    enc.u64(events.size());
    enc.u64(cursor);
    for (unsigned count : armed)
        enc.u32(count);
    _rng.serialize(enc);
    _stats.serialize(enc);
}

bool
FaultInjector::deserialize(ckpt::Decoder &dec)
{
    const std::uint64_t nevents = dec.u64();
    if (dec.ok() && nevents != events.size()) {
        dec.fail("fault: event count mismatch (restore requires "
                 "the same fault plan)");
        return false;
    }
    cursor = static_cast<std::size_t>(dec.u64());
    if (dec.ok() && cursor > events.size()) {
        dec.fail("fault: cursor out of range");
        return false;
    }
    for (auto &count : armed)
        count = dec.u32();
    if (!_rng.deserialize(dec) || !_stats.deserialize(dec))
        return false;
    return dec.ok();
}

} // namespace emv::fault
