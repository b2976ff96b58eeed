#include "common/profile.hh"

#include <cstdio>

#include "common/logging.hh"

namespace emv::prof {

namespace detail {

std::atomic<bool> enabledFlag{false};
AtomicPhaseRecord records[static_cast<unsigned>(Phase::NumPhases)];

} // namespace detail

namespace {

constexpr const char *kPhaseNames[] = {
    "workload_gen",  "machine_build", "translate",
    "remap",         "fault_service", "balloon",
    "compaction",    "fragmentation", "stats_export",
};
static_assert(std::size(kPhaseNames) ==
              static_cast<unsigned>(Phase::NumPhases));

} // namespace

void
setEnabled(bool on)
{
    detail::enabledFlag.store(on, std::memory_order_relaxed);
}

void
reset()
{
    for (auto &rec : detail::records) {
        rec.calls.store(0, std::memory_order_relaxed);
        rec.ns.store(0, std::memory_order_relaxed);
    }
}

const char *
phaseName(Phase phase)
{
    const auto index = static_cast<unsigned>(phase);
    emv_assert(index < std::size(kPhaseNames),
               "unknown profile phase %u", index);
    return kPhaseNames[index];
}

detail::PhaseRecord
phaseRecord(Phase phase)
{
    const auto &rec = detail::records[static_cast<unsigned>(phase)];
    return {rec.calls.load(std::memory_order_relaxed),
            rec.ns.load(std::memory_order_relaxed)};
}

void
report(std::ostream &os)
{
    bool any = false;
    for (const auto &rec : detail::records)
        any = any ||
              rec.calls.load(std::memory_order_relaxed) != 0;
    if (!any) {
        os << "profile: no instrumented phases ran "
              "(enable with profile=1 before the run)\n";
        return;
    }

    os << "-- simulator profile --\n";
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%-14s %12s %12s %12s\n",
                  "phase", "calls", "total ms", "ns/call");
    os << buf;
    for (unsigned i = 0;
         i < static_cast<unsigned>(Phase::NumPhases); ++i) {
        const auto rec = phaseRecord(static_cast<Phase>(i));
        if (rec.calls == 0)
            continue;
        std::snprintf(buf, sizeof(buf),
                      "%-14s %12llu %12.2f %12.1f\n", kPhaseNames[i],
                      static_cast<unsigned long long>(rec.calls),
                      static_cast<double>(rec.ns) / 1e6,
                      static_cast<double>(rec.ns) /
                          static_cast<double>(rec.calls));
        os << buf;
    }
}

} // namespace emv::prof
