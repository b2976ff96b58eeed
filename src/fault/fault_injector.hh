/**
 * @file
 * Runtime half of fault injection: delivers a FaultPlan's events at
 * their scheduled trace ops, arms request-level failures that the
 * OS/VMM components consult through hooks, and owns the
 * "machine.fault.*" stat group (injections, retries, recoveries,
 * downgrades, terminal faults).
 *
 * The injector is policy-free: it decides *when* something fails,
 * never how the system reacts — recovery (frame offlining, mode
 * downgrades, retry-with-backoff) lives in sim/machine.cc so the
 * same schedule can be replayed under policy=failfast or
 * policy=degrade.
 */

#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "common/stats.hh"
#include "fault/fault_plan.hh"

namespace emv {
namespace ckpt {
class Encoder;
class Decoder;
} // namespace ckpt
} // namespace emv

namespace emv::fault {

/** Cross-layer request sites that can be made to fail. */
enum class FaultPoint : unsigned {
    BalloonReclaim,  //!< BalloonDriver::inflate / selfBalloon.
    HotplugExtend,   //!< Vm::grantExtension.
    Compaction,      //!< Guest/host compaction requests.
    NumPoints,
};

const char *faultPointName(FaultPoint point);

/**
 * Drives one machine's fault schedule.
 *
 * The injector belongs to one Machine and, like everything else the
 * machine owns, is used from that machine's thread only: event
 * delivery and the armed-failure hooks the machine wires into its
 * components all run there, so nothing here takes a lock.
 */
class FaultInjector
{
  public:
    FaultInjector(const FaultPlan &plan, std::uint64_t seed);

    /** True when an event is scheduled at or before @p op. */
    bool pending(std::uint64_t op) const
    {
        return cursor < events.size() && events[cursor].op <= op;
    }

    /** Pop and return every event due at or before @p op. */
    std::vector<FaultEvent> eventsDue(std::uint64_t op);

    /** All scheduled events delivered. */
    bool exhausted() const { return cursor >= events.size(); }

    /** @{ Armed request failures, consumed through shouldFail().
     * The machine wires `[this] { return injector->shouldFail(point); }`
     * into its components' request entry points; each armed failure
     * makes exactly one request fail. */
    void armFailures(FaultPoint point, unsigned count);
    bool shouldFail(FaultPoint point);
    unsigned armedFailures(FaultPoint point) const
    { return armed[static_cast<std::size_t>(point)]; }
    /** @} */

    /** Victim selection and noise generation (seeded, so a plan
     *  replays identically). */
    Rng &rng() { return _rng; }

    /** Injection and recovery counts; Machine bumps the recovery
     *  ones as it handles the events. */
    struct Stats : StatGroup
    {
        Stats() : StatGroup("fault") {}
        Counter scheduledEvents{*this, "scheduled_events"};
        Counter deliveredEvents{*this, "delivered_events"};
        Counter armedFailures{*this, "armed_failures"};
        Counter injectedRequestFailures{*this, "injected_request_failures"};
        Counter injectedSkipped{*this, "injected_skipped"};
        Counter injectedDram{*this, "injected_dram"};
        Counter injectedGuestPte{*this, "injected_guest_pte"};
        Counter injectedNestedPte{*this, "injected_nested_pte"};
        Counter injectedSlotRevokes{*this, "injected_slot_revokes"};
        Counter filterEscapes{*this, "filter_escapes"};
        Counter filterSaturations{*this, "filter_saturations"};
        Counter compactionFallbacks{*this, "compaction_fallbacks"};
        Counter downgrades{*this, "downgrades"};
        Counter terminalFaults{*this, "terminal_faults"};
        Counter retries{*this, "retries"};
        Counter recoveries{*this, "recoveries"};
        Counter requestFailures{*this, "request_failures"};
    };

    Stats &stats() { return _stats; }

    /**
     * Checkpoint the delivery cursor, armed failures, RNG and stats.
     * The event list itself is rebuilt from the FaultPlan at
     * construction (deterministic), so only progress is stored.
     */
    template <class Ar>
    void persist(Ar &ar);

  private:
    std::vector<FaultEvent> events;
    std::size_t cursor = 0;
    std::array<unsigned,
               static_cast<std::size_t>(FaultPoint::NumPoints)>
        armed{};
    Rng _rng;
    Stats _stats;
};

} // namespace emv::fault
