/**
 * @file
 * Runtime correctness-audit framework.
 *
 * The paper's central claim is an *equivalence*: the 2D→1D→0D
 * dimensionality reductions change only the cost of a translation,
 * never its result.  This header gives every subsystem a uniform way
 * to state and check such contracts at runtime:
 *
 *   EMV_CHECK(cond, fmt, ...)      — a local contract ("this insert
 *                                    is page aligned").
 *   EMV_INVARIANT(cond, fmt, ...)  — a structural property of a whole
 *                                    data structure ("intervals are
 *                                    disjoint and coalesced").
 *
 * Both compile to a single test of a global flag when auditing is
 * disabled (the default), so production and benchmark runs pay one
 * predictable branch.  With auditing enabled (emvsim audit=1, or
 * audit::setEnabled(true) in tests) the condition is evaluated and
 * counted; failures are formatted, routed through the trace layer
 * (Flag::Audit) or warn(), and tallied in the calling thread's
 * "machine.audit" stat group (one machine runs on one thread, so
 * these are that machine's counts):
 *
 *   machine.audit.checks      — contracts evaluated;
 *   machine.audit.failures    — EMV_CHECK/EMV_INVARIANT violations;
 *   machine.audit.mismatches  — differential-audit divergences (a
 *                               fast path disagreeing with the
 *                               reference 2D walk; see
 *                               core/differential_auditor.hh).
 *
 * setFailFast(true) escalates any failure to panic() — useful under
 * sanitizers and in CI where the first violation should stop the run
 * with a stack.
 */

#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "common/logging.hh"
#include "common/stats.hh"

namespace emv::audit {

namespace detail {
/** Non-zero when auditing is on; tested before anything else.
 *  Atomic (relaxed) so the hot-path gate is race-free when worker
 *  threads audit while a driver thread toggles; the counters behind
 *  it are thread-local (audit.cc). */
extern std::atomic<std::uint32_t> auditMask;

/** Count one evaluated contract. */
void countCheck();

/** Record one failed contract: count, format, route, maybe panic. */
void failImpl(const char *kind, const char *expr, const char *file,
              int line, const std::string &msg);
} // namespace detail

/** Cheap inline gate, false in ordinary runs. */
inline bool
enabled()
{
    return __builtin_expect(
        detail::auditMask.load(std::memory_order_relaxed) != 0, 0);
}

/** Turn runtime auditing on or off (idempotent). */
void setEnabled(bool on);

/** Escalate audit failures to panic() (CI / sanitizer runs). */
void setFailFast(bool on);
bool failFast();

/** The calling thread's "machine.audit" stat group. */
StatGroup &stats();

/** @{ The calling thread's counts (mirrors of machine.audit.*). */
std::uint64_t checkCount();
std::uint64_t failureCount();
std::uint64_t mismatchCount();
/** @} */

/** Zero the calling thread's audit counters (between experiment
 *  phases / tests). */
void resetCounters();

/**
 * Record one differential-audit mismatch (counted separately from
 * contract failures; also routed through trace/warn and subject to
 * fail-fast).
 */
void reportMismatch(const std::string &msg);

} // namespace emv::audit

/**
 * Contract check: under auditing, evaluate @p cond and record a
 * formatted failure when it does not hold.  Compiles to one branch
 * when auditing is off; @p cond is then NOT evaluated, so conditions
 * may be arbitrarily expensive.
 */
#define EMV_CHECK(cond, ...)                                           \
    do {                                                               \
        if (::emv::audit::enabled()) {                                 \
            ::emv::audit::detail::countCheck();                        \
            if (!(cond)) {                                             \
                ::emv::audit::detail::failImpl(                        \
                    "check", #cond, __FILE__, __LINE__,                \
                    ::emv::detail::format(__VA_ARGS__));               \
            }                                                          \
        }                                                              \
    } while (0)

/** Structural-invariant check; identical gating to EMV_CHECK. */
#define EMV_INVARIANT(cond, ...)                                       \
    do {                                                               \
        if (::emv::audit::enabled()) {                                 \
            ::emv::audit::detail::countCheck();                        \
            if (!(cond)) {                                             \
                ::emv::audit::detail::failImpl(                        \
                    "invariant", #cond, __FILE__, __LINE__,            \
                    ::emv::detail::format(__VA_ARGS__));               \
            }                                                          \
        }                                                              \
    } while (0)
