#include "common/audit.hh"

#include "common/trace.hh"

namespace emv::audit {

namespace {

std::atomic<bool> failFastFlag{false};

/**
 * The calling thread's "machine.audit" counters.  A machine is built,
 * run and destroyed on one thread (DESIGN.md §12), so one thread's
 * counts are one machine's counts: increments need no lock, and
 * sim::runCell() reports the change over its cell.
 */
struct AuditStats : StatGroup
{
    AuditStats() : StatGroup("audit") { setParent("machine"); }
    Counter checks{*this, "checks"};
    Counter failures{*this, "failures"};
    Counter mismatches{*this, "mismatches"};
};

AuditStats &
auditStats()
{
    static thread_local AuditStats stats;
    return stats;
}

/** Route one audit record: trace sink if Audit is on, else warn(). */
void
emitRecord(const std::string &msg)
{
    if (trace::enabled(trace::Flag::Audit))
        trace::emit(trace::Flag::Audit, msg);
    else
        emv_warn("%s", msg.c_str());
}

} // namespace

namespace detail {

std::atomic<std::uint32_t> auditMask{0};

void
countCheck()
{
    ++auditStats().checks;
}

void
failImpl(const char *kind, const char *expr, const char *file,
         int line, const std::string &msg)
{
    ++auditStats().failures;
    const std::string record = emv::detail::format(
        "%s failed: %s (%s) at %s:%d", kind, msg.c_str(), expr, file,
        line);
    emitRecord(record);
    if (failFastFlag.load(std::memory_order_relaxed))
        emv_panic("audit %s", record.c_str());
}

} // namespace detail

void
setEnabled(bool on)
{
    detail::auditMask.store(on ? 1u : 0u,
                            std::memory_order_relaxed);
}

void
setFailFast(bool on)
{
    failFastFlag.store(on, std::memory_order_relaxed);
}

bool
failFast()
{
    return failFastFlag.load(std::memory_order_relaxed);
}

StatGroup &
stats()
{
    return auditStats();
}

std::uint64_t
checkCount()
{
    return auditStats().checks.value();
}

std::uint64_t
failureCount()
{
    return auditStats().failures.value();
}

std::uint64_t
mismatchCount()
{
    return auditStats().mismatches.value();
}

void
resetCounters()
{
    auditStats().resetAll();
}

void
reportMismatch(const std::string &msg)
{
    ++auditStats().mismatches;
    emitRecord("mismatch: " + msg);
    if (failFastFlag.load(std::memory_order_relaxed))
        emv_panic("audit mismatch: %s", msg.c_str());
}

} // namespace emv::audit
