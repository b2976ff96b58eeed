#include "common/audit.hh"

#include "common/thread_safety.hh"
#include "common/trace.hh"

namespace emv::audit {

namespace {

std::atomic<bool> failFastFlag{false};

/**
 * Counters live in a function-local StatGroup so the first audit use
 * (possibly from a static initializer in a test) still finds the
 * registry alive, and the group survives until process exit.
 *
 * The audit counters are the one stat group shared by every worker
 * thread, so their increments go through `mutex` (a leaf lock, per
 * thread_safety.hh: never held across emitRecord(), which takes the
 * trace sink lock).  Exporters read them through the registry
 * without this lock — only at quiescence, like all stat exports.
 */
struct AuditStats
{
    // The group's *structure* (name, parent, counter set) is fixed
    // during construction and never changes after; only the counter
    // values move, and those go through the guarded counters below.
    // Exporters read it registry-side at quiescence.
    EMV_THREAD_CONFINED StatGroup group{"audit"};
    Mutex mutex;
    Counter checks EMV_GUARDED_BY(mutex){group, "checks"};
    Counter failures EMV_GUARDED_BY(mutex){group, "failures"};
    Counter mismatches EMV_GUARDED_BY(mutex){group, "mismatches"};

    AuditStats() { group.setParent("machine"); }
};

AuditStats &
auditStats()
{
    static AuditStats stats;
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
    auto &stats = auditStats();
    LockGuard lock(stats.mutex);
    ++stats.checks;
}

void
failImpl(const char *kind, const char *expr, const char *file,
         int line, const std::string &msg)
{
    {
        auto &stats = auditStats();
        LockGuard lock(stats.mutex);
        ++stats.failures;
    }
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
    if (on)
        auditStats();  // Materialize machine.audit in the registry.
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
    return auditStats().group;
}

std::uint64_t
checkCount()
{
    auto &stats = auditStats();
    LockGuard lock(stats.mutex);
    return stats.checks.value();
}

std::uint64_t
failureCount()
{
    auto &stats = auditStats();
    LockGuard lock(stats.mutex);
    return stats.failures.value();
}

std::uint64_t
mismatchCount()
{
    auto &stats = auditStats();
    LockGuard lock(stats.mutex);
    return stats.mismatches.value();
}

void
resetCounters()
{
    auto &stats = auditStats();
    LockGuard lock(stats.mutex);
    stats.group.resetAll();
}

void
reportMismatch(const std::string &msg)
{
    {
        auto &stats = auditStats();
        LockGuard lock(stats.mutex);
        ++stats.mismatches;
    }
    emitRecord("mismatch: " + msg);
    if (failFastFlag.load(std::memory_order_relaxed))
        emv_panic("audit mismatch: %s", msg.c_str());
}

} // namespace emv::audit
