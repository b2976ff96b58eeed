/**
 * @file
 * Clang thread-safety (capability) annotations and an annotated
 * mutex for the services worker threads share.
 *
 * sim::runMatrix() runs one Machine at a time per worker thread;
 * everything a Machine touches — its stat groups and its thread's
 * audit counters included — is thread-confined *except* the
 * process-wide services: the telemetry recorder and its merge
 * paths, the trace/logging sinks and the profiler records.  This
 * header gives those services a
 * vocabulary to *prove* their locking discipline at compile time
 * instead of asserting it in comments:
 *
 *   EMV_CAPABILITY("mutex")  — marks a type as a lockable capability;
 *   EMV_GUARDED_BY(mu)       — data member readable/writable only
 *                              while holding mu;
 *   EMV_PT_GUARDED_BY(mu)    — pointee (not the pointer) guarded;
 *   EMV_REQUIRES(mu)         — function must be called with mu held;
 *   EMV_ACQUIRE / EMV_RELEASE— function acquires / releases mu;
 *   EMV_EXCLUDES(mu)         — function must NOT be called with mu
 *                              held (documents non-reentrancy);
 *   EMV_THREAD_CONFINED      — documentation-only: the member belongs
 *                              to the owning thread and is never
 *                              shared; emv_lint's unguarded-member
 *                              rule accepts it in mutex-owning
 *                              classes in place of EMV_GUARDED_BY.
 *
 * The attributes are Clang-only: under `clang++ -Wthread-safety`
 * (cmake -DEMV_THREAD_SAFETY=ON, or the `thread-safety` preset, or
 * the CI job of the same name) every unlocked access to annotated
 * state is a compile error; under GCC every macro expands to
 * nothing and the code is unchanged.
 *
 * Lock-ordering contract (enforced by annotation, documented here
 * once): every lock in this codebase is a *leaf* lock.  No code
 * holding one of these mutexes may call back into user-supplied
 * code (visitors, fault hooks) or acquire a second emv lock.
 * Methods that call out (or trace) therefore copy what they need
 * under the lock and release it first (see
 * FaultInjector::shouldFail) — which is also why the
 * public entry points carry EMV_EXCLUDES(mutex) rather than
 * EMV_REQUIRES(mutex).  The one documented exception is the
 * telemetry recorder, whose source getters run under its lock and
 * must therefore only read counters and atomics.
 */

#pragma once

#include <mutex>

#if defined(__clang__)
#define EMV_TS_ATTR(x) __attribute__((x))
#else
#define EMV_TS_ATTR(x)  // GCC: no capability analysis; expand empty.
#endif

#define EMV_CAPABILITY(x) EMV_TS_ATTR(capability(x))
#define EMV_SCOPED_CAPABILITY EMV_TS_ATTR(scoped_lockable)
#define EMV_GUARDED_BY(x) EMV_TS_ATTR(guarded_by(x))
#define EMV_PT_GUARDED_BY(x) EMV_TS_ATTR(pt_guarded_by(x))
#define EMV_ACQUIRE(...) EMV_TS_ATTR(acquire_capability(__VA_ARGS__))
#define EMV_RELEASE(...) EMV_TS_ATTR(release_capability(__VA_ARGS__))
#define EMV_TRY_ACQUIRE(...) \
    EMV_TS_ATTR(try_acquire_capability(__VA_ARGS__))
#define EMV_REQUIRES(...) \
    EMV_TS_ATTR(requires_capability(__VA_ARGS__))
#define EMV_EXCLUDES(...) EMV_TS_ATTR(locks_excluded(__VA_ARGS__))
#define EMV_RETURN_CAPABILITY(x) EMV_TS_ATTR(lock_returned(x))
#define EMV_NO_THREAD_SAFETY_ANALYSIS \
    EMV_TS_ATTR(no_thread_safety_analysis)

/** Documentation-only: owner-thread state in a mutex-owning class
 *  (no attribute exists for confinement; emv_lint reads it). */
#define EMV_THREAD_CONFINED

namespace emv {

/**
 * std::mutex wrapped as an annotated capability.  libstdc++'s
 * std::mutex carries no capability attributes, so guarding members
 * with it directly would make every EMV_GUARDED_BY a
 * -Wthread-safety-attributes warning; this wrapper is the one
 * blessed lock type for annotated classes.
 */
class EMV_CAPABILITY("mutex") Mutex
{
  public:
    Mutex() = default;
    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    void lock() EMV_ACQUIRE() { m.lock(); }
    void unlock() EMV_RELEASE() { m.unlock(); }
    bool tryLock() EMV_TRY_ACQUIRE(true) { return m.try_lock(); }

  private:
    std::mutex m;
};

/** RAII scope lock over Mutex (annotated std::lock_guard). */
class EMV_SCOPED_CAPABILITY LockGuard
{
  public:
    explicit LockGuard(Mutex &mutex) EMV_ACQUIRE(mutex)
        : mutex(mutex)
    {
        mutex.lock();
    }

    ~LockGuard() EMV_RELEASE() { mutex.unlock(); }

    LockGuard(const LockGuard &) = delete;
    LockGuard &operator=(const LockGuard &) = delete;

  private:
    Mutex &mutex;
};

} // namespace emv
