/**
 * @file
 * Memory-compaction daemon (§IV, "Memory compaction").
 *
 * Linux-style compaction [20]: pick a target window, migrate every
 * movable allocated page out of it, and hand back one large free
 * run — the slow path for creating direct segments on fragmented
 * memory (Table III's "slowly converted ... with host memory
 * compaction" rows describe the same mechanism on the host side,
 * in emv::vmm::Vm::materializeVmmSegmentBacking()).  Both pick and
 * reserve their window through FrameManager; each migrates its own
 * victims.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "common/intervals.hh"
#include "common/types.hh"

namespace emv {
namespace ckpt {
class Encoder;
class Decoder;
} // namespace ckpt
} // namespace emv

namespace emv::os {

class GuestOs;
class Process;

/** Guest-side compaction daemon. */
class CompactionDaemon
{
  public:
    /**
     * @param on_remap Invoked after a page migrates so the machine
     *        layer can invalidate TLB entries for the moved VA.
     */
    using RemapHook =
        std::function<void(Process &, Addr va, PageSize size)>;

    explicit CompactionDaemon(GuestOs &os, RemapHook on_remap = {});

    /**
     * Migrate pages until a free run of @p bytes exists.
     *
     * @param bytes           Required contiguous free length.
     * @param max_migrations  Work budget in pages (0 = unlimited);
     *                        if the best window needs more, nothing
     *                        is migrated and nullopt is returned.
     * @return The free run on success.
     */
    std::optional<Interval> createFreeRun(Addr bytes,
                                          std::uint64_t
                                              max_migrations = 0);

    /** Pages the cheapest viable window would need to migrate. */
    std::optional<std::uint64_t> estimateMigrations(Addr bytes);

    /** Pages migrated over this daemon's lifetime. */
    std::uint64_t migratedPages() const { return migrated; }

    /** Inject transient failures: while the hook returns true,
     *  createFreeRun() fails without migrating anything. */
    void setFaultHook(std::function<bool()> hook)
    { faultHook = std::move(hook); }

    /** Checkpoint the lifetime migration counter. */
    template <class Ar>
    void persist(Ar &ar);

  private:
    GuestOs &os;
    RemapHook onRemap;
    std::function<bool()> faultHook;
    std::uint64_t migrated = 0;
};

} // namespace emv::os

