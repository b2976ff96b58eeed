/**
 * @file
 * Balloon driver and self-ballooning (§IV, Fig. 9).
 *
 * A classic balloon driver [52] asks the guest OS for pages the VMM
 * may reclaim.  *Self-ballooning* chains that with memory hotplug:
 * the guest balloons out an arbitrary (fragmented) set of pages, the
 * VMM reclaims their backing, and the same amount of memory is
 * hot-added back as *contiguous* guest-physical addresses — turning
 * fragmented free memory into segment-grade contiguity without
 * paying for compaction.
 */

#pragma once

#include <functional>
#include <optional>
#include <vector>

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

/**
 * VMM half of the balloon/hotplug protocol (implemented by
 * emv::vmm::Vmm; abstract here so the guest side is testable
 * without a hypervisor).
 */
class BalloonBackend
{
  public:
    virtual ~BalloonBackend() = default;

    /** Guest surrenders these 4 KB gPAs; VMM reclaims backing. */
    virtual void reclaimGuestPages(const std::vector<Addr> &gpas) = 0;

    /** Guest hot-unplugged a whole range (I/O-gap reclaim); the
     *  VMM may free its backing.  Default: keep it. */
    virtual void reclaimGuestRange(Addr base, Addr bytes)
    { (void)base; (void)bytes; }

    /**
     * VMM extends guest-physical memory by @p bytes of *contiguous*
     * gPA (hot-add, KVM slot extension per §VI.C).
     * @return Base of the new range, or nullopt if exhausted.
     */
    virtual std::optional<Addr> grantExtension(Addr bytes) = 0;
};

/** The guest-resident driver. */
class BalloonDriver
{
  public:
    BalloonDriver(GuestOs &os, BalloonBackend &backend);

    /**
     * Inflate the balloon by @p bytes: pin free guest pages
     * (arbitrary addresses, as the kernel provides them) and hand
     * them to the VMM.  @return Bytes actually ballooned.
     */
    Addr inflate(Addr bytes);

    /**
     * Self-balloon: inflate @p bytes, then hot-add the same amount
     * of contiguous gPA granted by the VMM.
     * @return The new contiguous range on success.
     */
    std::optional<Interval> selfBalloon(Addr bytes);

    /** Total bytes currently ballooned out. */
    Addr inflatedBytes() const { return _inflatedBytes; }

    /** Pages currently held by the balloon. */
    const std::vector<Addr> &pinnedPages() const { return pinned; }

    /** Inject transient request failures: while the hook returns
     *  true, inflate() (and hence selfBalloon()) fails without
     *  touching guest memory — the caller retries with backoff. */
    void setRequestFaultHook(std::function<bool()> hook)
    { requestFaultHook = std::move(hook); }

    /** Checkpoint the pinned-page list and inflated byte count. */
    template <class Ar>
    void persist(Ar &ar);

  private:
    GuestOs &os;
    BalloonBackend &backend;
    std::vector<Addr> pinned;
    Addr _inflatedBytes = 0;
    std::function<bool()> requestFaultHook;
};

} // namespace emv::os

