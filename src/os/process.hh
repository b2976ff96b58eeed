/**
 * @file
 * A guest (or native) process: address space, page table, and the
 * primary-region / guest-segment state of §II.B.
 */

#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hh"
#include "paging/page_table.hh"
#include "segment/direct_segment.hh"

namespace emv {
namespace ckpt {
class Encoder;
class Decoder;
} // namespace ckpt
} // namespace emv

namespace emv::os {

/**
 * One mapped virtual region.  A *primary region* (Basu et al. [9])
 * is a contiguous chunk of anonymous memory with uniform
 * permissions, eligible for direct-segment backing.
 */
struct Region
{
    std::string name;
    Addr base = 0;
    Addr bytes = 0;
    bool primary = false;     //!< Eligible for a direct segment.
    PageSize pageSize = PageSize::Size4K;  //!< Preferred mapping size.

    Addr end() const { return base + bytes; }
    bool contains(Addr va) const { return va >= base && va < end(); }
};

/** Per-process state owned by the OS. */
class Process
{
  public:
    Process(int pid, paging::MemSpace &space);

    int pid() const { return _pid; }
    paging::PageTable &pageTable() { return *pt; }
    const paging::PageTable &pageTable() const { return *pt; }

    /** @{ Region bookkeeping (set up by GuestOs). */
    void addRegion(const Region &region);
    const std::vector<Region> &regions() const { return _regions; }
    const Region *findRegion(Addr va) const;
    Region *findRegion(Addr va);
    const Region *primaryRegion() const;
    /** @} */

    /**
     * Guest segment covering (part of) the primary region, if the
     * OS managed to create one.  Saved/restored on context switch.
     */
    const segment::SegmentRegs &guestSegment() const
    { return _guestSegment; }
    void setGuestSegment(const segment::SegmentRegs &regs)
    { _guestSegment = regs; }
    void clearGuestSegment() { _guestSegment.clear(); }

    /** Checkpoint page-table metadata, regions and segment regs. */
    template <class Ar>
    void persist(Ar &ar);

  private:
    int _pid;
    std::unique_ptr<paging::PageTable> pt;
    std::vector<Region> _regions;
    segment::SegmentRegs _guestSegment;
};

} // namespace emv::os

