/**
 * @file
 * Content-based page sharing (§IX.E).
 *
 * The VMM scans backed guest frames, hashes their contents, and maps
 * identical pages copy-on-write to a single host frame [52].  The
 * paper co-schedules pairs of big-memory VMs and finds under 3%
 * savings — the bulk of memory is workload-unique data — so giving
 * sharing up inside VMM segments costs little.
 */

#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace emv::vmm {

class Vm;
class Vmm;

/** Result of a sharing scan. */
struct SharingReport
{
    std::uint64_t scannedFrames = 0;
    std::uint64_t duplicateFrames = 0;  //!< Frames beyond the first
                                        //!< copy of each content.
    Addr savedBytes = 0;
    double savedFraction = 0.0;
};

/** The sharing daemon. */
class PageSharing
{
  public:
    explicit PageSharing(Vmm &vmm);

    /** Hash all backed frames of @p vms and report the potential. */
    SharingReport scan(const std::vector<Vm *> &vms) const;

    /**
     * Deduplicate: repoint identical frames to one copy (COW) and
     * free the rest.  Do not combine with segment-backed VMs or
     * host compaction (the paper's Table II "limited" entries).
     * @return Frames freed.
     */
    std::uint64_t mergeDuplicates(const std::vector<Vm *> &vms);

    /** Break COW on a guest write to @p gpa of @p vm. */
    void onGuestWrite(Vm &vm, Addr gpa);

    /** True if the host frame is currently shared COW. */
    bool isShared(Addr hpa) const;

    StatGroup &stats() { return _stats; }

  private:
    Vmm &vmm;
    /** hPA frame -> reference count (>1 means shared). */
    std::unordered_map<Addr, std::uint32_t> refCounts;
    struct Stats : StatGroup
    {
        Stats() : StatGroup("sharing") {}
        Counter framesMerged{*this, "frames_merged"};
        Counter cowBreaks{*this, "cow_breaks"};
    };
    Stats _stats;
};

} // namespace emv::vmm

