/**
 * @file
 * KVM memory slots (Fig. 10).
 *
 * KVM maps ranges of guest physical addresses onto contiguous host
 * virtual memory of the VMM process via *memory slots*; host Linux
 * then maps hVA→hPA.  A stock VM has two large slots: [0, ~3 GB)
 * below the I/O gap and [4 GB, top) above it.  The self-ballooning
 * prototype (§VI.C) pre-extends the second slot by the largest
 * amount that hot-add may later need.
 */

#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/types.hh"

namespace emv {
namespace ckpt {
class Encoder;
class Decoder;
} // namespace ckpt
} // namespace emv

namespace emv::vmm {

/** One gPA→hVA slot. */
struct MemorySlot
{
    std::string name;
    Addr gpaBase = 0;
    Addr bytes = 0;
    Addr hvaBase = 0;

    Addr gpaEnd() const { return gpaBase + bytes; }
    bool
    contains(Addr gpa) const
    {
        return gpa >= gpaBase && gpa < gpaEnd();
    }
};

/** The slot table of one VM. */
class MemorySlots
{
  public:
    /** Register a slot; gPA ranges must not overlap. */
    void addSlot(std::string name, Addr gpa_base, Addr bytes,
                 Addr hva_base);

    /** Grow a slot in place (KVM slot extension). */
    void extendSlot(const std::string &name, Addr extra_bytes);

    std::optional<Addr> gpaToHva(Addr gpa) const;
    std::optional<Addr> hvaToGpa(Addr hva) const;

    const std::vector<MemorySlot> &slots() const { return table; }
    const MemorySlot *find(const std::string &name) const;

    /** Checkpoint the slot table (replaces contents on restore). */
    template <class Ar>
    void persist(Ar &ar);

  private:
    std::vector<MemorySlot> table;
};

} // namespace emv::vmm

