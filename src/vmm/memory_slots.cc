#include "vmm/memory_slots.hh"

#include "common/ckpt.hh"
#include "common/logging.hh"

namespace emv::vmm {

void
MemorySlots::addSlot(std::string name, Addr gpa_base, Addr bytes,
                     Addr hva_base)
{
    emv_assert(bytes > 0, "empty memory slot '%s'", name.c_str());
    for (const auto &slot : table) {
        emv_assert(gpa_base >= slot.gpaEnd() ||
                   gpa_base + bytes <= slot.gpaBase,
                   "slot '%s' overlaps '%s' in gPA", name.c_str(),
                   slot.name.c_str());
    }
    table.push_back(MemorySlot{std::move(name), gpa_base, bytes,
                               hva_base});
}

void
MemorySlots::extendSlot(const std::string &name, Addr extra_bytes)
{
    for (auto &slot : table) {
        if (slot.name != name)
            continue;
        for (const auto &other : table) {
            if (&other == &slot)
                continue;
            emv_assert(slot.gpaEnd() + extra_bytes <= other.gpaBase ||
                       other.gpaEnd() <= slot.gpaBase,
                       "slot '%s' extension collides with '%s'",
                       name.c_str(), other.name.c_str());
        }
        slot.bytes += extra_bytes;
        return;
    }
    emv_panic("extendSlot: no slot named '%s'", name.c_str());
}

std::optional<Addr>
MemorySlots::gpaToHva(Addr gpa) const
{
    for (const auto &slot : table) {
        if (slot.contains(gpa))
            return slot.hvaBase + (gpa - slot.gpaBase);
    }
    return std::nullopt;
}

std::optional<Addr>
MemorySlots::hvaToGpa(Addr hva) const
{
    for (const auto &slot : table) {
        if (hva >= slot.hvaBase && hva < slot.hvaBase + slot.bytes)
            return slot.gpaBase + (hva - slot.hvaBase);
    }
    return std::nullopt;
}

const MemorySlot *
MemorySlots::find(const std::string &name) const
{
    for (const auto &slot : table) {
        if (slot.name == name)
            return &slot;
    }
    return nullptr;
}

template <class Ar>
void
MemorySlots::persist(Ar &ar)
{
    ar.seq(table, [&](auto &slot) {
        ar.str(slot.name);
        ar.u64(slot.gpaBase);
        ar.u64(slot.bytes);
        ar.u64(slot.hvaBase);
    });
}

template void MemorySlots::persist(ckpt::Encoder &);
template void MemorySlots::persist(ckpt::Decoder &);

} // namespace emv::vmm
