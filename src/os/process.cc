#include "os/process.hh"

#include "common/ckpt.hh"
#include "common/logging.hh"

namespace emv::os {

Process::Process(int pid, paging::MemSpace &space)
    : _pid(pid), pt(std::make_unique<paging::PageTable>(space))
{
}

void
Process::addRegion(const Region &region)
{
    emv_assert(region.bytes > 0, "empty region '%s'",
               region.name.c_str());
    emv_assert(isAligned(region.base, kPage4K) &&
               isAligned(region.bytes, kPage4K),
               "region '%s' not page aligned", region.name.c_str());
    for (const auto &existing : _regions) {
        emv_assert(region.base >= existing.end() ||
                   region.end() <= existing.base,
                   "region '%s' overlaps '%s'", region.name.c_str(),
                   existing.name.c_str());
    }
    _regions.push_back(region);
}

const Region *
Process::findRegion(Addr va) const
{
    for (const auto &region : _regions) {
        if (region.contains(va))
            return &region;
    }
    return nullptr;
}

Region *
Process::findRegion(Addr va)
{
    for (auto &region : _regions) {
        if (region.contains(va))
            return &region;
    }
    return nullptr;
}

const Region *
Process::primaryRegion() const
{
    for (const auto &region : _regions) {
        if (region.primary)
            return &region;
    }
    return nullptr;
}

template <class Ar>
void
Process::persist(Ar &ar)
{
    int pid = _pid;
    ar.u32(pid);
    if (!ar.check(pid == _pid, "process: pid mismatch (restore "
                               "requires the same boot configuration)"))
        return;
    pt->persist(ar);
    ar.seq(_regions, [&](auto &region) {
        ar.str(region.name);
        ar.u64(region.base);
        ar.u64(region.bytes);
        ar.u8(region.primary);
        ar.u8(region.pageSize);
    });
    _guestSegment.persist(ar);
}

template void Process::persist(ckpt::Encoder &);
template void Process::persist(ckpt::Decoder &);

} // namespace emv::os
