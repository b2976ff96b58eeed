#include "segment/direct_segment.hh"

#include "common/ckpt.hh"
#include "common/logging.hh"

namespace emv::segment {

std::string
SegmentRegs::toString() const
{
    if (!enabled())
        return "[disabled]";
    return detail::format("[%s, %s) +%s", hexAddr(_base).c_str(),
                          hexAddr(_limit).c_str(),
                          hexAddr(_offset).c_str());
}

template <class Ar>
void
SegmentRegs::persist(Ar &ar)
{
    ar.u64(_base);
    ar.u64(_limit);
    ar.u64(_offset);
}

template void SegmentRegs::persist(ckpt::Encoder &);
template void SegmentRegs::persist(ckpt::Decoder &);

} // namespace emv::segment
