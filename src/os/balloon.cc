#include "os/balloon.hh"

#include "common/ckpt.hh"
#include "common/logging.hh"
#include "common/profile.hh"
#include "common/trace.hh"
#include "os/guest_os.hh"

namespace emv::os {

BalloonDriver::BalloonDriver(GuestOs &os, BalloonBackend &backend)
    : os(os), backend(backend)
{
}

Addr
BalloonDriver::inflate(Addr bytes)
{
    prof::Scope balloon_scope(prof::Phase::Balloon);
    emv_assert(isAligned(bytes, kPage4K),
               "balloon size must be 4K aligned");
    if (requestFaultHook && requestFaultHook()) {
        EMV_TRACE(Balloon, "inflate request failed (injected)");
        return 0;
    }
    std::vector<Addr> batch;
    Addr got = 0;
    while (got < bytes) {
        // Like the virtio balloon, take whatever free 4K pages the
        // allocator hands out — typically scattered when memory is
        // fragmented.
        auto page = os.frames().buddy().allocate(0);
        if (!page)
            break;
        os.frames().markUnmovable(*page, kPage4K);  // Pinned, not swappable.
        batch.push_back(*page);
        got += kPage4K;
    }
    EMV_TRACE(Balloon, "inflate wanted=%llu got=%llu pages=%zu",
              static_cast<unsigned long long>(bytes),
              static_cast<unsigned long long>(got), batch.size());
    if (!batch.empty()) {
        backend.reclaimGuestPages(batch);
        pinned.insert(pinned.end(), batch.begin(), batch.end());
        _inflatedBytes += got;
    }
    if (got < bytes) {
        emv_warn("balloon inflate short: wanted %llu got %llu bytes",
                 static_cast<unsigned long long>(bytes),
                 static_cast<unsigned long long>(got));
    }
    return got;
}

std::optional<Interval>
BalloonDriver::selfBalloon(Addr bytes)
{
    prof::Scope balloon_scope(prof::Phase::Balloon);
    const Addr got = inflate(bytes);
    if (got < bytes)
        return std::nullopt;
    auto base = backend.grantExtension(bytes);
    if (!base)
        return std::nullopt;
    os.hotAdd(*base, bytes);
    EMV_TRACE(Balloon, "self-balloon extension [%s, +%s)",
              hexAddr(*base).c_str(), hexAddr(bytes).c_str());
    return Interval{*base, *base + bytes};
}

template <class Ar>
void
BalloonDriver::persist(Ar &ar)
{
    ar.u64s(pinned);
    ar.u64(_inflatedBytes);
}

template void BalloonDriver::persist(ckpt::Encoder &);
template void BalloonDriver::persist(ckpt::Decoder &);

} // namespace emv::os
