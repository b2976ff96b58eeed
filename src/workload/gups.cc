/**
 * @file
 * GUPS (Giga-Updates Per Second), the HPC Challenge random-access
 * micro-benchmark: read-modify-write of random 8-byte words in one
 * huge table.  The worst case for any TLB — essentially every
 * access misses — which is why the paper plots it on its own axis.
 */

#include "common/ckpt.hh"
#include "workload/detail.hh"
#include "workload/gups.hh"

namespace emv::workload {

namespace {

class GupsWorkload : public BasicWorkload<GupsWorkload>
{
  public:
    GupsWorkload(std::uint64_t seed, double scale)
        : BasicWorkload(seed)
    {
        // 10 GB default: even at half scale the table exceeds the
        // 4-entry 1G L1 TLB reach, exposing the paper's "limited
        // 1GB TLB entries" effect.
        specs.push_back(
            {"table", scaleBytes(10 * GiB, scale), true});
        specs.push_back({"stream", scaleBytes(16 * MiB, scale),
                         false});
        _info.name = "gups";
        _info.baseCyclesPerAccess = 210.0;
        _info.footprintBytes = totalFootprint();
        _info.bigMemory = true;
    }

    Op
    next() override
    {
        // Finish the write half of a pending update first.
        if (pendingWrite) {
            pendingWrite = false;
            return Op{Op::Kind::Write, pendingVa, 0};
        }
        ++tick;
        if (tick % 9 == 0) {
            // Sequential pass over the random-number stream.
            streamPos = (streamPos + 64) % bytesOf(1);
            return Op{Op::Kind::Read, base(1) + streamPos, 0};
        }
        pendingVa = randomIn(0);
        pendingWrite = true;
        return Op{Op::Kind::Read, pendingVa, 0};
    }

    template <class Ar>
    void
    fields(Ar &ar)
    {
        ar.u64(pendingVa);
        ar.u8(pendingWrite);
        ar.u64(streamPos);
        ar.u64(tick);
    }

  private:
    Addr pendingVa = 0;
    bool pendingWrite = false;
    Addr streamPos = 0;
    std::uint64_t tick = 0;
};

} // namespace

std::unique_ptr<Workload>
makeGups(std::uint64_t seed, double scale)
{
    return std::make_unique<GupsWorkload>(seed, scale);
}

} // namespace emv::workload
