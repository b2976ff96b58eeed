/**
 * @file
 * SPEC CPU2006 compute-workload models (Fig. 12 set): cactusADM,
 * GemsFDTD, mcf, omnetpp.  Each reproduces the pattern class that
 * drives its TLB behaviour in the literature:
 *
 *  - cactusADM: 3D stencil sweeps whose plane/row strides touch a
 *    new 4K page on almost every neighbour access (the classic
 *    "high overhead even with THP" case).
 *  - GemsFDTD: several field arrays swept in lockstep (multiple
 *    concurrent streams) with far strided accesses.
 *  - mcf: pointer chasing over the arc array — windowed locality
 *    plus a uniform tail.
 *  - omnetpp: a heap of small event objects, Zipf-hot, with heavy
 *    allocation churn (the other shadow-paging loser in §IX.D).
 */

#include "common/ckpt.hh"
#include "workload/detail.hh"
#include "workload/spec.hh"

namespace emv::workload {

namespace {

class CactusWorkload : public BasicWorkload<CactusWorkload>
{
  public:
    CactusWorkload(std::uint64_t seed, double scale)
        : BasicWorkload(seed)
    {
        specs.push_back({"grid", scaleBytes(1408 * MiB, scale),
                         true});
        _info.name = "cactusADM";
        _info.baseCyclesPerAccess = 22.0;
        _info.footprintBytes = totalFootprint();
        _info.bigMemory = false;
    }

    Op
    next() override
    {
        // The grid is swept in pencil order: consecutive accesses
        // stride by a whole plane (z-major inner loop), touching a
        // fresh page almost every access — the access pattern that
        // makes cactusADM a TLB benchmark even under THP.
        const Addr bytes = bytesOf(0);
        const Addr plane = 8 * MiB;
        const Addr planes = bytes / plane;
        const Addr va = base(0) + z * plane + pencil;
        const bool write = (z % 4) == 0;
        if (++z >= planes) {
            z = 0;
            pencil = (pencil + 8) % plane;
        }
        return Op{write ? Op::Kind::Write : Op::Kind::Read, va, 0};
    }

    template <class Ar>
    void
    fields(Ar &ar)
    {
        ar.u64(z);
        ar.u64(pencil);
    }

  private:
    Addr z = 0;
    Addr pencil = 0;
};

class GemsWorkload : public BasicWorkload<GemsWorkload>
{
  public:
    GemsWorkload(std::uint64_t seed, double scale)
        : BasicWorkload(seed)
    {
        specs.push_back({"fields", scaleBytes(1200 * MiB, scale),
                         true});
        _info.name = "GemsFDTD";
        _info.baseCyclesPerAccess = 26.0;
        _info.footprintBytes = totalFootprint();
        _info.bigMemory = false;
    }

    Op
    next() override
    {
        const Addr field_bytes = bytesOf(0) / kStreams;
        const unsigned s = stream;
        stream = (stream + 1) % kStreams;
        if (s == 0)
            pos = (pos + 64) % field_bytes;
        if (s == kStreams - 1) {
            // One field is traversed in the slow (strided) axis:
            // 1 MB jumps between consecutive touches.
            zpos = (zpos + 1 * MiB + 64) % field_bytes;
            return Op{Op::Kind::Read,
                      base(0) + s * field_bytes + zpos, 0};
        }
        const Addr va = base(0) + s * field_bytes + pos;
        // Field updates write one stream, read the others.
        return Op{s == 0 ? Op::Kind::Write : Op::Kind::Read, va, 0};
    }

    template <class Ar>
    void
    fields(Ar &ar)
    {
        ar.u32(stream);
        ar.u64(pos);
        ar.u64(zpos);
    }

  private:
    static constexpr unsigned kStreams = 6;
    unsigned stream = 0;
    Addr pos = 0;
    Addr zpos = 0;
};

class McfWorkload : public BasicWorkload<McfWorkload>
{
  public:
    McfWorkload(std::uint64_t seed, double scale)
        : BasicWorkload(seed)
    {
        specs.push_back({"arcs", scaleBytes(1700 * MiB, scale),
                         true});
        _info.name = "mcf";
        _info.baseCyclesPerAccess = 140.0;
        _info.footprintBytes = totalFootprint();
        _info.bigMemory = false;
        cursor = 0;
    }

    Op
    next() override
    {
        const Addr bytes = bytesOf(0);
        if (rng.nextBool(0.6)) {
            // Chase within a 32K window of the cursor.
            const Addr window = 32 * KiB;
            cursor = (cursor + rng.nextBelow(window / 8) * 8) % bytes;
        } else {
            cursor = rng.nextBelow(bytes / 8) * 8;
        }
        const bool write = rng.nextBool(0.25);
        return Op{write ? Op::Kind::Write : Op::Kind::Read,
                  base(0) + cursor, 0};
    }

    template <class Ar>
    void
    fields(Ar &ar)
    {
        ar.u64(cursor);
    }

  private:
    Addr cursor = 0;
};

class OmnetppWorkload : public BasicWorkload<OmnetppWorkload>
{
  public:
    OmnetppWorkload(std::uint64_t seed, double scale,
                    std::uint64_t churn_period)
        : BasicWorkload(seed), churnPeriod(churn_period)
    {
        specs.push_back({"heap", scaleBytes(400 * MiB, scale),
                         true});
        _info.name = "omnetpp";
        _info.baseCyclesPerAccess = 34.0;
        _info.footprintBytes = totalFootprint();
        _info.bigMemory = false;
    }

    Op
    next() override
    {
        ++tick;
        if (churnPeriod && tick % churnPeriod == 0) {
            // Event-object pool recycling.
            const Addr chunk = 256 * KiB;
            const Addr chunks = bytesOf(0) / chunk;
            return Op{Op::Kind::Remap,
                      base(0) + rng.nextBelow(chunks) * chunk, chunk};
        }
        const Addr objects = bytesOf(0) / 256;
        const Addr va =
            base(0) + rng.nextZipf(objects, 1.05) * 256;
        return Op{rng.nextBool(0.3) ? Op::Kind::Write
                                    : Op::Kind::Read,
                  va, 0};
    }

    template <class Ar>
    void
    fields(Ar &ar)
    {
        ar.u64(tick);
    }

  private:
    std::uint64_t churnPeriod;
    std::uint64_t tick = 0;
};

} // namespace

std::unique_ptr<Workload>
makeCactusAdm(std::uint64_t seed, double scale)
{
    return std::make_unique<CactusWorkload>(seed, scale);
}

std::unique_ptr<Workload>
makeGemsFdtd(std::uint64_t seed, double scale)
{
    return std::make_unique<GemsWorkload>(seed, scale);
}

std::unique_ptr<Workload>
makeMcf(std::uint64_t seed, double scale)
{
    return std::make_unique<McfWorkload>(seed, scale);
}

std::unique_ptr<Workload>
makeOmnetpp(std::uint64_t seed, double scale,
            std::uint64_t churn_period)
{
    return std::make_unique<OmnetppWorkload>(seed, scale,
                                             churn_period);
}

} // namespace emv::workload
