/**
 * @file
 * PARSEC compute-workload models (Fig. 12 set): canneal and
 * streamcluster.
 *
 *  - canneal: simulated annealing over a large netlist — dominated
 *    by uniform random element swaps with a small local component.
 *  - streamcluster: online clustering — long streaming passes over
 *    the point set punctuated by random accesses to the current
 *    medoid working set.
 */

#include "common/ckpt.hh"
#include "workload/detail.hh"
#include "workload/parsec.hh"

namespace emv::workload {

namespace {

class CannealWorkload : public BasicWorkload<CannealWorkload>
{
  public:
    CannealWorkload(std::uint64_t seed, double scale)
        : BasicWorkload(seed)
    {
        specs.push_back({"netlist", scaleBytes(1024 * MiB, scale),
                         true});
        _info.name = "canneal";
        _info.baseCyclesPerAccess = 110.0;
        _info.footprintBytes = totalFootprint();
        _info.bigMemory = false;
    }

    Op
    next() override
    {
        if (localLeft > 0) {
            // Walk the element's neighbour list.
            --localLeft;
            localPos += 64;
            return Op{Op::Kind::Read,
                      base(0) + localPos % bytesOf(0), 0};
        }
        // Pick two random elements to consider swapping.
        localPos = randomIn(0) - base(0);
        localLeft = 4;
        return Op{rng.nextBool(0.15) ? Op::Kind::Write
                                     : Op::Kind::Read,
                  randomIn(0), 0};
    }

    template <class Ar>
    void
    fields(Ar &ar)
    {
        ar.u64(localPos);
        ar.u64(localLeft);
    }

  private:
    Addr localPos = 0;
    std::uint64_t localLeft = 0;
};

class StreamclusterWorkload : public BasicWorkload<StreamclusterWorkload>
{
  public:
    StreamclusterWorkload(std::uint64_t seed, double scale)
        : BasicWorkload(seed)
    {
        specs.push_back({"points", scaleBytes(512 * MiB, scale),
                         true});
        specs.push_back({"medoids", scaleBytes(8 * MiB, scale),
                         false});
        _info.name = "streamcluster";
        _info.baseCyclesPerAccess = 14.0;
        _info.footprintBytes = totalFootprint();
        _info.bigMemory = false;
    }

    Op
    next() override
    {
        if (++tick % 8 == 0) {
            // Distance computation against a current medoid.
            return Op{Op::Kind::Read, randomIn(1), 0};
        }
        pos = (pos + 64) % bytesOf(0);
        return Op{Op::Kind::Read, base(0) + pos, 0};
    }

    template <class Ar>
    void
    fields(Ar &ar)
    {
        ar.u64(pos);
        ar.u64(tick);
    }

  private:
    Addr pos = 0;
    std::uint64_t tick = 0;
};

} // namespace

std::unique_ptr<Workload>
makeCanneal(std::uint64_t seed, double scale)
{
    return std::make_unique<CannealWorkload>(seed, scale);
}

std::unique_ptr<Workload>
makeStreamcluster(std::uint64_t seed, double scale)
{
    return std::make_unique<StreamclusterWorkload>(seed, scale);
}

} // namespace emv::workload
