/**
 * @file
 * NPB:CG — conjugate gradient over a sparse random matrix.
 *
 * The dominant kernel is sparse matrix-vector multiply: streaming
 * reads of the value/column arrays interleaved with gathers from
 * the dense vector at random column offsets.  The streaming half
 * has perfect spatial locality; the gather half behaves like a
 * random workload bounded by the vector size.
 */

#include "common/ckpt.hh"
#include "workload/detail.hh"
#include "workload/npb_cg.hh"

namespace emv::workload {

namespace {

class NpbCgWorkload : public BasicWorkload<NpbCgWorkload>
{
  public:
    NpbCgWorkload(std::uint64_t seed, double scale)
        : BasicWorkload(seed)
    {
        // One heap, as CG allocates it: sparse matrix (values +
        // colidx) in the front 7/8, dense vectors in the tail —
        // all inside the primary region, like Basu et al.'s
        // primary-region abstraction covers the whole data heap.
        specs.push_back({"heap", scaleBytes(4096 * MiB, scale),
                         true});
        _info.name = "npb:cg";
        _info.baseCyclesPerAccess = 60.0;
        _info.footprintBytes = totalFootprint();
        _info.bigMemory = true;
    }

    Op
    next() override
    {
        const Addr matrix_bytes = bytesOf(0) / 8 * 7;
        const Addr vec_base = base(0) + matrix_bytes;
        const Addr vec_bytes = bytesOf(0) - matrix_bytes;
        if (phase++ % 2 == 0) {
            // Stream values + colidx (64B effective stride).
            sweepPos = (sweepPos + 64) % matrix_bytes;
            return Op{Op::Kind::Read, base(0) + sweepPos, 0};
        }
        // Gather x[col[i]]: random within the vectors; the result
        // vector write happens once per row (~1/16 of ops).
        const Addr va = vec_base + rng.nextBelow(vec_bytes / 8) * 8;
        if (phase % 32 == 1)
            return Op{Op::Kind::Write, va, 0};
        return Op{Op::Kind::Read, va, 0};
    }

    template <class Ar>
    void
    fields(Ar &ar)
    {
        ar.u64(sweepPos);
        ar.u64(phase);
    }

  private:
    Addr sweepPos = 0;
    std::uint64_t phase = 0;
};

} // namespace

std::unique_ptr<Workload>
makeNpbCg(std::uint64_t seed, double scale)
{
    return std::make_unique<NpbCgWorkload>(seed, scale);
}

} // namespace emv::workload
