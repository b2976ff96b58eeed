/**
 * @file
 * Graph500-style breadth-first search over a power-law graph.
 *
 * BFS alternates two phases with very different memory behaviour:
 * frontier scans stream through the vertex arrays with good
 * spatial locality, while neighbour expansion gathers edge lists
 * (short sequential bursts at random offsets in the huge CSR edge
 * array) and scatters parent/visited updates across the vertex
 * array.  Degrees follow a power law, so a few vertices produce
 * long bursts and most produce short ones.
 */

#include "common/ckpt.hh"
#include "workload/detail.hh"
#include "workload/graph500.hh"

namespace emv::workload {

namespace {

class Graph500Workload : public BasicWorkload<Graph500Workload>
{
  public:
    Graph500Workload(std::uint64_t seed, double scale)
        : BasicWorkload(seed)
    {
        // One primary heap: vertex arrays in the front quarter,
        // CSR edges in the rest (as a real CSR allocation would be).
        specs.push_back({"heap", scaleBytes(6 * GiB, scale), true});
        _info.name = "graph500";
        _info.baseCyclesPerAccess = 150.0;
        _info.footprintBytes = totalFootprint();
        _info.bigMemory = true;
    }

    Op
    next() override
    {
        const Addr heap = base(0);
        const Addr vtx_bytes = bytesOf(0) / 4;
        const Addr edge_base = heap + vtx_bytes;
        const Addr edge_bytes = bytesOf(0) - vtx_bytes;

        if (scanLeft > 0) {
            // Frontier scan: sequential over the vertex array.
            --scanLeft;
            scanPos = (scanPos + 64) % vtx_bytes;
            return Op{Op::Kind::Read, heap + scanPos, 0};
        }
        if (burstLeft > 0) {
            --burstLeft;
            if (burstLeft % 2 == 0) {
                // Edge read: sequential within this vertex's list.
                burstPos += 8;
                return Op{Op::Kind::Read, edge_base + burstPos %
                                              edge_bytes, 0};
            }
            // Parent/visited update: scatter into vertices.
            return Op{Op::Kind::Write,
                      heap + (rng.nextBelow(vtx_bytes / 8) * 8), 0};
        }

        // Pick the next activity.
        if (rng.nextBool(0.15)) {
            scanLeft = 192;  // ~3 pages of sequential vertex reads.
            return next();
        }
        // Expand a vertex: power-law out-degree, 2 accesses/edge.
        const std::uint64_t degree = 1 + rng.nextZipf(64, 0.8);
        burstLeft = 2 * degree;
        burstPos = rng.nextBelow(edge_bytes / 8) * 8;
        return next();
    }

    template <class Ar>
    void
    fields(Ar &ar)
    {
        ar.u64(scanPos);
        ar.u64(scanLeft);
        ar.u64(burstLeft);
        ar.u64(burstPos);
    }

  private:
    Addr scanPos = 0;
    std::uint64_t scanLeft = 0;
    std::uint64_t burstLeft = 0;
    Addr burstPos = 0;
};

} // namespace

std::unique_ptr<Workload>
makeGraph500(std::uint64_t seed, double scale)
{
    return std::make_unique<Graph500Workload>(seed, scale);
}

} // namespace emv::workload
