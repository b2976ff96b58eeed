/**
 * @file
 * Workload trace generators (Table V).
 *
 * The paper drives its analysis with big-memory workloads
 * (graph500, memcached, NPB:CG), the GUPS micro-benchmark, and
 * compute workloads (SPEC 2006: cactusADM, GemsFDTD, mcf, omnetpp;
 * PARSEC: canneal, streamcluster).  We cannot ship those binaries
 * or their 60–75 GB datasets, so each workload is a deterministic
 * generator reproducing the *access-pattern class* that determines
 * TLB behaviour — footprint, locality mix, stride structure, and
 * allocation churn — over a scaled-down footprint (see DESIGN.md §2
 * for why this preserves the paper's comparisons).
 *
 * Every generator emits a stream of Ops: loads, stores, and Remap
 * events (allocation churn, the input that separates shadow paging
 * winners from losers in §IX.D).
 */

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"

namespace emv {
namespace ckpt {
class Encoder;
class Decoder;
} // namespace ckpt
} // namespace emv

namespace emv::workload {

/** A virtual-memory region the workload wants mapped. */
struct RegionSpec
{
    std::string name;
    Addr bytes = 0;
    bool primary = false;  //!< The big-memory heap (segment-eligible).
};

/** One trace event. */
struct Op
{
    enum class Kind : std::uint8_t {
        Read,
        Write,
        Remap,  //!< Free + re-allocate [va, va+bytes) (churn).
    };

    Kind kind = Kind::Read;
    Addr va = 0;
    Addr bytes = 0;  //!< Remap length.
};

/** Static description used for sizing and reporting. */
struct WorkloadInfo
{
    std::string name;
    /** Cycles of non-translation work per memory access (models
     *  compute + data-cache stalls; calibrated per workload). */
    double baseCyclesPerAccess = 10.0;
    Addr footprintBytes = 0;
    bool bigMemory = false;
};

/** Trace-generator interface. */
class Workload
{
  public:
    explicit Workload(std::uint64_t seed) : rng(seed) {}
    virtual ~Workload() = default;

    virtual const WorkloadInfo &info() const = 0;

    /** Regions to map, in declaration order. */
    virtual const std::vector<RegionSpec> &regions() const = 0;

    /**
     * The machine places each region and reports the bases here
     * (parallel to regions()) before the first next() call.
     */
    virtual void bindRegions(const std::vector<Addr> &bases) = 0;

    /** Produce the next trace event. */
    virtual Op next() = 0;

    /**
     * Checkpoint the generator cursor state: the RNG stream, then
     * the generator's private cursors (BasicWorkload routes both
     * archives to one field list).  Region specs, bases and info are
     * reconstructed from (kind, seed, scale) and are not stored.
     */
    virtual void persist(ckpt::Encoder &ar) = 0;
    virtual void persist(ckpt::Decoder &ar) = 0;

  protected:
    Rng rng;
};

/** The paper's workload suite. */
enum class WorkloadKind {
    Gups,
    Graph500,
    Memcached,
    NpbCg,
    CactusADM,
    GemsFDTD,
    Mcf,
    Omnetpp,
    Canneal,
    Streamcluster,
};

/** Printable name ("graph500", "mcf", ...). */
const char *workloadName(WorkloadKind kind);

/** True for the big-memory set (Fig. 11); false for Fig. 12. */
bool isBigMemory(WorkloadKind kind);

/** The Fig. 11 set. */
std::vector<WorkloadKind> bigMemoryWorkloads();

/** The Fig. 12 set. */
std::vector<WorkloadKind> computeWorkloads();

/**
 * Build a workload.
 *
 * @param kind  Which generator.
 * @param seed  Determinism seed.
 * @param scale Footprint multiplier (1.0 = default sizes; tests use
 *              much smaller values).
 */
std::unique_ptr<Workload> makeWorkload(WorkloadKind kind,
                                       std::uint64_t seed,
                                       double scale = 1.0);

} // namespace emv::workload

