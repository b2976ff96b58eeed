#include "workload/workload.hh"

#include "common/logging.hh"
#include "workload/graph500.hh"
#include "workload/gups.hh"
#include "workload/memcached.hh"
#include "workload/npb_cg.hh"
#include "workload/parsec.hh"
#include "workload/spec.hh"

namespace emv::workload {

const char *
workloadName(WorkloadKind kind)
{
    switch (kind) {
      case WorkloadKind::Gups: return "gups";
      case WorkloadKind::Graph500: return "graph500";
      case WorkloadKind::Memcached: return "memcached";
      case WorkloadKind::NpbCg: return "npb:cg";
      case WorkloadKind::CactusADM: return "cactusADM";
      case WorkloadKind::GemsFDTD: return "GemsFDTD";
      case WorkloadKind::Mcf: return "mcf";
      case WorkloadKind::Omnetpp: return "omnetpp";
      case WorkloadKind::Canneal: return "canneal";
      case WorkloadKind::Streamcluster: return "streamcluster";
    }
    return "?";
}

bool
isBigMemory(WorkloadKind kind)
{
    switch (kind) {
      case WorkloadKind::Gups:
      case WorkloadKind::Graph500:
      case WorkloadKind::Memcached:
      case WorkloadKind::NpbCg:
        return true;
      default:
        return false;
    }
}

std::vector<WorkloadKind>
bigMemoryWorkloads()
{
    return {WorkloadKind::Graph500, WorkloadKind::Memcached,
            WorkloadKind::NpbCg, WorkloadKind::Gups};
}

std::vector<WorkloadKind>
computeWorkloads()
{
    return {WorkloadKind::CactusADM, WorkloadKind::GemsFDTD,
            WorkloadKind::Mcf, WorkloadKind::Omnetpp,
            WorkloadKind::Canneal, WorkloadKind::Streamcluster};
}

std::unique_ptr<Workload>
makeWorkload(WorkloadKind kind, std::uint64_t seed, double scale)
{
    emv_assert(scale > 0.0, "workload scale must be positive");
    switch (kind) {
      case WorkloadKind::Gups:
        return makeGups(seed, scale);
      case WorkloadKind::Graph500:
        return makeGraph500(seed, scale);
      case WorkloadKind::Memcached:
        return makeMemcached(seed, scale);
      case WorkloadKind::NpbCg:
        return makeNpbCg(seed, scale);
      case WorkloadKind::CactusADM:
        return makeCactusAdm(seed, scale);
      case WorkloadKind::GemsFDTD:
        return makeGemsFdtd(seed, scale);
      case WorkloadKind::Mcf:
        return makeMcf(seed, scale);
      case WorkloadKind::Omnetpp:
        return makeOmnetpp(seed, scale);
      case WorkloadKind::Canneal:
        return makeCanneal(seed, scale);
      case WorkloadKind::Streamcluster:
        return makeStreamcluster(seed, scale);
    }
    emv_panic("unknown workload kind");
}

} // namespace emv::workload
