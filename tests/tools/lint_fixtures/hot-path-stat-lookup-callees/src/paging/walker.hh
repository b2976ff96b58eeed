#pragma once

namespace emv::paging {

template <typename ToHost>
WalkOutcome
radixWalk(const mem::PhysMemory &mem, Addr root, Addr va,
          RefStage stage, WalkTrace &trace, tlb::WalkCache *psc,
          ToHost &&to_host)
{
    ++_stats.counter("walks");
    return {};
}

} // namespace emv::paging
