namespace emv::paging {

WalkOutcome
Walker::walk(Addr root, Addr va, RefStage stage, WalkTrace &trace,
             tlb::WalkCache *cache) const
{
    ++_stats.counter("walks");
    return {};
}

} // namespace emv::paging
