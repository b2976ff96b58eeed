namespace emv::paging {

WalkOutcome
NestedWalker::walk(Addr guest_root_gpa, Addr gva,
                   GpaTranslator &nested, WalkTrace &trace,
                   tlb::WalkCache *guest_cache) const
{
    ++_stats.counter("walks");
    return {};
}

} // namespace emv::paging
