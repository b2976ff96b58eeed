namespace emv::tlb {

std::optional<TlbHit>
TlbHierarchy::lookupL1(Addr gva)
{
    ++_stats.counter("l1_lookups");
    return std::nullopt;
}

} // namespace emv::tlb
