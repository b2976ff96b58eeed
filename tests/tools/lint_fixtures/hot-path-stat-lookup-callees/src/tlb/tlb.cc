namespace emv::tlb {

std::optional<TlbHit>
Tlb::lookup(EntryKind kind, Addr addr, PageSize size)
{
    ++_stats.counter("hits");
    return std::nullopt;
}

void
Tlb::insert(EntryKind kind, Addr addr, Addr frame, PageSize size)
{
    ++_stats.counter("inserts");
}

} // namespace emv::tlb
