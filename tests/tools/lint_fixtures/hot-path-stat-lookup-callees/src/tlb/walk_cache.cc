namespace emv::tlb {

std::optional<Addr>
WalkCache::lookup(std::uint64_t key)
{
    ++_stats.counter("hits");
    return std::nullopt;
}

void
WalkCache::insert(std::uint64_t key, Addr next_table)
{
    ++_stats.counter("inserts");
}

bool
LineCache::access(Addr pa)
{
    ++_stats.counter("hits");
    return true;
}

} // namespace emv::tlb
