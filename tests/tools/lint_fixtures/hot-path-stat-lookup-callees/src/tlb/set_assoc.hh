#pragma once

namespace emv::tlb {

inline std::optional<std::uint64_t>
SetAssoc::find(std::uint64_t tag)
{
    ++_stats.counter("hits");
    return std::nullopt;
}

inline SetAssoc::InsertResult
SetAssoc::insert(std::uint64_t tag, std::uint64_t value)
{
    ++_stats.counter("inserts");
    return {};
}

} // namespace emv::tlb
