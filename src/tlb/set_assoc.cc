#include "tlb/set_assoc.hh"

#include "common/ckpt.hh"
#include "common/logging.hh"

namespace emv::tlb {

SetAssoc::SetAssoc(unsigned sets, unsigned ways)
    : numSets(sets), numWays(ways), entries(sets * ways)
{
    emv_assert(sets > 0 && (sets & (sets - 1)) == 0,
               "set-associative array sets must be a power of two");
    emv_assert(ways > 0, "set-associative array needs at least one way");
}

void
SetAssoc::erase(std::uint64_t tag)
{
    Entry *set = setOf(tag);
    for (unsigned w = 0; w < numWays; ++w) {
        if (set[w].tag == tag)
            set[w].valid = false;
    }
}

void
SetAssoc::eraseIf(const TagPredicate &pred)
{
    for (auto &e : entries) {
        if (e.valid && pred(e.tag))
            e.valid = false;
    }
}

std::size_t
SetAssoc::countIf(const TagPredicate &pred) const
{
    std::size_t n = 0;
    for (const auto &e : entries)
        n += e.valid && pred(e.tag);
    return n;
}

void
SetAssoc::clear()
{
    for (auto &e : entries)
        e.valid = false;
}

void
SetAssoc::serialize(ckpt::Encoder &enc) const
{
    enc.u32(numSets);
    enc.u32(numWays);
    enc.u64(tick);
    enc.u64(entries.size());
    for (const auto &e : entries) {
        enc.u64(e.tag);
        enc.u64(e.value);
        enc.u64(e.lru);
        enc.u8(e.valid ? 1 : 0);
    }
}

bool
SetAssoc::deserialize(ckpt::Decoder &dec, const std::string &owner)
{
    const unsigned savedSets = dec.u32();
    const unsigned savedWays = dec.u32();
    if (dec.ok() && (savedSets != numSets || savedWays != numWays)) {
        dec.fail(owner + ": geometry mismatch");
        return false;
    }
    tick = dec.u64();
    const std::uint64_t n = dec.u64();
    if (dec.ok() && n != entries.size()) {
        dec.fail(owner + ": entry count mismatch");
        return false;
    }
    for (std::uint64_t i = 0; dec.ok() && i < n; ++i) {
        Entry &e = entries[static_cast<std::size_t>(i)];
        e.tag = dec.u64();
        e.value = dec.u64();
        e.lru = dec.u64();
        e.valid = dec.u8() != 0;
    }
    return dec.ok();
}

} // namespace emv::tlb
