#include "tlb/set_assoc.hh"

#include <algorithm>

#include "common/audit.hh"
#include "common/ckpt.hh"
#include "common/logging.hh"

namespace emv::tlb {

SetAssoc::SetAssoc(unsigned sets, unsigned ways)
    : numSets(sets), numWays(ways), tags(sets * ways),
      values(sets * ways), stamps(sets * ways), valid(sets * ways)
{
    emv_assert(sets > 0 && (sets & (sets - 1)) == 0,
               "set-associative array sets must be a power of two");
    emv_assert(ways > 0, "set-associative array needs at least one way");
}

void
SetAssoc::checkSingleCopy(std::size_t base, std::uint64_t tag) const
{
    EMV_INVARIANT([&] {
                      unsigned copies = 0;
                      for (std::size_t i = base; i < base + numWays; ++i)
                          copies += valid[i] && tags[i] == tag;
                      return copies == 1;
                  }(),
                  "set-associative array: tag %s stored twice",
                  hexAddr(tag).c_str());
}

bool
SetAssoc::erase(std::uint64_t tag)
{
    const std::size_t base = setBase(tag);
    bool dropped = false;
    for (std::size_t i = base; i < base + numWays; ++i) {
        if (tags[i] == tag) {
            dropped = dropped || valid[i];
            valid[i] = 0;
        }
    }
    return dropped;
}

void
SetAssoc::eraseIf(const TagPredicate &pred)
{
    for (std::size_t i = 0; i < tags.size(); ++i) {
        if (valid[i] && pred(tags[i]))
            valid[i] = 0;
    }
}

std::size_t
SetAssoc::countIf(const TagPredicate &pred) const
{
    std::size_t n = 0;
    for (std::size_t i = 0; i < tags.size(); ++i)
        n += valid[i] && pred(tags[i]);
    return n;
}

void
SetAssoc::clear()
{
    std::fill(valid.begin(), valid.end(), 0);
}

template <class Ar>
void
SetAssoc::persist(Ar &ar, const std::string &owner)
{
    unsigned sets = numSets;
    unsigned ways = numWays;
    ar.u32(sets);
    ar.u32(ways);
    ar.check(sets == numSets && ways == numWays,
             [&] { return owner + ": geometry mismatch"; });
    ar.u64(tick);
    if (!ar.fixed(tags, [&] { return owner + ": entry count mismatch"; }))
        return;
    for (std::size_t i = 0; i < tags.size(); ++i) {
        ar.u64(tags[i]);
        ar.u64(values[i]);
        ar.u64(stamps[i]);
        bool is_valid = valid[i];
        ar.u8(is_valid);
        if constexpr (Ar::loading)
            valid[i] = is_valid;
    }
    if constexpr (Ar::loading)
        validate(ar, owner);
}

template void SetAssoc::persist(ckpt::Encoder &, const std::string &);
template void SetAssoc::persist(ckpt::Decoder &, const std::string &);

void
SetAssoc::validate(ckpt::Decoder &dec, const std::string &owner) const
{
    for (std::size_t i = 0; i < tags.size(); ++i) {
        if (valid[i] && (stamps[i] == 0 || stamps[i] > tick)) {
            dec.fail(owner + ": LRU stamp out of range");
            return;
        }
    }
}

} // namespace emv::tlb
