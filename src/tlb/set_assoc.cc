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

void
SetAssoc::serialize(ckpt::Encoder &enc) const
{
    enc.u32(numSets);
    enc.u32(numWays);
    enc.u64(tick);
    enc.u64(tags.size());
    for (std::size_t i = 0; i < tags.size(); ++i) {
        enc.u64(tags[i]);
        enc.u64(values[i]);
        enc.u64(stamps[i]);
        enc.u8(valid[i] ? 1 : 0);
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
    if (dec.ok() && n != tags.size()) {
        dec.fail(owner + ": entry count mismatch");
        return false;
    }
    for (std::size_t i = 0; dec.ok() && i < n; ++i) {
        tags[i] = dec.u64();
        values[i] = dec.u64();
        stamps[i] = dec.u64();
        valid[i] = dec.u8() != 0 ? 1 : 0;
        // insert() relies on this bound to pick its victim.
        if (dec.ok() && valid[i] && (stamps[i] == 0 || stamps[i] > tick)) {
            dec.fail(owner + ": LRU stamp out of range");
            return false;
        }
    }
    return dec.ok();
}

} // namespace emv::tlb
