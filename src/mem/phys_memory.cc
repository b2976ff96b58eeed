#include "mem/phys_memory.hh"

#include <algorithm>
#include <string>

#include "common/audit.hh"
#include "common/ckpt.hh"
#include "common/logging.hh"

namespace emv::mem {

PhysMemory::PhysMemory(Addr size_bytes)
    : sizeBytes(size_bytes)
{
    emv_assert(size_bytes > 0 && isAligned(size_bytes, kPage4K),
               "physical memory size must be a positive multiple of 4K");
    blocks.resize(alignUp(size_bytes, kPage2M) / kPage2M);
}

const PhysMemory::Slot &
PhysMemory::slotAt(Addr addr) const
{
    static const Slot untouched;
    emv_assert(addr < sizeBytes,
               "physical access %s beyond memory size %s",
               hexAddr(addr).c_str(), hexAddr(sizeBytes).c_str());
    const Block *block = blocks[addr >> 21].get();
    return block ? (*block)[(addr >> 12) & 511] : untouched;
}

PhysMemory::Slot &
PhysMemory::slotFor(Addr addr)
{
    emv_assert(addr < sizeBytes,
               "physical access %s beyond memory size %s",
               hexAddr(addr).c_str(), hexAddr(sizeBytes).c_str());
    auto &block = blocks[addr >> 21];
    if (!block)
        block = std::make_unique<Block>();
    Slot &slot = (*block)[(addr >> 12) & 511];
    if (!slot.made) {
        slot.made = true;
        ++resident;
    }
    return slot;
}

PhysMemory::Frame &
PhysMemory::materialize(Slot &slot)
{
    if (!slot.words) {
        auto words = std::make_unique<Frame>();
        copyWords(slot, 0, 512, words->data());
        slot.words = std::move(words);
        ++stored;
    }
    return *slot.words;
}

void
PhysMemory::setLinear(Slot &slot, std::uint64_t first,
                      std::uint64_t stride)
{
    if (slot.words) {
        slot.words.reset();
        --stored;
    }
    slot.first = first;
    slot.stride = stride;
}

void
PhysMemory::storeFrame(Slot &slot, const std::uint64_t *words)
{
    const std::uint64_t first = words[0];
    const std::uint64_t stride = words[1] - words[0];
    unsigned i = 2;
    while (i < 512 && words[i] == first + i * stride)
        ++i;
    if (i == 512)
        setLinear(slot, first, stride);
    else
        std::copy(words, words + 512, materialize(slot).data());
}

void
PhysMemory::copyWords(const Slot &slot, unsigned from, unsigned n,
                      std::uint64_t *out)
{
    if (slot.words) {
        std::copy(slot.words->data() + from,
                  slot.words->data() + from + n, out);
        return;
    }
    for (unsigned i = 0; i < n; ++i)
        out[i] = slot.first + (from + i) * slot.stride;
}

std::uint64_t
PhysMemory::read64Checked(Addr addr) const
{
    emv_assert(isAligned(addr, 8), "misaligned 64-bit read at %s",
               hexAddr(addr).c_str());
    EMV_CHECK(addr < sizeBytes, "read of %s beyond physical size %s",
              hexAddr(addr).c_str(), hexAddr(sizeBytes).c_str());
    ++_stats.reads;
    std::uint64_t word;
    copyWords(slotAt(addr), (addr & (kPage4K - 1)) >> 3, 1, &word);
    return word;
}

void
PhysMemory::write64(Addr addr, std::uint64_t value)
{
    emv_assert(isAligned(addr, 8), "misaligned 64-bit write at %s",
               hexAddr(addr).c_str());
    EMV_CHECK(addr < sizeBytes, "write of %s beyond physical size %s",
              hexAddr(addr).c_str(), hexAddr(sizeBytes).c_str());
    ++_stats.writes;
    materialize(slotFor(addr))[(addr & (kPage4K - 1)) >> 3] = value;
}

void
PhysMemory::checkRun(Addr addr, unsigned n, const char *op) const
{
    emv_assert(isAligned(addr, 8) && n > 0 &&
                   (addr & (kPage4K - 1)) + 8ull * n <= kPage4K,
               "%s of %u words at %s is misaligned, empty or crosses a "
               "4K frame", op, n, hexAddr(addr).c_str());
    EMV_CHECK(addr < sizeBytes, "%s at %s beyond physical size %s", op,
              hexAddr(addr).c_str(), hexAddr(sizeBytes).c_str());
}

void
PhysMemory::readRun(Addr addr, unsigned n, std::uint64_t *out) const
{
    checkRun(addr, n, "read run");
    _stats.reads += n;
    copyWords(slotAt(addr), (addr & (kPage4K - 1)) >> 3, n, out);
}

void
PhysMemory::writeRun(Addr addr, unsigned n, const std::uint64_t *values)
{
    checkRun(addr, n, "write run");
    _stats.writes += n;
    Slot &slot = slotFor(addr);
    if (n == 512) {
        storeFrame(slot, values);
        return;
    }
    std::copy(values, values + n,
              materialize(slot).data() + ((addr & (kPage4K - 1)) >> 3));
}

void
PhysMemory::writeStep(Addr frame_base, std::uint64_t first,
                      std::uint64_t stride)
{
    checkRun(frame_base, 512, "write step");
    _stats.writes += 512;
    setLinear(slotFor(frame_base), first, stride);
}

bool
PhysMemory::readStep(Addr frame_base, std::uint64_t &first,
                     std::uint64_t &stride) const
{
    checkRun(frame_base, 512, "read step");
    const Slot &slot = slotAt(frame_base);
    if (slot.words)
        return false;
    _stats.reads += 512;
    first = slot.first;
    stride = slot.stride;
    return true;
}

void
PhysMemory::zeroFrame(Addr frame_base)
{
    emv_assert(isAligned(frame_base, kPage4K),
               "zeroFrame base %s not 4K aligned",
               hexAddr(frame_base).c_str());
    setLinear(slotFor(frame_base), 0, 0);
}

void
PhysMemory::copyFrame(Addr dst_base, Addr src_base)
{
    emv_assert(isAligned(dst_base, kPage4K) &&
               isAligned(src_base, kPage4K),
               "copyFrame bases must be 4K aligned");
    ++_stats.frameCopies;
    const Slot &src = slotAt(src_base);
    Slot &dst = slotFor(dst_base);
    if (&dst == &src)
        return;
    if (src.words)
        materialize(dst) = *src.words;
    else
        setLinear(dst, src.first, src.stride);
}

std::uint64_t
PhysMemory::hashFrame(Addr frame_base) const
{
    emv_assert(isAligned(frame_base, kPage4K),
               "hashFrame base %s not 4K aligned",
               hexAddr(frame_base).c_str());
    Frame words;
    copyWords(slotAt(frame_base), 0, 512, words.data());
    std::uint64_t hash = 0xcbf29ce484222325ull;
    constexpr std::uint64_t prime = 0x100000001b3ull;
    for (std::uint64_t word : words)
        hash = (hash ^ word) * prime;
    return hash;
}

void
PhysMemory::markBad(Addr addr)
{
    emv_assert(addr < sizeBytes, "bad-frame mark beyond memory");
    badFrames.insert(addr >> 12);
}

void
PhysMemory::clearBad(Addr addr)
{
    badFrames.erase(addr >> 12);
}

bool
PhysMemory::isBad(Addr addr) const
{
    return badFrames.count(addr >> 12) != 0;
}

std::vector<Addr>
PhysMemory::badFramesInRange(Addr base, Addr len) const
{
    std::vector<Addr> out;
    if (len == 0)
        return out;
    const std::uint64_t lo = base >> 12;
    const std::uint64_t hi = (base + len - 1) >> 12;
    for (std::uint64_t frame : badFrames) {
        if (frame >= lo && frame <= hi)
            out.push_back(frame << 12);
    }
    std::sort(out.begin(), out.end());
    return out;
}

bool
PhysMemory::anyBadInRange(Addr base, Addr len) const
{
    // The bad-frame set is tiny (a handful of hard faults); scan it
    // rather than the range.
    if (len == 0)
        return false;
    const std::uint64_t lo = base >> 12;
    const std::uint64_t hi = (base + len - 1) >> 12;
    for (std::uint64_t frame : badFrames) {
        if (frame >= lo && frame <= hi)
            return true;
    }
    return false;
}

template <class Ar>
void
PhysMemory::persist(Ar &ar)
{
    Addr size = sizeBytes;
    ar.u64(size);
    ar.check(size == sizeBytes, "physmem: size mismatch");

    std::vector<std::uint64_t> made;  // Frame indexes, ascending.
    if constexpr (!Ar::loading) {
        made.reserve(resident);
        for (std::uint64_t b = 0; b < blocks.size(); ++b) {
            for (std::uint64_t i = 0; blocks[b] && i < 512; ++i) {
                if ((*blocks[b])[i].made)
                    made.push_back(b << 9 | i);
            }
        }
    } else {
        for (auto &block : blocks)
            block.reset();
        resident = 0;
        stored = 0;
    }
    std::uint64_t nframes = made.size();
    ar.u64(nframes);
    Frame words;
    std::uint64_t prev = 0;
    for (std::uint64_t i = 0; ar.ok() && i < nframes; ++i) {
        std::uint64_t index = Ar::loading ? 0 : made[i];
        ar.u64(index);
        if constexpr (Ar::loading) {
            // Checked before the frame is stored: slotFor() indexes
            // by it.
            const std::string at =
                "physmem: frame index " + std::to_string(index);
            if (!ar.check(index < sizeBytes >> 12,
                          at + " beyond memory size") ||
                !ar.check(i == 0 || index > prev,
                          at + " does not ascend"))
                return;
            prev = index;
        } else {
            copyWords((*blocks[index >> 9])[index & 511], 0, 512,
                      words.data());
        }
        for (std::uint64_t &word : words)
            ar.u64(word);
        if constexpr (Ar::loading)
            storeFrame(slotFor(index << 12), words.data());
    }

    std::vector<std::uint64_t> bad;
    if constexpr (!Ar::loading) {
        bad.assign(badFrames.begin(), badFrames.end());
        std::sort(bad.begin(), bad.end());
    }
    ar.u64s(bad);
    if constexpr (Ar::loading)
        badFrames = {bad.begin(), bad.end()};

    _stats.persist(ar);
}

template void PhysMemory::persist(ckpt::Encoder &);
template void PhysMemory::persist(ckpt::Decoder &);

} // namespace emv::mem
