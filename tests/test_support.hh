/** @file Shared helpers for emv unit tests. */

#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/ckpt.hh"
#include "mem/phys_memory.hh"
#include "paging/page_table.hh"

namespace emv::test {

/** One layer's checkpoint state as raw encoder bytes. */
template <typename T>
std::vector<std::uint8_t>
ckptBytes(const T &obj)
{
    ckpt::Encoder enc;
    ckpt::save(enc, obj);
    return enc.buffer();
}

/**
 * Restore @p obj from @p bytes; true only when the load succeeds
 * and consumes the payload exactly.
 */
template <typename T>
bool
ckptRestore(const std::vector<std::uint8_t> &bytes, T &obj)
{
    ckpt::Decoder dec(bytes.data(), bytes.size());
    return ckpt::load(dec, obj) && dec.atEnd();
}

/**
 * Restore @p obj from @p bytes and return the decoder's error, or
 * "trailing bytes" when the restore left part of the payload unread;
 * empty on a clean restore.
 */
template <typename T>
std::string
ckptRestoreError(const std::vector<std::uint8_t> &bytes, T &obj)
{
    ckpt::Decoder dec(bytes.data(), bytes.size());
    if (!ckpt::load(dec, obj))
        return dec.error();
    return dec.atEnd() ? "" : "trailing bytes";
}

/**
 * Identity MemSpace over host memory with a bump allocator for
 * table frames — the minimal harness for page-table tests.
 */
class BumpMemSpace : public paging::MemSpace
{
  public:
    BumpMemSpace(mem::PhysMemory &mem, Addr frame_area_base)
        : mem(mem), next(frame_area_base)
    {
    }

    std::uint64_t
    read64(Addr addr) const override
    {
        return mem.read64(addr);
    }

    void
    write64(Addr addr, std::uint64_t value) override
    {
        mem.write64(addr, value);
    }

    Addr
    allocTableFrame() override
    {
        const Addr frame = next;
        next += kPage4K;
        mem.zeroFrame(frame);
        ++allocated;
        return frame;
    }

    void
    freeTableFrame(Addr frame) override
    {
        freed.push_back(frame);
    }

    std::uint64_t allocated = 0;
    /** Every freed frame, in the order it was freed. */
    std::vector<Addr> freed;

  private:
    mem::PhysMemory &mem;
    Addr next;
};

/**
 * A gPA-addressed space whose words reach host memory through a
 * nested page table, word by word, with a bump allocator for table
 * frames at gPA @p bump_base — the harness for guest tables in
 * two-dimensional walk tests.  Every gPA it touches must be mapped.
 */
class NestedGpaSpace : public paging::MemSpace
{
  public:
    NestedGpaSpace(mem::PhysMemory &host, const paging::PageTable &nested,
                   Addr bump_base)
        : host(host), nested(nested), next(bump_base)
    {
    }

    std::uint64_t
    read64(Addr gpa) const override
    {
        auto t = nested.translate(gpa);
        EXPECT_TRUE(t.has_value()) << hexAddr(gpa);
        return t ? host.read64(t->pa) : 0;
    }

    void
    write64(Addr gpa, std::uint64_t value) override
    {
        auto t = nested.translate(gpa);
        ASSERT_TRUE(t.has_value()) << hexAddr(gpa);
        host.write64(t->pa, value);
    }

    Addr
    allocTableFrame() override
    {
        const Addr gpa = next;
        next += kPage4K;
        for (unsigned i = 0; i < 512; ++i)
            write64(gpa + 8ull * i, 0);
        return gpa;
    }

    void freeTableFrame(Addr) override {}

  private:
    mem::PhysMemory &host;
    const paging::PageTable &nested;
    Addr next;
};

} // namespace emv::test

