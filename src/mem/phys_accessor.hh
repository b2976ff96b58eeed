/**
 * @file
 * Access to "my physical memory" for a kernel-level component.
 *
 * A native OS reads and writes host physical memory directly; a
 * guest OS reaches its guest-physical memory through whatever the
 * VMM mapped each gPA to.  PhysAccessor abstracts that difference so
 * emv::os::GuestOs runs unmodified in both roles — the same way one
 * Linux image runs bare-metal or under KVM.  It is also the word
 * interface of every page table (paging::MemSpace adds only table
 * frame allocation), so each operation has its word-loop default
 * here, once.
 */

#pragma once

#include <cstdint>

#include "common/types.hh"
#include "mem/phys_memory.hh"

namespace emv::mem {

/** Word access to an OS's own physical address space. */
class PhysAccessor
{
  public:
    /** 64-bit words in a 4 KB frame. */
    static constexpr unsigned kFrameWords = 512;

    virtual ~PhysAccessor() = default;

    virtual std::uint64_t read64(Addr pa) const = 0;
    virtual void write64(Addr pa, std::uint64_t value) = 0;

    /**
     * Load the @p n consecutive words at @p pa into @p out.  A run
     * stays inside one 4 KB frame, so a space that maps frames can
     * translate it once.  The default loads word by word.
     */
    virtual void
    readRun(Addr pa, unsigned n, std::uint64_t *out) const
    {
        for (unsigned i = 0; i < n; ++i)
            out[i] = read64(pa + 8ull * i);
    }

    /** Store @p n consecutive words at @p pa, inside one 4 KB
     *  frame.  The default stores word by word. */
    virtual void
    writeRun(Addr pa, unsigned n, const std::uint64_t *values)
    {
        for (unsigned i = 0; i < n; ++i)
            write64(pa + 8ull * i, values[i]);
    }

    /**
     * Store the whole 4 KB frame at @p frame_base as word i =
     * @p first + i * @p stride (mod 2^64).  The default stores the
     * 512 words as one writeRun().
     */
    virtual void
    writeStep(Addr frame_base, std::uint64_t first, std::uint64_t stride)
    {
        std::uint64_t words[kFrameWords];
        for (unsigned i = 0; i < kFrameWords; ++i)
            words[i] = first + i * stride;
        writeRun(frame_base, kFrameWords, words);
    }

    /**
     * If the 4 KB frame at @p frame_base is stored as word i =
     * first + i * stride, set @p first and @p stride, count its 512
     * loads and return true; otherwise load nothing and return
     * false.  The default returns false, so callers load the words.
     */
    virtual bool
    readStep(Addr /*frame_base*/, std::uint64_t & /*first*/,
             std::uint64_t & /*stride*/) const
    {
        return false;
    }

    /** Zero a 4 KB frame (default: 512 word writes). */
    virtual void
    zeroFrame(Addr frame_base)
    {
        for (unsigned i = 0; i < kFrameWords; ++i)
            write64(frame_base + 8ull * i, 0);
    }

    /** Copy a 4 KB frame (page migration). */
    virtual void
    copyFrame(Addr dst_base, Addr src_base)
    {
        for (unsigned i = 0; i < kFrameWords; ++i)
            write64(dst_base + 8ull * i, read64(src_base + 8ull * i));
    }

    /** True if the underlying host frame has hard faults (default:
     *  no hard faults). */
    virtual bool isBad(Addr /*pa*/) const { return false; }

    /** True if any 4 KB frame in [base, base+len) is faulty (default:
     *  no hard faults). */
    virtual bool
    anyBadInRange(Addr /*base*/, Addr /*len*/) const
    {
        return false;
    }
};

/** Identity accessor: the native case (PA == hPA). */
class HostPhysAccessor final : public PhysAccessor
{
  public:
    explicit HostPhysAccessor(PhysMemory &mem) : mem(mem) {}

    std::uint64_t read64(Addr pa) const override
    { return mem.read64(pa); }

    void write64(Addr pa, std::uint64_t value) override
    { mem.write64(pa, value); }

    void readRun(Addr pa, unsigned n, std::uint64_t *out) const override
    { mem.readRun(pa, n, out); }

    void
    writeRun(Addr pa, unsigned n, const std::uint64_t *values) override
    { mem.writeRun(pa, n, values); }

    void
    writeStep(Addr frame_base, std::uint64_t first, std::uint64_t stride)
        override
    { mem.writeStep(frame_base, first, stride); }

    bool
    readStep(Addr frame_base, std::uint64_t &first,
             std::uint64_t &stride) const override
    { return mem.readStep(frame_base, first, stride); }

    void zeroFrame(Addr frame_base) override
    { mem.zeroFrame(frame_base); }

    void copyFrame(Addr dst_base, Addr src_base) override
    { mem.copyFrame(dst_base, src_base); }

    bool isBad(Addr pa) const override { return mem.isBad(pa); }

    bool anyBadInRange(Addr base, Addr len) const override
    { return mem.anyBadInRange(base, len); }

  private:
    PhysMemory &mem;
};

} // namespace emv::mem
