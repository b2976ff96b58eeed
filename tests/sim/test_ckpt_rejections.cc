/** @file
 * Every semantic restore error, one crafted-bytes case each.  Each
 * case saves a valid state, damages one field (or restores into an
 * object booted differently) and expects the exact error string, so
 * a restore check cannot be dropped or reworded without a failure
 * here.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/ckpt.hh"
#include "common/telemetry.hh"
#include "fault/fault_injector.hh"
#include "fault/fault_plan.hh"
#include "mem/buddy_allocator.hh"
#include "mem/phys_accessor.hh"
#include "mem/phys_memory.hh"
#include "os/guest_os.hh"
#include "os/process.hh"
#include "paging/page_table.hh"
#include "sim/experiment.hh"
#include "sim/machine.hh"
#include "tlb/walk_cache.hh"
#include "vmm/vmm.hh"
#include "workload/workload.hh"
#include "../test_support.hh"

namespace emv::sim {
namespace {

using Bytes = std::vector<std::uint8_t>;

/** Overwrite the @p width little-endian bytes at @p offset. */
void
patch(Bytes &bytes, std::size_t offset, std::uint64_t value,
      unsigned width = 8)
{
    ASSERT_LE(offset + width, bytes.size());
    for (unsigned i = 0; i < width; ++i)
        bytes[offset + i] = static_cast<std::uint8_t>(value >> (8 * i));
}

/** A gups machine booted under @p label the way emvsim boots one. */
struct Booted
{
    explicit Booted(const std::string &label)
    {
        RunParams params;
        params.scale = 0.02;
        params.seed = 42;
        wl = workload::makeWorkload(workload::WorkloadKind::Gups, 42,
                                    params.scale);
        machine = std::make_unique<Machine>(
            makeMachineConfig(*specFromLabel(label), params), *wl);
    }

    std::unique_ptr<workload::Workload> wl;
    std::unique_ptr<Machine> machine;
};

/**
 * Save a @p from machine, pass chunk @p tag's payload through
 * @p edit (CRCs are recomputed), restore into a fresh @p into
 * machine and return the restore error.
 */
std::string
machineRestoreError(const std::string &from, const std::string &into,
                    const std::string &tag = "",
                    const std::function<void(Bytes &)> &edit = {})
{
    Booted saved(from);
    ckpt::Writer writer;
    saved.machine->serialize(writer);
    const Bytes file = writer.serialize();
    ckpt::Reader reader;
    EXPECT_TRUE(reader.parse(file.data(), file.size()));

    ckpt::Writer damaged;
    for (const std::string &t : reader.tags()) {
        ckpt::Decoder dec = reader.chunk(t);
        Bytes payload(dec.remaining());
        dec.bytes(payload.data(), payload.size());
        if (t == tag)
            edit(payload);
        ckpt::Encoder enc;
        enc.bytes(payload.data(), payload.size());
        damaged.chunk(t, enc);
    }
    const Bytes out = damaged.serialize();
    ckpt::Reader damagedReader;
    EXPECT_TRUE(damagedReader.parse(out.data(), out.size()));

    Booted target(into);
    std::string error;
    EXPECT_FALSE(target.machine->deserialize(damagedReader, error));
    return error;
}

/** Offset of the terminal-fault flag in the "machine" chunk: mode
 *  (u8), op cursor (u64), three cycle pools (f64), five counters
 *  (u64). */
constexpr std::size_t kMachineFaultFlag = 1 + 8 + 3 * 8 + 5 * 8;

/** A 256 MB guest OS over its own host memory. */
struct SmallOs
{
    static constexpr Addr kSpan = 256 * MiB;

    SmallOs()
        : mem(kSpan), accessor(mem),
          os(accessor, kSpan, {{0, kSpan}}, os::OsConfig{})
    {
    }

    mem::PhysMemory mem;
    mem::HostPhysAccessor accessor;
    os::GuestOs os;
};

/** A 1.5 GB host with a VMM and no VMs yet. */
struct SmallHost
{
    static constexpr Addr kHostRam = 1536 * MiB;

    SmallHost() : mem(kHostRam), vmm(mem, kHostRam) {}

    vmm::VmConfig
    vmConfig() const
    {
        vmm::VmConfig cfg;
        cfg.ramBytes = 512 * MiB;
        cfg.lowRamBytes = 96 * MiB;
        cfg.ioGapStart = 96 * MiB;
        cfg.ioGapEnd = 128 * MiB;
        cfg.nestedPageSize = PageSize::Size4K;
        return cfg;
    }

    mem::PhysMemory mem;
    vmm::Vmm vmm;
};

fault::FaultInjector
threeEventInjector()
{
    return fault::FaultInjector(
        *fault::FaultPlan::parse("dram@100x2,balloonfail@200,filtersat@300"),
        1);
}

struct Rejection
{
    const char *name;
    std::function<std::string()> restore;  //!< Returns the error.
    std::string error;
};

const Rejection kRejections[] = {
    {"SetAssocEntryCount",
     [] {
         tlb::WalkCache cache(4, 2, "psc");
         Bytes bytes = test::ckptBytes(cache);
         patch(bytes, 16, 99);  // After sets, ways (u32) and tick.
         return test::ckptRestoreError(bytes, cache);
     },
     "psc: entry count mismatch"},
    {"BuddyRange",
     [] {
         mem::BuddyAllocator buddy(0, 64 * MiB);
         Bytes bytes = test::ckptBytes(buddy);
         patch(bytes, 0, 2 * MiB);
         return test::ckptRestoreError(bytes, buddy);
     },
     "buddy: managed range mismatch"},
    {"BuddyOrderCount",
     [] {
         mem::BuddyAllocator buddy(0, 64 * MiB);
         Bytes bytes = test::ckptBytes(buddy);
         patch(bytes, 16, 3);  // After base and size.
         return test::ckptRestoreError(bytes, buddy);
     },
     "buddy: order count mismatch"},
    {"FaultCursor",
     [] {
         auto injector = threeEventInjector();
         Bytes bytes = test::ckptBytes(injector);
         patch(bytes, 8, 4);  // Cursor past the three events.
         return test::ckptRestoreError(bytes, injector);
     },
     "fault: cursor out of range"},
    {"FaultEventCount",
     [] {
         auto injector = threeEventInjector();
         fault::FaultInjector other(fault::FaultPlan{}, 1);
         return test::ckptRestoreError(test::ckptBytes(injector), other);
     },
     "fault: event count mismatch (restore requires the same fault "
     "plan)"},
    {"LatencyBucketIndex",
     [] {
         telemetry::LatencyHistogram hist;
         hist.record(5);
         Bytes bytes = test::ckptBytes(hist);
         // count, sum, min, max (u64), occupied (u32), then the
         // first bucket index.
         patch(bytes, 36, 0xffffffffu, 4);
         return test::ckptRestoreError(bytes, hist);
     },
     "latency histogram: bucket index out of range"},
    {"MmuMode",
     [] {
         return machineRestoreError("4K+4K", "4K+4K", "mmu",
                                    [](Bytes &b) { patch(b, 0, 0xff, 1); });
     },
     "chunk 'mmu': mmu: invalid mode value"},
    {"OsProcessCount",
     [] {
         SmallOs saved;
         saved.os.createProcess();
         SmallOs other;
         return test::ckptRestoreError(test::ckptBytes(saved.os),
                                       other.os);
     },
     "os: process count mismatch (restore requires the same boot "
     "configuration)"},
    {"PageTableRootCount",
     [] {
         mem::PhysMemory mem(256 * MiB);
         test::BumpMemSpace space(mem, 128 * MiB);
         paging::PageTable pt(space);
         pt.map(0x400000, 0x10000, PageSize::Size4K);
         Bytes bytes = test::ckptBytes(pt);
         patch(bytes, 0, pt.root() + 64 * MiB);  // No such node.
         return test::ckptRestoreError(bytes, pt);
     },
     "page table: no live count for the root"},
    {"PhysMemSize",
     [] {
         mem::PhysMemory saved(64 * MiB);
         mem::PhysMemory other(128 * MiB);
         return test::ckptRestoreError(test::ckptBytes(saved), other);
     },
     "physmem: size mismatch"},
    {"ProcessPid",
     [] {
         mem::PhysMemory mem(256 * MiB);
         test::BumpMemSpace space(mem, 128 * MiB);
         os::Process saved(3, space);
         os::Process other(4, space);
         return test::ckptRestoreError(test::ckptBytes(saved), other);
     },
     "process: pid mismatch (restore requires the same boot "
     "configuration)"},
    {"TelemetryWindowSize",
     [] {
         telemetry::TelemetryConfig config;
         config.windowOps = 100;
         telemetry::TelemetryRecorder saved(config);
         config.windowOps = 200;
         telemetry::TelemetryRecorder other(config);
         return test::ckptRestoreError(test::ckptBytes(saved), other);
     },
     "telemetry: window size changed across resume (100 vs 200)"},
    {"TelemetryChunkVersion",
     [] {
         telemetry::TelemetryRecorder recorder(telemetry::TelemetryConfig{});
         Bytes bytes = test::ckptBytes(recorder);
         patch(bytes, 0, 7, 4);
         return test::ckptRestoreError(bytes, recorder);
     },
     "telemetry: unsupported chunk version 7"},
    {"VmmVmCount",
     [] {
         SmallHost saved;
         saved.vmm.createVm("a", saved.vmConfig());
         SmallHost other;
         return test::ckptRestoreError(test::ckptBytes(saved.vmm),
                                       other.vmm);
     },
     "vmm: VM count mismatch (restore requires the same boot "
     "configuration)"},
    {"MachineMode",
     [] {
         return machineRestoreError("4K+4K", "4K+4K", "machine",
                                    [](Bytes &b) { patch(b, 0, 0xff, 1); });
     },
     "chunk 'machine': machine: invalid mode value"},
    {"MachineFaultSpace",
     [] {
         return machineRestoreError(
             "4K+4K", "4K+4K", "machine", [](Bytes &b) {
                 // Insert a terminal fault whose space is out of range.
                 ASSERT_EQ(b.at(kMachineFaultFlag), 0);
                 ckpt::Encoder fault;
                 fault.u8(1);
                 fault.str("crafted");
                 fault.u8(0xff);
                 fault.u64(0);
                 fault.u64(0);
                 Bytes out(b.begin(), b.begin() + kMachineFaultFlag);
                 out.insert(out.end(), fault.buffer().begin(),
                            fault.buffer().end());
                 out.insert(out.end(), b.begin() + kMachineFaultFlag + 1,
                            b.end());
                 b = out;
             });
     },
     "chunk 'machine': machine: invalid fault space"},
    {"MachineBalloonWithoutVm",
     [] {
         return machineRestoreError(
             "4K", "4K", "machine", [](Bytes &b) {
                 // No terminal fault, no VMM segment, then the
                 // balloon flag.
                 ASSERT_EQ(b.at(kMachineFaultFlag), 0);
                 ASSERT_EQ(b.at(kMachineFaultFlag + 1), 0);
                 ASSERT_EQ(b.at(kMachineFaultFlag + 2), 0);
                 b[kMachineFaultFlag + 2] = 1;
             });
     },
     "chunk 'machine': machine: balloon state without a VM"},
    {"VmmPresence",
     [] { return machineRestoreError("4K", "4K+4K"); },
     "vmm state mismatch (checkpoint was taken under a different "
     "configuration)"},
    {"ShadowPresence",
     [] { return machineRestoreError("4K+4K", "sh4K"); },
     "shadow-pager state mismatch (checkpoint was taken under a "
     "different configuration)"},
};

/** Name a case by its label, not its bytes. */
void
PrintTo(const Rejection &rejection, std::ostream *os)
{
    *os << rejection.name;
}

class CkptRejectionTest : public ::testing::TestWithParam<Rejection>
{
};

TEST_P(CkptRejectionTest, FailsWithExactError)
{
    EXPECT_EQ(GetParam().restore(), GetParam().error);
}

INSTANTIATE_TEST_SUITE_P(
    AllErrors, CkptRejectionTest, ::testing::ValuesIn(kRejections),
    [](const ::testing::TestParamInfo<Rejection> &info) {
        return std::string(info.param.name);
    });

} // namespace
} // namespace emv::sim
