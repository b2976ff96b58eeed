/** @file
 * End-to-end checkpoint/restore tests: a run checkpointed midway
 * and resumed in a fresh process-equivalent Machine must report
 * bit-identical measured results to the uninterrupted run, for
 * every translation mode; damaged or mismatched checkpoints must
 * fail with structured errors, never undefined behaviour.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "sim/checkpoint.hh"
#include "sim/experiment.hh"
#include "workload/memcached.hh"
#include "../test_support.hh"

namespace emv::sim {
namespace {

constexpr double kScale = 0.02;
constexpr std::uint64_t kWarmup = 20000;
constexpr std::uint64_t kMeasure = 60000;

RunParams
smallParams()
{
    RunParams params;
    params.warmupOps = kWarmup;
    params.measureOps = kMeasure;
    params.scale = kScale;
    params.seed = 42;
    return params;
}

/** A workload + machine pair built the way emvsim builds one. */
struct Cell
{
    std::unique_ptr<workload::Workload> wl;
    std::unique_ptr<Machine> machine;
};

Cell
buildCell(const std::string &label)
{
    auto spec = specFromLabel(label);
    EXPECT_TRUE(spec.has_value()) << label;
    Cell cell;
    cell.wl = workload::makeWorkload(workload::WorkloadKind::Gups,
                                     42, kScale);
    cell.machine = std::make_unique<Machine>(
        makeMachineConfig(*spec, smallParams()), *cell.wl);
    return cell;
}

CheckpointMeta
metaFor(const std::string &label, std::uint64_t measured_done)
{
    CheckpointMeta meta;
    meta.workload = "gups";
    meta.configLabel = label;
    meta.scale = kScale;
    meta.seed = 42;
    meta.warmupOps = kWarmup;
    meta.measureOps = kMeasure;
    meta.warmupDone = kWarmup;
    meta.measuredOps = measured_done;
    return meta;
}

std::string
tempCkptPath(const std::string &stem)
{
    std::string name = stem;
    for (char &c : name) {
        if (!isalnum(static_cast<unsigned char>(c)))
            c = '_';
    }
    return (std::filesystem::path(testing::TempDir()) /
            ("test-" + name + ".emvckpt"))
        .string();
}

std::vector<char>
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

void
spit(const std::string &path, const std::vector<char> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good()) << path;
}

/** Field-by-field exact equality: doubles must match bit-for-bit,
 *  which is the whole point of deterministic resume. */
void
expectSameResult(const RunResult &got, const RunResult &want)
{
    EXPECT_EQ(got.accessOps, want.accessOps);
    EXPECT_EQ(got.remapOps, want.remapOps);
    EXPECT_EQ(got.baseCycles, want.baseCycles);
    EXPECT_EQ(got.translationCycles, want.translationCycles);
    EXPECT_EQ(got.faultCycles, want.faultCycles);
    EXPECT_EQ(got.vmExitCycles, want.vmExitCycles);
    EXPECT_EQ(got.shootdownCycles, want.shootdownCycles);
    EXPECT_EQ(got.l1Misses, want.l1Misses);
    EXPECT_EQ(got.l2Misses, want.l2Misses);
    EXPECT_EQ(got.walks, want.walks);
    EXPECT_EQ(got.guestFaults, want.guestFaults);
    EXPECT_EQ(got.ddFastHits, want.ddFastHits);
    EXPECT_EQ(got.dsFastHits, want.dsFastHits);
    EXPECT_EQ(got.completed, want.completed);
    EXPECT_EQ(got.cyclesPerWalk, want.cyclesPerWalk);
    EXPECT_EQ(got.fractionBoth, want.fractionBoth);
    EXPECT_EQ(got.fractionVmmOnly, want.fractionVmmOnly);
    EXPECT_EQ(got.fractionGuestOnly, want.fractionGuestOnly);
}

/** One parameter per translation mode the paper evaluates. */
class CheckpointModeTest
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(CheckpointModeTest, MidwayCheckpointMatchesUninterrupted)
{
    const std::string label = GetParam();

    // Control: warm up, measure in one uninterrupted interval.
    auto control = buildCell(label);
    control.machine->run(kWarmup);
    control.machine->resetStats();
    control.machine->run(kMeasure);
    const RunResult want = control.machine->measuredResult();
    ASSERT_TRUE(want.completed);

    // Interrupted run: checkpoint halfway through measurement.
    auto first = buildCell(label);
    first.machine->run(kWarmup);
    first.machine->resetStats();
    first.machine->run(kMeasure / 2);
    const std::string path = tempCkptPath(label);
    std::string error;
    ASSERT_TRUE(saveCheckpoint(path, metaFor(label, kMeasure / 2),
                               *first.machine, error))
        << error;

    // Resume: fresh workload + machine from the same identity, then
    // overwrite with the checkpoint and finish the measurement.
    LoadedCheckpoint loaded;
    ASSERT_TRUE(loadCheckpoint(path, loaded, error)) << error;
    EXPECT_EQ(loaded.meta.configLabel, label);
    EXPECT_EQ(loaded.meta.warmupDone, kWarmup);
    EXPECT_EQ(loaded.meta.measuredOps, kMeasure / 2);
    auto resumed = buildCell(label);
    ASSERT_TRUE(restoreMachine(loaded, *resumed.machine, error))
        << error;
    resumed.machine->run(kMeasure - loaded.meta.measuredOps);
    expectSameResult(resumed.machine->measuredResult(), want);
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, CheckpointModeTest,
    ::testing::Values(std::string("4K+4K"), std::string("DD"),
                      std::string("4K+VD"), std::string("4K+GD"),
                      std::string("DS")),
    [](const auto &info) {
        std::string name = info.param;
        for (char &c : name) {
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

class CheckpointFileTest : public ::testing::Test
{
  protected:
    /** Write a valid checkpoint and return its path. */
    std::string
    makeCheckpoint(const std::string &label, const char *stem)
    {
        auto cell = buildCell(label);
        cell.machine->run(kWarmup);
        cell.machine->resetStats();
        cell.machine->run(kMeasure / 2);
        const std::string path = tempCkptPath(stem);
        std::string error;
        EXPECT_TRUE(saveCheckpoint(path,
                                   metaFor(label, kMeasure / 2),
                                   *cell.machine, error))
            << error;
        return path;
    }
};

TEST_F(CheckpointFileTest, CorruptPayloadIsRejectedWithCrcError)
{
    const std::string path = makeCheckpoint("4K+4K", "corrupt");
    auto bytes = slurp(path);
    ASSERT_GT(bytes.size(), 16u);
    bytes[bytes.size() - 5] ^= 0x40;  // Last chunk's payload tail.
    spit(path, bytes);

    LoadedCheckpoint loaded;
    std::string error;
    EXPECT_FALSE(loadCheckpoint(path, loaded, error));
    EXPECT_NE(error.find("CRC"), std::string::npos) << error;
}

TEST_F(CheckpointFileTest, TruncatedFileIsRejected)
{
    const std::string path = makeCheckpoint("4K+4K", "truncated");
    auto bytes = slurp(path);
    bytes.resize(bytes.size() / 2);
    spit(path, bytes);

    LoadedCheckpoint loaded;
    std::string error;
    EXPECT_FALSE(loadCheckpoint(path, loaded, error));
    EXPECT_FALSE(error.empty());
}

TEST_F(CheckpointFileTest, WrongVersionIsRejected)
{
    const std::string path = makeCheckpoint("4K+4K", "version");
    auto bytes = slurp(path);
    ASSERT_GT(bytes.size(), 12u);
    bytes[8] = static_cast<char>(ckpt::kVersion + 1);
    spit(path, bytes);

    LoadedCheckpoint loaded;
    std::string error;
    EXPECT_FALSE(loadCheckpoint(path, loaded, error));
    EXPECT_NE(error.find("version"), std::string::npos) << error;
}

TEST_F(CheckpointFileTest, BadMagicIsRejected)
{
    const std::string path = makeCheckpoint("4K+4K", "magic");
    auto bytes = slurp(path);
    bytes[0] ^= 0xff;
    spit(path, bytes);

    LoadedCheckpoint loaded;
    std::string error;
    EXPECT_FALSE(loadCheckpoint(path, loaded, error));
    EXPECT_NE(error.find("magic"), std::string::npos) << error;
}

TEST_F(CheckpointFileTest, MissingFileIsRejected)
{
    LoadedCheckpoint loaded;
    std::string error;
    EXPECT_FALSE(loadCheckpoint(tempCkptPath("no-such-file"),
                                loaded, error));
    EXPECT_FALSE(error.empty());
}

TEST_F(CheckpointFileTest, CrossConfigRestoreFailsStructured)
{
    // A DS checkpoint into a machine built for DD: the layer shapes
    // disagree, and restore must say so instead of half-applying.
    const std::string path = makeCheckpoint("DS", "cross");
    LoadedCheckpoint loaded;
    std::string error;
    ASSERT_TRUE(loadCheckpoint(path, loaded, error)) << error;

    auto other = buildCell("DD");
    EXPECT_FALSE(restoreMachine(loaded, *other.machine, error));
    EXPECT_FALSE(error.empty());
}

/** Rewrite the checkpoint at @p path with one extra byte at the end
 *  of chunk @p tag; the CRC covers the longer payload. */
void
padChunk(const std::string &path, const std::string &tag)
{
    ckpt::Reader reader;
    ASSERT_TRUE(reader.loadFile(path)) << reader.error();
    ckpt::Writer writer;
    for (const std::string &t : reader.tags()) {
        ckpt::Decoder dec = reader.chunk(t);
        std::vector<std::uint8_t> payload(dec.remaining());
        dec.bytes(payload.data(), payload.size());
        if (t == tag)
            payload.push_back(0);
        ckpt::Encoder enc;
        enc.bytes(payload.data(), payload.size());
        writer.chunk(t, enc);
    }
    std::string error;
    ASSERT_TRUE(writer.writeFile(path, &error)) << error;
}

TEST_F(CheckpointFileTest, UnreadTrailingBytesAreRejected)
{
    // A layer chunk with a byte its fields do not cover.
    const std::string path = makeCheckpoint("4K+4K", "trailing-mmu");
    padChunk(path, "mmu");
    LoadedCheckpoint loaded;
    std::string error;
    ASSERT_TRUE(loadCheckpoint(path, loaded, error)) << error;
    auto cell = buildCell("4K+4K");
    EXPECT_FALSE(restoreMachine(loaded, *cell.machine, error));
    EXPECT_EQ(error, "chunk 'mmu': unread trailing bytes");

    // The params chunk is read exactly too.
    const std::string params =
        makeCheckpoint("4K+4K", "trailing-params");
    padChunk(params, "params");
    LoadedCheckpoint padded;
    EXPECT_FALSE(loadCheckpoint(params, padded, error));
    EXPECT_EQ(error, "chunk 'params': unread trailing bytes");
}

/** FNV-1a digest of one layer's checkpoint bytes. */
std::uint64_t
digest(const std::vector<std::uint8_t> &bytes)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (std::uint8_t byte : bytes)
        hash = (hash ^ byte) * 0x100000001b3ull;
    return hash;
}

/** A cell whose guest and host allocator bytes are pinned. */
struct PinnedBuddy
{
    workload::WorkloadKind kind;
    const char *label;
    unsigned badFrames;
    bool fragmented;  //!< Host and guest fragmentation (Table III).
    std::uint64_t guest;
    std::uint64_t host;   //!< 0 for native cells.
};

/**
 * Guest and host BuddyAllocator checkpoint bytes after build and a
 * short run, pinned as digests.  Every frame the allocators hand out
 * and every free list they keep show up in these bytes, so a faster
 * allocation or populate path must leave them exactly as the digests
 * say.  The cells cover extent populate (4K guest pages), 2M pages,
 * THP, shadow paging, run-time slab remaps (memcached), segment
 * escapes around bad frames, and fragmentation with compaction.
 */
TEST(BuddyCheckpointBytesTest, MatchPinnedDigests)
{
    using K = workload::WorkloadKind;
    const PinnedBuddy cells[] = {
        {K::Gups, "4K+4K", 0, false,
         0x5c8326e580c61091ull, 0xba80deed0e1bfed3ull},
        {K::Gups, "4K", 0, false,
         0xbcbdfc5f612a7930ull, 0},
        {K::Graph500, "4K+2M", 0, false,
         0xb6f567010eac9642ull, 0x2653b4a3288e3b00ull},
        {K::Graph500, "2M+2M", 0, false,
         0x491cda0936ec3220ull, 0x2653b4a3288e3b00ull},
        {K::Gups, "THP", 0, false,
         0x5fc424b936b3b32aull, 0},
        {K::Memcached, "4K+4K", 0, false,
         0x1ae128c3093f1d5bull, 0x93051f6a36b5cbf7ull},
        {K::Memcached, "sh4K", 0, false,
         0x1ae128c3093f1d5bull, 0x93051f6a36b5cbf7ull},
        {K::Graph500, "DS", 16, false,
         0xc7358efd25290bbbull, 0},
        {K::Gups, "4K+VD", 16, false,
         0xcedbc0a248fed2b4ull, 0xaab92000350f5b37ull},
        {K::Gups, "4K+GD", 0, true,
         0xe539a9cb0769f87bull, 0x21b564071498ea37ull},
    };
    for (const auto &pin : cells) {
        auto spec = specFromLabel(pin.label);
        ASSERT_TRUE(spec.has_value()) << pin.label;
        RunParams params = smallParams();
        params.badFrames = pin.badFrames;
        MachineConfig cfg = makeMachineConfig(*spec, params);
        if (pin.fragmented) {
            cfg.contiguousHostReservation = false;
            cfg.hostFragmentation.enabled = true;
            cfg.hostFragmentation.maxRunBytes = 64 * MiB;
            cfg.guestFragmentation.enabled = true;
            cfg.guestFragmentation.maxRunBytes = 16 * MiB;
        }
        auto wl = workload::makeWorkload(pin.kind, 42, kScale);
        Machine machine(cfg, *wl);
        machine.run(kWarmup);
        const std::uint64_t guest =
            digest(test::ckptBytes(machine.os().frames().buddy()));
        const std::uint64_t host =
            machine.vmm()
                ? digest(test::ckptBytes(machine.vmm()->frames().buddy()))
                : 0;
        EXPECT_EQ(guest, pin.guest)
            << workload::workloadName(pin.kind) << " " << pin.label << std::hex
            << " guest digest 0x" << guest;
        EXPECT_EQ(host, pin.host)
            << workload::workloadName(pin.kind) << " " << pin.label << std::hex
            << " host digest 0x" << host;
    }
}

/** A cell whose MMU checkpoint bytes are pinned. */
struct PinnedMmu
{
    workload::WorkloadKind kind;
    const char *label;
    unsigned badFrames;
    std::uint64_t mmu;
};

/**
 * Mmu checkpoint bytes after build and a short run, pinned as
 * digests.  The bytes hold all four TLBs, both paging-structure
 * caches and the PTE-line cache way by way, including the stale
 * tag, value and LRU stamp an invalidated way keeps, so a faster
 * lookup path or a new array layout must leave every way exactly
 * where the digests say.  The cells cover 4K-only and 2M classes on
 * both levels, the direct-segment fast paths with escapes, and
 * shadow paging under run-time slab remaps.
 */
TEST(MmuCheckpointBytesTest, MatchPinnedDigests)
{
    using K = workload::WorkloadKind;
    const PinnedMmu cells[] = {
        {K::Gups, "4K+4K", 0, 0xc284b4c18cb36dc7ull},
        {K::Graph500, "4K+2M", 0, 0x858c50685749556aull},
        {K::Graph500, "2M+2M", 0, 0xaff87d06c40387d7ull},
        {K::Gups, "DD", 0, 0x080c4389365f6837ull},
        {K::Graph500, "DS", 16, 0x76e0ba4aefb7aaf0ull},
        {K::Memcached, "sh4K", 0, 0xcdc72edf2e07c20bull},
    };
    for (const auto &pin : cells) {
        auto spec = specFromLabel(pin.label);
        ASSERT_TRUE(spec.has_value()) << pin.label;
        RunParams params = smallParams();
        params.badFrames = pin.badFrames;
        auto wl = workload::makeWorkload(pin.kind, 42, kScale);
        Machine machine(makeMachineConfig(*spec, params), *wl);
        machine.run(kWarmup);
        const std::uint64_t mmu = digest(test::ckptBytes(machine.mmu()));
        EXPECT_EQ(mmu, pin.mmu)
            << workload::workloadName(pin.kind) << " " << pin.label << std::hex
            << " mmu digest 0x" << mmu;
    }
}

/** A cell whose whole-machine checkpoint bytes are pinned. */
struct PinnedMachine
{
    workload::WorkloadKind kind;
    const char *label;
    unsigned badFrames;
    std::uint64_t churnPeriod;  //!< memcached slab remaps; 0 = none.
    std::uint64_t built;        //!< Digest right after build.
    std::uint64_t ran;          //!< Digest after kWarmup ops.
};

/** FNV-1a digest of a machine's whole checkpoint container. */
std::uint64_t
machineDigest(const Machine &machine)
{
    ckpt::Writer writer;
    machine.serialize(writer);
    return digest(writer.serialize());
}

/**
 * Machine::serialize bytes right after build and after a short run,
 * pinned as digests.  The physmem chunk holds every page-table byte
 * of every dimension plus the host-work read and write counters, so
 * a faster way to build, populate or unmap tables must write the
 * same entries with the same counts.  The cells cover I/O-gap
 * reclaim (DD), VMM-segment escapes (4K+VD), 2D tables (4K+4K),
 * shadow paging under slab remaps, and guest-segment escapes (DS).
 */
TEST(MachineCheckpointBytesTest, MatchPinnedDigests)
{
    using K = workload::WorkloadKind;
    const PinnedMachine cells[] = {
        {K::Graph500, "DD", 0, 0,
         0x9af8c69d9d0c0c51ull, 0x2917a31d63593f70ull},
        {K::Gups, "4K+VD", 16, 0,
         0x75fc9fc9664a1945ull, 0xeeb7310809f25882ull},
        {K::Gups, "4K+4K", 0, 0,
         0x31846682af1c51f8ull, 0xd2686d8cc0141bb7ull},
        {K::Memcached, "sh4K", 0, 4000,
         0x20dbe7835c411ac7ull, 0xb57fce54e1d1126cull},
        {K::Graph500, "DS", 16, 0,
         0xda66d3695dada10full, 0xf837779e5c330a50ull},
    };
    for (const auto &pin : cells) {
        auto spec = specFromLabel(pin.label);
        ASSERT_TRUE(spec.has_value()) << pin.label;
        RunParams params = smallParams();
        params.badFrames = pin.badFrames;
        auto wl = pin.churnPeriod
                      ? workload::makeMemcached(42, kScale, pin.churnPeriod)
                      : workload::makeWorkload(pin.kind, 42, kScale);
        Machine machine(makeMachineConfig(*spec, params), *wl);
        const std::uint64_t built = machineDigest(machine);
        machine.run(kWarmup);
        const std::uint64_t ran = machineDigest(machine);
        EXPECT_EQ(built, pin.built)
            << workload::workloadName(pin.kind) << " " << pin.label << std::hex
            << " build digest 0x" << built;
        EXPECT_EQ(ran, pin.ran)
            << workload::workloadName(pin.kind) << " " << pin.label << std::hex
            << " run digest 0x" << ran;
    }
}

} // namespace
} // namespace emv::sim
