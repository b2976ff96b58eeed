#include "sim/checkpoint.hh"

#include "common/audit.hh"

namespace emv::sim {

namespace {

/** Layout version of the params chunk itself. */
constexpr std::uint32_t kMetaVersion = 1;

} // namespace

template <class Ar>
void
CheckpointMeta::persist(Ar &ar)
{
    std::uint32_t version = kMetaVersion;
    ar.u32(version);
    ar.check(version == kMetaVersion, [&] {
        return "params: unsupported meta version " +
               std::to_string(version);
    });
    ar.str(workload);
    ar.str(configLabel);
    ar.f64(scale);
    ar.u64(seed);
    ar.u64(warmupOps);
    ar.u64(measureOps);
    ar.u32(badFrames);
    ar.u64(badFrameSeed);
    ar.str(faultSpec);
    ar.str(faultPolicy);
    ar.u64(faultSeed);
    ar.u64(fragGuestBytes);
    ar.u64(fragHostBytes);
    ar.u8(audit);
    ar.u64(warmupDone);
    ar.u64(measuredOps);
}

template void CheckpointMeta::persist(ckpt::Encoder &);
template void CheckpointMeta::persist(ckpt::Decoder &);

bool
saveCheckpoint(const std::string &path, const CheckpointMeta &meta,
               const Machine &machine, std::string &error,
               const telemetry::TelemetryRecorder *recorder)
{
    ckpt::Writer writer;
    writer.save("params", meta);
    writer.save("audit", audit::stats());
    if (recorder)
        writer.save("telemetry", *recorder);
    machine.serialize(writer);
    return writer.writeFile(path, &error);
}

bool
loadCheckpoint(const std::string &path, LoadedCheckpoint &out,
               std::string &error)
{
    if (!out.reader.loadFile(path)) {
        error = out.reader.error();
        return false;
    }
    const CheckpointMeta &meta = out.meta;
    if (!out.reader.load("params", out.meta, error))
        return false;
    if (meta.warmupDone > meta.warmupOps ||
        meta.measuredOps > meta.measureOps) {
        error = "chunk 'params': progress exceeds requested ops";
        return false;
    }
    return true;
}

bool
restoreMachine(const LoadedCheckpoint &file, Machine &machine,
               std::string &error)
{
    return file.reader.load("audit", audit::stats(), error) &&
           machine.deserialize(file.reader, error);
}

bool
restoreTelemetry(const LoadedCheckpoint &file,
                 telemetry::TelemetryRecorder &recorder,
                 std::string &error)
{
    return !file.reader.hasChunk("telemetry") ||
           file.reader.load("telemetry", recorder, error);
}

} // namespace emv::sim
