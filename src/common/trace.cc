#include "common/trace.hh"

#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>

namespace emv::trace {

namespace detail {

std::atomic<std::uint32_t> mask{0};

namespace {

/** The process-wide record sink: a test stream, a trace file, or
 *  stderr.  Its lock is a leaf lock over the configuration and the
 *  stream itself, so concurrent tracers never interleave lines. */
class Sink
{
  public:
    void
    write(const std::string &line)
    {
        std::lock_guard<std::mutex> lock(mutex);
        if (stream)
            *stream << line;
        else if (file && file->is_open())
            *file << line;
        else
            std::cerr << line;
    }

    void
    setFile(std::unique_ptr<std::ofstream> next)
    {
        std::lock_guard<std::mutex> lock(mutex);
        file = std::move(next);
    }

    void
    setStream(std::ostream *os)
    {
        std::lock_guard<std::mutex> lock(mutex);
        stream = os;
    }

  private:
    std::mutex mutex;
    std::unique_ptr<std::ofstream> file;
    std::ostream *stream = nullptr;
};

Sink sink;

} // namespace

void
emitImpl(Flag flag, const std::string &msg)
{
    std::string line;
    line.reserve(msg.size() + 16);
    line += flagName(flag);
    line += ": ";
    line += msg;
    line += '\n';
    sink.write(line);
}

} // namespace detail

namespace {

constexpr const char *kFlagNames[] = {
    "Tlb",    "Walk",       "Segment", "Filter",
    "Balloon", "Compaction", "Vmm",     "Hotplug",
    "Audit",  "Fault",
};
static_assert(std::size(kFlagNames) ==
              static_cast<unsigned>(Flag::NumFlags));

} // namespace

const char *
flagName(Flag flag)
{
    const auto index = static_cast<unsigned>(flag);
    emv_assert(index < std::size(kFlagNames),
               "unknown trace flag %u", index);
    return kFlagNames[index];
}

std::optional<Flag>
flagByName(const std::string &name)
{
    for (unsigned i = 0; i < std::size(kFlagNames); ++i) {
        if (name == kFlagNames[i])
            return static_cast<Flag>(i);
    }
    return std::nullopt;
}

bool
setFlags(const std::string &csv)
{
    std::uint32_t next = 0;
    std::size_t pos = 0;
    while (pos <= csv.size()) {
        std::size_t comma = csv.find(',', pos);
        if (comma == std::string::npos)
            comma = csv.size();
        const std::string name = csv.substr(pos, comma - pos);
        pos = comma + 1;
        if (name.empty())
            continue;
        if (name == "All") {
            next |= (1u << static_cast<unsigned>(Flag::NumFlags)) - 1;
            continue;
        }
        auto flag = flagByName(name);
        if (!flag)
            return false;
        next |= 1u << static_cast<unsigned>(*flag);
    }
    detail::mask.store(next, std::memory_order_relaxed);
    return true;
}

void
clearFlags()
{
    detail::mask.store(0, std::memory_order_relaxed);
}

std::vector<Flag>
enabledFlags()
{
    std::vector<Flag> out;
    const std::uint32_t m =
        detail::mask.load(std::memory_order_relaxed);
    for (unsigned i = 0; i < static_cast<unsigned>(Flag::NumFlags);
         ++i) {
        if ((m >> i) & 1u)
            out.push_back(static_cast<Flag>(i));
    }
    return out;
}

std::string
allFlagNames()
{
    std::string out;
    for (unsigned i = 0; i < std::size(kFlagNames); ++i) {
        if (i)
            out += ',';
        out += kFlagNames[i];
    }
    return out;
}

bool
openTraceFile(const std::string &path)
{
    if (path.empty()) {
        detail::sink.setFile(nullptr);
        return true;
    }
    auto file = std::make_unique<std::ofstream>(
        path, std::ios::out | std::ios::trunc);
    if (!file->is_open())
        return false;
    detail::sink.setFile(std::move(file));
    return true;
}

void
setSink(std::ostream *os)
{
    detail::sink.setStream(os);
}

} // namespace emv::trace
