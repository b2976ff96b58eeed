/**
 * @file
 * emv-ckpt-v1 container implementation (see ckpt.hh for the layout).
 */

#include "common/ckpt.hh"

#include <array>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>

namespace emv::ckpt {

namespace {

std::array<std::uint32_t, 256>
makeCrcTable()
{
    std::array<std::uint32_t, 256> table{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        table[i] = c;
    }
    return table;
}

} // namespace

std::uint32_t
crc32(const void *data, std::size_t len, std::uint32_t seed)
{
    static const std::array<std::uint32_t, 256> table =
        makeCrcTable();
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::uint32_t c = seed ^ 0xFFFFFFFFu;
    for (std::size_t i = 0; i < len; ++i)
        c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

// --------------------------------------------------------------- Encoder

void
Encoder::put(std::uint64_t v, unsigned width)
{
    for (unsigned i = 0; i < width; ++i)
        buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
Encoder::f64(double v)
{
    u64(std::bit_cast<std::uint64_t>(v));
}

void
Encoder::str(const std::string &s)
{
    u64(s.size());
    bytes(s.data(), s.size());
}

void
Encoder::bytes(const void *data, std::size_t len)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    buf.insert(buf.end(), p, p + len);
}

// --------------------------------------------------------------- Decoder

bool
Decoder::take(void *out, std::size_t len)
{
    if (!_ok)
        return false;
    if (len > size - pos || pos > size) {
        fail("read past end of chunk");
        return false;
    }
    std::memcpy(out, base + pos, len);
    pos += len;
    return true;
}

std::uint8_t
Decoder::u8()
{
    std::uint8_t v = 0;
    take(&v, 1);
    return v;
}

std::uint32_t
Decoder::u32()
{
    std::uint8_t raw[4];
    if (!take(raw, sizeof(raw)))
        return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(raw[i]) << (8 * i);
    return v;
}

std::uint64_t
Decoder::u64()
{
    std::uint8_t raw[8];
    if (!take(raw, sizeof(raw)))
        return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(raw[i]) << (8 * i);
    return v;
}

double
Decoder::f64()
{
    return std::bit_cast<double>(u64());
}

std::string
Decoder::str()
{
    const std::uint64_t len = u64();
    if (!_ok)
        return {};
    if (len > size - pos) {
        fail("string length past end of chunk");
        return {};
    }
    std::string s(reinterpret_cast<const char *>(base + pos),
                  static_cast<std::size_t>(len));
    pos += static_cast<std::size_t>(len);
    return s;
}

bool
Decoder::bytes(void *out, std::size_t len)
{
    return take(out, len);
}

void
Decoder::fail(const std::string &why)
{
    if (_ok) {
        _ok = false;
        _error = why;
    }
}

// ---------------------------------------------------------------- Writer

void
Writer::chunk(const std::string &tag, const Encoder &enc)
{
    for (auto &c : chunks) {
        if (c.first == tag) {
            c.second = enc.buffer();
            return;
        }
    }
    chunks.emplace_back(tag, enc.buffer());
}

std::vector<std::uint8_t>
Writer::serialize() const
{
    Encoder out;
    out.bytes(kMagic, sizeof(kMagic));
    out.u32(kVersion);
    out.u32(static_cast<std::uint32_t>(chunks.size()));
    for (const auto &[tag, payload] : chunks) {
        out.u32(static_cast<std::uint32_t>(tag.size()));
        out.bytes(tag.data(), tag.size());
        out.u64(payload.size());
        out.bytes(payload.data(), payload.size());
        out.u32(crc32(payload.data(), payload.size()));
    }
    return out.buffer();
}

bool
Writer::writeFile(const std::string &path, std::string *error) const
{
    const std::vector<std::uint8_t> data = serialize();
    const std::string tmp = path + ".tmp";

    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f) {
        if (error)
            *error = "cannot open '" + tmp +
                     "': " + std::strerror(errno);
        return false;
    }
    bool ok = data.empty() ||
              std::fwrite(data.data(), 1, data.size(), f) ==
                  data.size();
    ok = (std::fflush(f) == 0) && ok;
    ok = (std::fclose(f) == 0) && ok;
    if (!ok) {
        if (error)
            *error = "short write to '" + tmp +
                     "': " + std::strerror(errno);
        std::remove(tmp.c_str());
        return false;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        if (error)
            *error = "rename '" + tmp + "' -> '" + path +
                     "': " + std::strerror(errno);
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

// ---------------------------------------------------------------- Reader

bool
Reader::fail(const std::string &why)
{
    _error = why;
    order.clear();
    chunks.clear();
    return false;
}

bool
Reader::parse(const std::uint8_t *data, std::size_t len)
{
    order.clear();
    chunks.clear();
    _error.clear();

    Decoder d(data, len);
    char magic[8];
    if (!d.bytes(magic, sizeof(magic)))
        return fail("truncated file: missing magic");
    if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
        return fail("bad magic: not an emv-ckpt file");
    const std::uint32_t version = d.u32();
    if (!d.ok())
        return fail("truncated file: missing version");
    if (version != kVersion)
        return fail("unsupported checkpoint version " +
                    std::to_string(version) + " (expected " +
                    std::to_string(kVersion) + ")");
    const std::uint32_t nchunks = d.u32();
    if (!d.ok())
        return fail("truncated file: missing chunk count");

    for (std::uint32_t i = 0; i < nchunks; ++i) {
        const std::uint32_t taglen = d.u32();
        if (!d.ok() || taglen > d.remaining() || taglen == 0 ||
            taglen > 256)
            return fail("chunk " + std::to_string(i) +
                        ": bad tag length");
        std::string tag(taglen, '\0');
        d.bytes(tag.data(), taglen);
        const std::uint64_t paylen = d.u64();
        if (!d.ok() || paylen > d.remaining())
            return fail("chunk '" + tag +
                        "': truncated payload");
        std::vector<std::uint8_t> payload(
            static_cast<std::size_t>(paylen));
        if (paylen)
            d.bytes(payload.data(), payload.size());
        const std::uint32_t storedCrc = d.u32();
        if (!d.ok())
            return fail("chunk '" + tag + "': truncated CRC");
        const std::uint32_t actual =
            crc32(payload.data(), payload.size());
        if (actual != storedCrc)
            return fail("chunk '" + tag + "': CRC mismatch");
        if (chunks.count(tag))
            return fail("chunk '" + tag + "': duplicate tag");
        order.push_back(tag);
        chunks.emplace(tag, std::move(payload));
    }
    if (!d.atEnd())
        return fail("trailing bytes after last chunk");
    return true;
}

bool
Reader::loadFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return fail("cannot open '" + path +
                    "': " + std::strerror(errno));
    std::vector<std::uint8_t> data;
    std::uint8_t buf[1 << 16];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        data.insert(data.end(), buf, buf + n);
    const bool readOk = std::ferror(f) == 0;
    std::fclose(f);
    if (!readOk)
        return fail("read error on '" + path + "'");
    return parse(data.data(), data.size());
}

bool
Reader::hasChunk(const std::string &tag) const
{
    return chunks.count(tag) != 0;
}

Decoder
Reader::chunk(const std::string &tag) const
{
    auto it = chunks.find(tag);
    if (it == chunks.end()) {
        Decoder d(nullptr, 0);
        d.fail("missing chunk '" + tag + "'");
        return d;
    }
    return Decoder(it->second.data(), it->second.size());
}

std::vector<std::string>
Reader::tags() const
{
    return order;
}

bool
Reader::finish(const std::string &tag, Decoder &dec, std::string &error)
{
    if (dec.ok() && !dec.atEnd())
        dec.fail("unread trailing bytes");
    if (!dec.ok())
        error = "chunk '" + tag + "': " + dec.error();
    return dec.ok();
}

} // namespace emv::ckpt
