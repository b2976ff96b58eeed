/**
 * @file
 * emv-ckpt-v1 — versioned binary checkpoint container.
 *
 * Layout (all integers little-endian):
 *
 *   magic    8 bytes   "EMVCKPT1"
 *   version  u32       kVersion
 *   nchunks  u32
 *   chunk[nchunks]:
 *     taglen  u32
 *     tag     taglen bytes (ASCII, e.g. "machine", "rng", "params")
 *     paylen  u64
 *     payload paylen bytes
 *     crc     u32      CRC32 of payload
 *
 * Every stateful layer packs its state into one Encoder and the
 * Writer wraps it into a tagged chunk; restore walks the file once,
 * verifies every CRC up front, then hands each layer a bounds-checked
 * Decoder over its chunk.  All failure paths are structured (latched
 * error strings, never exceptions or aborts): a corrupt, truncated,
 * or version-mismatched file must surface as `ok() == false`, not UB.
 *
 * Writer::writeFile is atomic (write to "<path>.tmp", fsync, rename)
 * so a crash mid-checkpoint can never destroy the last good file.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace emv::ckpt {

/**
 * File format version; bump on any incompatible layout change.
 * Version 2 added the page tables' per-node live-entry counts;
 * version 3 gave the TLBs, walk caches and PTE-line cache one common
 * entry layout (tag, value, LRU stamp, valid).
 */
inline constexpr std::uint32_t kVersion = 3;

/** 8-byte file magic. */
inline constexpr char kMagic[8] = {'E', 'M', 'V', 'C',
                                   'K', 'P', 'T', '1'};

/** CRC-32 (IEEE 802.3 polynomial, as in zlib). */
std::uint32_t crc32(const void *data, std::size_t len,
                    std::uint32_t seed = 0);

/** Append-only little-endian byte packer. */
class Encoder
{
  public:
    void u8(std::uint8_t v);
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    /** Doubles travel as their IEEE-754 bit pattern (bit-exact). */
    void f64(double v);
    /** u64 length prefix + raw bytes. */
    void str(const std::string &s);
    void bytes(const void *data, std::size_t len);

    const std::vector<std::uint8_t> &buffer() const { return buf; }

  private:
    std::vector<std::uint8_t> buf;
};

/**
 * Bounds-checked reader over one chunk payload.
 *
 * Any out-of-bounds read latches a failure: ok() goes false, error()
 * explains, and every subsequent read returns zero without touching
 * memory.  Layers check ok() once at the end of deserialize().
 */
class Decoder
{
  public:
    Decoder(const std::uint8_t *data, std::size_t len)
        : base(data), size(len)
    {
    }

    std::uint8_t u8();
    std::uint32_t u32();
    std::uint64_t u64();
    double f64();
    std::string str();
    bool bytes(void *out, std::size_t len);

    bool ok() const { return _ok; }
    bool atEnd() const { return pos >= size; }
    std::size_t remaining() const { return size - pos; }
    const std::string &error() const { return _error; }

    /** Latch a failure from caller-side semantic validation. */
    void fail(const std::string &why);

  private:
    bool take(void *out, std::size_t len);

    const std::uint8_t *base;
    std::size_t size;
    std::size_t pos = 0;
    bool _ok = true;
    std::string _error;
};

/** Assembles tagged chunks and writes the container atomically. */
class Writer
{
  public:
    /** Add one chunk; duplicate tags are a caller bug (overwrites). */
    void chunk(const std::string &tag, const Encoder &enc);

    /** Serialized container bytes. */
    std::vector<std::uint8_t> serialize() const;

    /**
     * Atomic write: "<path>.tmp" + rename.  Returns false (with
     * *error set, if non-null) on any I/O failure; the previous file
     * at `path`, if any, is left untouched on failure.
     */
    bool writeFile(const std::string &path,
                   std::string *error = nullptr) const;

  private:
    std::vector<std::pair<std::string, std::vector<std::uint8_t>>>
        chunks;
};

/**
 * Parses and validates a container: magic, version, chunk framing,
 * and every chunk CRC are checked before any layer sees a byte.
 */
class Reader
{
  public:
    /** Parse from memory.  False (error() set) on any defect. */
    bool parse(const std::uint8_t *data, std::size_t len);

    /** Read + parse a file. */
    bool loadFile(const std::string &path);

    const std::string &error() const { return _error; }

    bool hasChunk(const std::string &tag) const;

    /**
     * Decoder over a chunk payload (valid while the Reader lives).
     * A missing tag yields a Decoder with a latched failure.
     */
    Decoder chunk(const std::string &tag) const;

    /** Tags in file order. */
    std::vector<std::string> tags() const;

  private:
    bool fail(const std::string &why);

    std::vector<std::string> order;
    std::map<std::string, std::vector<std::uint8_t>> chunks;
    std::string _error;
};

} // namespace emv::ckpt
