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
 * Every stateful layer names its fields once, in a persist() that
 * packs them into one Encoder, and the Writer wraps it into a tagged
 * chunk; restore walks the file once, verifies every CRC up front,
 * then runs the same persist() over a bounds-checked Decoder on the
 * chunk.  All failure paths are structured (latched
 * error strings, never exceptions or aborts): a corrupt, truncated,
 * or version-mismatched file must surface as `ok() == false`, not UB.
 *
 * Writer::writeFile is atomic (write to "<path>.tmp", fsync, rename)
 * so a crash mid-checkpoint can never destroy the last good file.
 */

#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <type_traits>
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

/**
 * A field that travels at an explicit width: an integer, a bool or
 * an enum.  Bools and enums go as their integer value.
 */
template <class T>
concept Field = std::integral<T> || std::is_enum_v<T>;

/**
 * Append-only little-endian byte packer.
 *
 * Encoder and Decoder share one field interface, so a class lists
 * its checkpointed fields once, in a `template <class Ar> void
 * persist(Ar &ar)` that serves both save and load (see save() and
 * Reader::load()).  `Ar::loading` gates the few load-only steps:
 * rebuilding derived state, and the checks in a post-load
 * validate().
 */
class Encoder
{
  public:
    static constexpr bool loading = false;

    /** @{ One field at the width named. */
    template <Field T>
    void u8(const T &v) { put(static_cast<std::uint8_t>(v), 1); }
    template <Field T>
    void u32(const T &v) { put(static_cast<std::uint32_t>(v), 4); }
    template <Field T>
    void u64(const T &v) { put(static_cast<std::uint64_t>(v), 8); }
    /** Doubles travel as their IEEE-754 bit pattern (bit-exact). */
    void f64(double v);
    /** u64 length prefix + raw bytes. */
    void str(const std::string &s);
    /** @} */
    void bytes(const void *data, std::size_t len);

    /** @{ u64 (seq) or u32 (seq32) element count, then @p field of
     *  each element. */
    template <class C, class F>
    void seq(C &c, F &&field) { items(c, field, 8); }
    template <class C, class F>
    void seq32(C &c, F &&field) { items(c, field, 4); }
    /** @} */
    /** A sequence of u64 values. */
    template <class C>
    void u64s(C &c) { seq(c, [this](const auto &v) { u64(v); }); }

    /** u8 presence flag, then @p field of the value if present. */
    template <class O, class F>
    void
    opt(O &o, F &&field)
    {
        u8(o.has_value());
        if (o)
            field(*o);
    }

    /** u64 size of @p c, a container whose size a load must match. */
    template <class C, class Why>
    bool
    fixed(const C &c, const Why &)
    {
        u64(c.size());
        return true;
    }

    /** Checks guard loads only; a save always passes them. */
    template <class Why>
    bool check(bool, const Why &) { return true; }
    bool ok() const { return true; }

    const std::vector<std::uint8_t> &buffer() const { return buf; }

  private:
    void put(std::uint64_t v, unsigned width);

    template <class C, class F>
    void
    items(C &c, F &field, unsigned width)
    {
        put(c.size(), width);
        for (auto &e : c)
            field(e);
    }

    std::vector<std::uint8_t> buf;
};

/**
 * Bounds-checked reader over one chunk payload.
 *
 * Any out-of-bounds read latches a failure: ok() goes false, error()
 * explains, and every subsequent read returns zero without touching
 * memory.  A persist() therefore reads on after a failure, and
 * bounds its loops with ok(); it returns early only where a check
 * guards a write (fixed(), or a check() before an index is used).
 * Semantic checks run in a post-load validate().
 */
class Decoder
{
  public:
    static constexpr bool loading = true;

    Decoder(const std::uint8_t *data, std::size_t len)
        : base(data), size(len)
    {
    }

    /** @{ Raw reads (container framing and hand-made payloads). */
    std::uint8_t u8();
    std::uint32_t u32();
    std::uint64_t u64();
    double f64();
    std::string str();
    bool bytes(void *out, std::size_t len);
    /** @} */

    /** @{ The Encoder's field interface, loading each field. */
    template <Field T>
    void u8(T &v) { v = static_cast<T>(u8()); }
    template <Field T>
    void u32(T &v) { v = static_cast<T>(u32()); }
    template <Field T>
    void u64(T &v) { v = static_cast<T>(u64()); }
    void f64(double &v) { v = f64(); }
    void str(std::string &s) { s = str(); }

    /** The container is cleared, then refilled element by element
     *  while ok(), so a corrupt count cannot allocate ahead. */
    template <class C, class F>
    void seq(C &c, F &&field) { items(c, field, u64()); }
    template <class C, class F>
    void seq32(C &c, F &&field) { items(c, field, u32()); }
    template <class C>
    void u64s(C &c) { seq(c, [this](auto &v) { u64(v); }); }

    template <class T, class F>
    void
    opt(std::optional<T> &o, F &&field)
    {
        if (u8() == 0) {
            o.reset();
            return;
        }
        T v{};
        field(v);
        if (_ok)
            o = std::move(v);
    }

    /** Read a u64 count; latch @p why unless it equals c.size(). */
    template <class C, class Why>
    bool
    fixed(const C &c, const Why &why)
    {
        return check(u64() == c.size(), why);
    }

    /**
     * Latch @p why unless @p cond holds; false once any failure is
     * latched.  @p why is the message, or a callable that builds it,
     * so a message with run-time parts is built only on failure (and
     * never by a save).
     */
    template <class Why>
    bool
    check(bool cond, const Why &why)
    {
        if (_ok && !cond) {
            if constexpr (std::is_invocable_v<const Why &>)
                fail(why());
            else
                fail(why);
        }
        return _ok;
    }
    /** @} */

    bool ok() const { return _ok; }
    bool atEnd() const { return pos >= size; }
    std::size_t remaining() const { return size - pos; }
    const std::string &error() const { return _error; }

    /** Latch a failure from caller-side semantic validation. */
    void fail(const std::string &why);

  private:
    bool take(void *out, std::size_t len);

    template <class C, class F>
    void
    items(C &c, F &field, std::uint64_t n)
    {
        c.clear();
        for (std::uint64_t i = 0; _ok && i < n; ++i) {
            typename C::value_type e{};
            field(e);
            if (_ok)
                c.insert(c.end(), std::move(e));
        }
    }

    const std::uint8_t *base;
    std::size_t size;
    std::size_t pos = 0;
    bool _ok = true;
    std::string _error;
};

/** Append @p obj's persisted fields to @p enc.  A save only reads
 *  the fields, so a const object is safe to pass. */
template <class T>
void
save(Encoder &enc, const T &obj)
{
    const_cast<T &>(obj).persist(enc);
}

/** Load @p obj's persisted fields from @p dec; false once @p dec
 *  has latched a failure. */
template <class T>
bool
load(Decoder &dec, T &obj)
{
    obj.persist(dec);
    return dec.ok();
}

/** Assembles tagged chunks and writes the container atomically. */
class Writer
{
  public:
    /** Add one chunk; duplicate tags are a caller bug (overwrites). */
    void chunk(const std::string &tag, const Encoder &enc);

    /** Add chunk @p tag holding @p obj's persisted fields. */
    template <class T>
    void
    save(const std::string &tag, const T &obj)
    {
        Encoder enc;
        ckpt::save(enc, obj);
        chunk(tag, enc);
    }

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

    /**
     * Load chunk @p tag into @p obj through its persist().  The
     * payload must be read exactly: unread trailing bytes fail too.
     * False, with @p error = "chunk '<tag>': <why>", on any failure.
     */
    template <class T>
    bool
    load(const std::string &tag, T &obj, std::string &error) const
    {
        Decoder dec = chunk(tag);
        obj.persist(dec);
        return finish(tag, dec, error);
    }

  private:
    bool fail(const std::string &why);
    static bool finish(const std::string &tag, Decoder &dec,
                       std::string &error);

    std::vector<std::string> order;
    std::map<std::string, std::vector<std::uint8_t>> chunks;
    std::string _error;
};

} // namespace emv::ckpt
