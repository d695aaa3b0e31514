#include "bitio.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

namespace rime
{

namespace detail
{
// Defined in crc32_clmul.cc; returns nullptr when the kernel was not
// compiled in.
Crc32Fold crc32ClmulFold();
} // namespace detail

namespace
{

using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

CrcTables
makeCrcTables()
{
    CrcTables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
        t[0][i] = c;
    }
    // Slice-by-8 extension tables: t[k][i] is the CRC of byte i
    // followed by k zero bytes, letting the hot loop fold 8 input
    // bytes per iteration with 8 independent table lookups.
    for (std::uint32_t i = 0; i < 256; ++i)
        for (int k = 1; k < 8; ++k)
            t[k][i] = t[0][t[k - 1][i] & 0xFF] ^ (t[k - 1][i] >> 8);
    return t;
}

/** Advance the CRC register `c` over `size` bytes, 8 per step. */
std::uint32_t
tableUpdate(std::uint32_t c, const std::uint8_t *data, std::size_t size)
{
    static const CrcTables t = makeCrcTables();
    while (size >= 8) {
        const std::uint32_t lo = c ^
            (static_cast<std::uint32_t>(data[0]) |
             (static_cast<std::uint32_t>(data[1]) << 8) |
             (static_cast<std::uint32_t>(data[2]) << 16) |
             (static_cast<std::uint32_t>(data[3]) << 24));
        const std::uint32_t hi =
            static_cast<std::uint32_t>(data[4]) |
            (static_cast<std::uint32_t>(data[5]) << 8) |
            (static_cast<std::uint32_t>(data[6]) << 16) |
            (static_cast<std::uint32_t>(data[7]) << 24);
        c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^
            t[5][(lo >> 16) & 0xFF] ^ t[4][lo >> 24] ^
            t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
            t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
        data += 8;
        size -= 8;
    }
    for (std::size_t i = 0; i < size; ++i)
        c = t[0][(c ^ data[i]) & 0xFF] ^ (c >> 8);
    return c;
}

/** The fold crc32() uses on this host, or nullptr for the table. */
detail::Crc32Fold
activeFold()
{
    static const detail::Crc32Fold fold = []() -> detail::Crc32Fold {
#if defined(__x86_64__) || defined(__i386__)
        if (const detail::Crc32Fold f = detail::crc32ClmulFold()) {
            if (__builtin_cpu_supports("pclmul") &&
                __builtin_cpu_supports("sse4.1"))
                return f;
        }
#endif
        return nullptr;
    }();
    return fold;
}

} // namespace

namespace detail
{

std::uint32_t
crc32Table(const std::uint8_t *data, std::size_t size)
{
    return tableUpdate(0xFFFFFFFFu, data, size) ^ 0xFFFFFFFFu;
}

const char *
crc32KernelName()
{
    return activeFold() ? "pclmul" : "table";
}

} // namespace detail

std::uint32_t
crc32(const std::uint8_t *data, std::size_t size)
{
    std::uint32_t c = 0xFFFFFFFFu;
    // The fold takes whole 16-byte blocks, at least four of them; the
    // tail below 16 bytes (and any input below 64) stays on the table.
    if (size >= 64) {
        if (const detail::Crc32Fold fold = activeFold()) {
            const std::size_t blocks = size & ~static_cast<std::size_t>(15);
            c = fold(c, data, blocks);
            data += blocks;
            size -= blocks;
        }
    }
    return tableUpdate(c, data, size) ^ 0xFFFFFFFFu;
}

// ----------------------------------------------------------------------
// BitWriter
// ----------------------------------------------------------------------

namespace
{

// One 8-byte move on little-endian hosts, a byte loop elsewhere.
void
storeLE64(std::uint8_t *p, std::uint64_t v)
{
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(p, &v, 8);
    } else {
        for (unsigned i = 0; i < 8; ++i)
            p[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
}

std::uint64_t
loadLE64(const std::uint8_t *p)
{
    std::uint64_t v = 0;
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(&v, p, 8);
    } else {
        for (unsigned i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    }
    return v;
}

/**
 * The bits of `v` that spill past a 64-bit word when it is shifted
 * left by `phase` (0..7); 0 at phase 0 without an out-of-range shift.
 */
std::uint64_t
spill(std::uint64_t v, unsigned phase)
{
    return (v >> 1) >> (63 - phase);
}

} // namespace

void
BitWriter::put(std::uint64_t value, unsigned width)
{
    if (width == 0 || width > 64) {
        ok_ = false;
        return;
    }
    if (width < 64)
        value &= (1ULL << width) - 1;
    // Merge the value above the `phase` bits already in the last
    // byte (its spare bits are zero): the 1..9 bytes the field
    // reaches replace that byte, at any phase and width.
    const unsigned phase = (8 - spare_) & 7;
    const unsigned nbytes = (phase + width + 7) / 8;
    std::uint8_t word[9];
    storeLE64(word, (phase ? bytes_.back() : 0) | (value << phase));
    word[8] = static_cast<std::uint8_t>(spill(value, phase));
    const unsigned kept = phase != 0;
    if (kept)
        bytes_.back() = word[0];
    bytes_.insert(bytes_.end(), word + kept, word + nbytes);
    spare_ = nbytes * 8 - phase - width;
}

void
BitWriter::putU64s(const std::uint64_t *values, std::size_t n)
{
    if (n == 0)
        return;
    // A 64-bit field keeps the bit phase, so the run is n whole words
    // shifted by that phase, with one carry byte pending throughout.
    const unsigned phase = (8 - spare_) & 7;
    const std::size_t pos = bytes_.size() - (phase != 0);
    bytes_.resize(bytes_.size() + 8 * n);
    std::uint8_t *p = bytes_.data() + pos;
    std::uint64_t carry = phase ? p[0] : 0;
    for (std::size_t i = 0; i < n; ++i) {
        storeLE64(p + 8 * i, carry | (values[i] << phase));
        carry = spill(values[i], phase);
    }
    if (phase)
        p[8 * n] = static_cast<std::uint8_t>(carry);
}

void
BitWriter::putVarint(std::uint64_t v)
{
    do {
        std::uint8_t byte = v & 0x7F;
        v >>= 7;
        if (v != 0)
            byte |= 0x80;
        put(byte, 8);
    } while (v != 0);
}

void
BitWriter::putBytes(const std::uint8_t *data, std::size_t size)
{
    putVarint(size);
    align();
    bytes_.insert(bytes_.end(), data, data + size);
}

void
BitWriter::putString(const std::string &s)
{
    putBytes(reinterpret_cast<const std::uint8_t *>(s.data()),
             s.size());
}

void
BitWriter::align()
{
    spare_ = 0;
}

// ----------------------------------------------------------------------
// BitReader
// ----------------------------------------------------------------------

std::uint64_t
BitReader::get(unsigned width)
{
    if (!ok_)
        return 0; // latched: a failed stream never yields values again
    if (width == 0 || width > 64) {
        ok_ = false;
        return 0;
    }
    if (width > bitsLeft()) {
        // Truncated input: latch the error, consume nothing.
        ok_ = false;
        bit_ = size_ * 8;
        return 0;
    }
    // Mirror of the writer: gather the 1..9 bytes the field touches
    // (all inside the buffer; one 8-byte load away from its end) and
    // shift the phase out.
    const unsigned phase = static_cast<unsigned>(bit_ & 7);
    const unsigned nbytes = (phase + width + 7) / 8;
    const std::uint8_t *p = data_ + bit_ / 8;
    std::uint64_t word = 0;
    if (size_ - bit_ / 8 >= 8) {
        word = loadLE64(p);
    } else {
        for (unsigned i = 0; i < nbytes; ++i)
            word |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    }
    std::uint64_t value = word >> phase;
    if (nbytes > 8)
        value |= static_cast<std::uint64_t>(p[8]) << (64 - phase);
    if (width < 64)
        value &= (1ULL << width) - 1;
    bit_ += width;
    return value;
}

bool
BitReader::getU64s(std::uint64_t *out, std::size_t n)
{
    if (!ok_)
        return false;
    if (n > bitsLeft() / 64) {
        ok_ = false;
        bit_ = size_ * 8;
        return false;
    }
    const unsigned phase = static_cast<unsigned>(bit_ & 7);
    const std::uint8_t *p = data_ + bit_ / 8;
    if (phase == 0) {
        for (std::size_t i = 0; i < n; ++i)
            out[i] = loadLE64(p + 8 * i);
    } else {
        // Each field ends in the first byte of the next word, which
        // the bounds check above guarantees is inside the buffer.
        for (std::size_t i = 0; i < n; ++i)
            out[i] = (loadLE64(p + 8 * i) >> phase) |
                (static_cast<std::uint64_t>(p[8 * i + 8])
                 << (64 - phase));
    }
    bit_ += 64 * n;
    return true;
}

std::uint64_t
BitReader::getVarint()
{
    std::uint64_t value = 0;
    unsigned shift = 0;
    for (int i = 0; i < 10; ++i) {
        const std::uint64_t byte = get(8);
        if (!ok_)
            return 0;
        value |= (byte & 0x7F) << shift;
        if ((byte & 0x80) == 0)
            return value;
        shift += 7;
    }
    ok_ = false; // over-long encoding
    return 0;
}

std::vector<std::uint8_t>
BitReader::getBytes()
{
    const std::uint64_t size = getVarint();
    align();
    if (!ok_ || size > bitsLeft() / 8) {
        ok_ = false;
        return {};
    }
    const std::size_t start = bit_ / 8;
    bit_ += size * 8;
    return std::vector<std::uint8_t>(data_ + start,
                                     data_ + start + size);
}

std::string
BitReader::getString()
{
    const auto bytes = getBytes();
    return std::string(bytes.begin(), bytes.end());
}

void
BitReader::align()
{
    bit_ = (bit_ + 7) / 8 * 8;
    if (bit_ > size_ * 8)
        bit_ = size_ * 8;
}

// ----------------------------------------------------------------------
// Framing
// ----------------------------------------------------------------------

const char *
frameStatusName(FrameStatus status)
{
    switch (status) {
      case FrameStatus::Ok:
        return "ok";
      case FrameStatus::End:
        return "end";
      case FrameStatus::Truncated:
        return "truncated";
      case FrameStatus::Corrupt:
        return "corrupt";
    }
    return "unknown";
}

namespace
{

void
putLE32(std::vector<std::uint8_t> &out, std::uint32_t v)
{
    out.push_back(static_cast<std::uint8_t>(v));
    out.push_back(static_cast<std::uint8_t>(v >> 8));
    out.push_back(static_cast<std::uint8_t>(v >> 16));
    out.push_back(static_cast<std::uint8_t>(v >> 24));
}

std::uint32_t
getLE32(const std::uint8_t *p)
{
    return static_cast<std::uint32_t>(p[0]) |
        (static_cast<std::uint32_t>(p[1]) << 8) |
        (static_cast<std::uint32_t>(p[2]) << 16) |
        (static_cast<std::uint32_t>(p[3]) << 24);
}

/** Frames larger than this are treated as corruption, not data. */
constexpr std::uint32_t kMaxFrameBytes = 1u << 30;

} // namespace

void
appendFrame(std::vector<std::uint8_t> &out,
            const std::vector<std::uint8_t> &payload)
{
    // Grow geometrically: an exact reserve would reallocate (and copy)
    // a shared buffer on every frame appended to it.
    const std::size_t need = out.size() + 8 + payload.size();
    if (need > out.capacity())
        out.reserve(std::max(need, 2 * out.capacity()));
    putLE32(out, static_cast<std::uint32_t>(payload.size()));
    putLE32(out, crc32(payload.data(), payload.size()));
    out.insert(out.end(), payload.begin(), payload.end());
}

FrameStatus
readFrame(const std::uint8_t *data, std::size_t size,
          std::size_t &offset, std::vector<std::uint8_t> &payload)
{
    if (offset >= size)
        return FrameStatus::End;
    if (size - offset < 8)
        return FrameStatus::Truncated;
    const std::uint32_t len = getLE32(data + offset);
    const std::uint32_t want_crc = getLE32(data + offset + 4);
    if (len > kMaxFrameBytes)
        return FrameStatus::Corrupt;
    if (size - offset - 8 < len)
        return FrameStatus::Truncated;
    const std::uint8_t *body = data + offset + 8;
    if (crc32(body, len) != want_crc)
        return FrameStatus::Corrupt;
    payload.assign(body, body + len);
    offset += 8 + static_cast<std::size_t>(len);
    return FrameStatus::Ok;
}

} // namespace rime
