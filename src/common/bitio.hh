/**
 * @file
 * Bit-packed serialization: the codec layer under the serving layer's
 * write-ahead journal and session snapshots.
 *
 * BitWriter appends fields of 1..64 bits LSB-first into a growable
 * byte buffer; BitReader consumes them symmetrically.  Every field,
 * at any bit phase, is one shift-and-merge of the bytes it touches;
 * putU64s/getU64s move a run of 64-bit fields with one resize or one
 * bounds check, byte-identical to the same putU64/getU64 calls.
 *
 * A reader is never allowed to invoke undefined behaviour: reading
 * past the end of the buffer (or asking for an out-of-range width)
 * latches an error flag and returns zeros, so a truncated or corrupted
 * input is always an *explicit* failure the caller can test with ok().
 *
 * On top of the raw bit stream sits a framed record format used by
 * the journal and snapshot files:
 *
 *   [u32 payload length][u32 CRC-32 of payload][payload bytes]
 *
 * both prefix words little-endian.  readFrame() validates the length
 * against the remaining input and the checksum against the payload,
 * so a torn tail (the crash happened mid-append) or a flipped bit is
 * detected and reported instead of being replayed.  The checksum is
 * the table-driven CRC-32, folded with carry-less multiplies where
 * the host has them (crc32_clmul.cc); the bytes a frame carries are
 * the same either way.
 */

#ifndef RIME_COMMON_BITIO_HH
#define RIME_COMMON_BITIO_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace rime
{

/**
 * CRC-32 (IEEE 802.3, polynomial 0xEDB88320) of a byte span.  On an
 * x86 host with PCLMULQDQ and SSE4.1 (probed once by CPUID) the whole
 * 16-byte blocks of an input of 64 bytes or more are folded with
 * carry-less multiplies; everything else runs the slice-by-8 table.
 * Both paths return the same value for every input.
 */
std::uint32_t crc32(const std::uint8_t *data, std::size_t size);

namespace detail
{

/** Advances a CRC register over a span (crc32_clmul.cc's kernel). */
using Crc32Fold = std::uint32_t (*)(std::uint32_t, const std::uint8_t *,
                                    std::size_t);

/** crc32() on the slice-by-8 table alone: the reference path. */
std::uint32_t crc32Table(const std::uint8_t *data, std::size_t size);

/** The path crc32() dispatched to on this host: "pclmul" or "table". */
const char *crc32KernelName();

} // namespace detail

/** Append bit-packed fields to a byte buffer, LSB-first. */
class BitWriter
{
  public:
    /**
     * Append the low `width` bits of `value` (1 <= width <= 64).
     * A width outside that range is a caller bug and latches the
     * error flag (nothing is written).
     */
    void put(std::uint64_t value, unsigned width);

    /** Fixed-width conveniences. */
    void putU8(std::uint8_t v) { put(v, 8); }
    void putU16(std::uint16_t v) { put(v, 16); }
    void putU32(std::uint32_t v) { put(v, 32); }
    void putU64(std::uint64_t v) { put(v, 64); }
    void putBool(bool v) { put(v ? 1 : 0, 1); }

    /** Append `n` 64-bit fields: the bytes of n putU64 calls. */
    void putU64s(const std::uint64_t *values, std::size_t n);

    /** LEB128-style variable-length unsigned integer. */
    void putVarint(std::uint64_t v);

    /** Length-prefixed (varint) byte string. */
    void putBytes(const std::uint8_t *data, std::size_t size);
    void putString(const std::string &s);

    /** Pad with zero bits to the next byte boundary. */
    void align();

    /** Pre-size the buffer for an encode of known rough size. */
    void reserve(std::size_t bytes) { bytes_.reserve(bytes); }

    /** True unless a bad width was requested. */
    bool ok() const { return ok_; }

    /** Bits written so far (padding included). */
    std::size_t bitSize() const { return bytes_.size() * 8 - spare_; }

    /** The buffer, zero-padded to a whole byte. */
    const std::vector<std::uint8_t> &bytes() const { return bytes_; }
    std::vector<std::uint8_t> take() { return std::move(bytes_); }

  private:
    std::vector<std::uint8_t> bytes_;
    /** Unused high bits of the last byte (0 when byte-aligned). */
    unsigned spare_ = 0;
    bool ok_ = true;
};

/** Consume bit-packed fields from a byte buffer, LSB-first. */
class BitReader
{
  public:
    BitReader(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {}

    explicit BitReader(const std::vector<std::uint8_t> &bytes)
        : BitReader(bytes.data(), bytes.size())
    {}

    /**
     * Read `width` bits (1 <= width <= 64).  Past-the-end reads and
     * out-of-range widths latch the error flag and return 0 -- never
     * undefined behaviour, never a partial value.
     */
    std::uint64_t get(unsigned width);

    std::uint8_t getU8() { return static_cast<std::uint8_t>(get(8)); }
    std::uint16_t getU16()
    { return static_cast<std::uint16_t>(get(16)); }
    std::uint32_t getU32()
    { return static_cast<std::uint32_t>(get(32)); }
    std::uint64_t getU64() { return get(64); }
    bool getBool() { return get(1) != 0; }

    /**
     * Read `n` 64-bit fields into `out`: the values of n getU64
     * calls.  A run longer than the input latches the error flag,
     * writes nothing to `out`, and returns false.
     */
    bool getU64s(std::uint64_t *out, std::size_t n);

    std::uint64_t getVarint();

    /** Length-prefixed byte string; empty (and error) on overrun. */
    std::vector<std::uint8_t> getBytes();
    std::string getString();

    /** Skip to the next byte boundary. */
    void align();

    /** False once any read overran the input or used a bad width. */
    bool ok() const { return ok_; }

    /** Bits not yet consumed. */
    std::size_t bitsLeft() const { return size_ * 8 - bit_; }

  private:
    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t bit_ = 0;
    bool ok_ = true;
};

/**
 * Append one framed record ([len][crc][payload]) to `out`.
 * The payload is the writer's byte buffer.  `out` grows
 * geometrically, so appending N frames reallocates O(log N) times.
 */
void appendFrame(std::vector<std::uint8_t> &out,
                 const std::vector<std::uint8_t> &payload);

/** Outcome of pulling one frame off a byte stream. */
enum class FrameStatus : std::uint8_t
{
    Ok,        ///< payload extracted and checksum verified
    End,       ///< clean end of input (zero bytes left)
    Truncated, ///< a partial frame (torn tail of a crashed append)
    Corrupt,   ///< length absurd or checksum mismatch
};

const char *frameStatusName(FrameStatus status);

/**
 * Extract the frame at `offset`; advances `offset` past it on Ok.
 * Truncated/Corrupt leave `offset` untouched so the caller can report
 * how far the valid prefix reached.
 */
FrameStatus readFrame(const std::uint8_t *data, std::size_t size,
                      std::size_t &offset,
                      std::vector<std::uint8_t> &payload);

} // namespace rime

#endif // RIME_COMMON_BITIO_HH
