/**
 * @file
 * Codec tests for the bit-packed serialization layer under the
 * write-ahead journal (common/bitio.hh): every field width 1..64 must
 * round-trip at arbitrary (unaligned) bit offsets, varints must
 * round-trip across their length breakpoints, and every malformed
 * input -- truncated buffers, flipped bits, absurd lengths -- must be
 * an *explicit* error (latched reader flag or a Truncated/Corrupt
 * frame status), never undefined behaviour or a silently wrong value.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/bitio.hh"
#include "common/bitops.hh"
#include "common/rng.hh"
#include "service/wire.hh"

using namespace rime;

namespace
{

/** Mask with the low `width` bits set (width 1..64). */
std::uint64_t
mask(unsigned width)
{
    return width == 64 ? ~0ULL : (1ULL << width) - 1;
}

} // namespace

TEST(BitIo, RoundTripEveryWidthAligned)
{
    for (unsigned width = 1; width <= 64; ++width) {
        const std::uint64_t patterns[] = {
            0, 1, mask(width), mask(width) >> 1,
            0xA5A5A5A5A5A5A5A5ULL & mask(width),
        };
        BitWriter w;
        for (const auto p : patterns)
            w.put(p, width);
        ASSERT_TRUE(w.ok());
        BitReader r(w.bytes());
        for (const auto p : patterns)
            EXPECT_EQ(r.get(width), p) << "width " << width;
        EXPECT_TRUE(r.ok());
    }
}

TEST(BitIo, RoundTripEveryWidthUnaligned)
{
    // A 1..7-bit prefix forces every field to straddle byte
    // boundaries at every possible phase.
    for (unsigned phase = 1; phase <= 7; ++phase) {
        for (unsigned width = 1; width <= 64; ++width) {
            const std::uint64_t v = 0x123456789ABCDEF0ULL & mask(width);
            BitWriter w;
            w.put(0, phase);
            w.put(v, width);
            w.put(mask(width), width);
            ASSERT_TRUE(w.ok());
            BitReader r(w.bytes());
            EXPECT_EQ(r.get(phase), 0u);
            EXPECT_EQ(r.get(width), v)
                << "phase " << phase << " width " << width;
            EXPECT_EQ(r.get(width), mask(width));
            EXPECT_TRUE(r.ok());
        }
    }
}

TEST(BitIo, RandomizedMixedWidthStream)
{
    Rng rng(1234);
    std::vector<std::pair<std::uint64_t, unsigned>> fields;
    BitWriter w;
    for (int i = 0; i < 10000; ++i) {
        const unsigned width = 1 + rng() % 64;
        const std::uint64_t v = rng() & mask(width);
        fields.emplace_back(v, width);
        w.put(v, width);
    }
    ASSERT_TRUE(w.ok());
    BitReader r(w.bytes());
    for (const auto &[v, width] : fields)
        ASSERT_EQ(r.get(width), v) << "width " << width;
    EXPECT_TRUE(r.ok());
}

TEST(BitIo, BadWidthLatchesWriter)
{
    BitWriter w;
    w.put(1, 0);
    EXPECT_FALSE(w.ok());
    EXPECT_EQ(w.bitSize(), 0u);

    BitWriter w2;
    w2.put(1, 65);
    EXPECT_FALSE(w2.ok());
}

TEST(BitIo, BadWidthLatchesReader)
{
    const std::vector<std::uint8_t> bytes(16, 0xFF);
    BitReader r(bytes);
    EXPECT_EQ(r.get(0), 0u);
    EXPECT_FALSE(r.ok());
    // Error is sticky: even in-range reads return zero afterwards.
    EXPECT_EQ(r.get(8), 0u);
    EXPECT_FALSE(r.ok());
}

TEST(BitIo, OverrunLatchesNotUb)
{
    BitWriter w;
    w.putU16(0xBEEF);
    const auto bytes = w.bytes();
    BitReader r(bytes);
    EXPECT_EQ(r.getU16(), 0xBEEFu);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.get(1), 0u); // one bit past the end
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.getU64(), 0u);
    EXPECT_FALSE(r.ok());
}

TEST(BitIo, EmptyInputReads)
{
    BitReader r(nullptr, 0);
    EXPECT_EQ(r.bitsLeft(), 0u);
    EXPECT_EQ(r.get(1), 0u);
    EXPECT_FALSE(r.ok());
}

namespace
{

/** n pseudo-random 64-bit values covering every byte pattern. */
std::vector<std::uint64_t>
runValues(std::size_t n)
{
    std::vector<std::uint64_t> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = (i + 1) * 0x9E3779B97F4A7C15ULL;
    return v;
}

} // namespace

TEST(BitIo, U64RunMatchesFieldAtATimeAtEveryPhase)
{
    for (unsigned phase = 0; phase <= 7; ++phase) {
        for (const std::size_t n : {0, 1, 2, 37}) {
            SCOPED_TRACE("phase " + std::to_string(phase) + " n " +
                         std::to_string(n));
            const auto values = runValues(n);
            BitWriter one, run;
            if (phase) {
                one.put(0x55, phase);
                run.put(0x55, phase);
            }
            for (const auto v : values)
                one.putU64(v);
            run.putU64s(values.data(), n);
            // A trailing field checks the writers' bit phase, too.
            one.put(0x5, 3);
            run.put(0x5, 3);
            ASSERT_TRUE(run.ok());
            EXPECT_EQ(run.bitSize(), one.bitSize());
            EXPECT_EQ(run.bytes(), one.bytes());

            BitReader a(one.bytes()), b(one.bytes());
            if (phase) {
                EXPECT_EQ(a.get(phase), 0x55 & mask(phase));
                EXPECT_EQ(b.get(phase), 0x55 & mask(phase));
            }
            std::vector<std::uint64_t> got(n);
            ASSERT_TRUE(b.getU64s(got.data(), n));
            for (std::size_t i = 0; i < n; ++i)
                EXPECT_EQ(got[i], a.getU64()) << "value " << i;
            EXPECT_EQ(got, values);
            EXPECT_EQ(b.bitsLeft(), a.bitsLeft());
            EXPECT_EQ(b.get(3), 0x5u);
            EXPECT_TRUE(a.ok());
            EXPECT_TRUE(b.ok());
        }
    }
}

TEST(BitIo, TruncatedU64RunLatchesAtEveryCut)
{
    // At phase p a buffer of L bytes leaves 8L - p bits for the run,
    // so every phase and every byte cut together cover every bit count
    // short of the run.  Each cut is copied into an exactly-sized heap
    // buffer, so a read past it is an ASan error.
    for (unsigned phase = 0; phase <= 7; ++phase) {
        for (const std::size_t n : {1, 2, 37}) {
            const auto values = runValues(n);
            BitWriter w;
            if (phase)
                w.put(0, phase);
            w.putU64s(values.data(), n);
            const auto &full = w.bytes();
            for (std::size_t len = 0; len < full.size(); ++len) {
                SCOPED_TRACE("phase " + std::to_string(phase) + " n " +
                             std::to_string(n) + " len " +
                             std::to_string(len));
                const std::vector<std::uint8_t> cut(full.begin(),
                                                    full.begin() + len);
                BitReader r(cut.data(), cut.size());
                if (phase && len > 0)
                    r.get(phase);
                std::vector<std::uint64_t> out(n, 7);
                EXPECT_FALSE(r.getU64s(out.data(), n));
                EXPECT_FALSE(r.ok());
                EXPECT_EQ(out, std::vector<std::uint64_t>(n, 7));
                // Latched: a later run (even an empty one) fails too.
                EXPECT_FALSE(r.getU64s(out.data(), 0));
            }
        }
    }
}

TEST(BitIo, TruncatedStoreArrayRequestFailsAtEveryByte)
{
    service::Request req;
    req.kind = service::RequestKind::StoreArray;
    req.start = 4096;
    req.largest = true;
    req.wordBits = 32;
    req.values = runValues(37);
    BitWriter w;
    service::wire::encodeRequest(w, req);
    const auto &full = w.bytes();
    {
        BitReader r(full);
        service::Request back;
        ASSERT_TRUE(service::wire::decodeRequest(r, back));
        EXPECT_EQ(back.values, req.values);
    }
    for (std::size_t len = 0; len < full.size(); ++len) {
        const std::vector<std::uint8_t> cut(full.begin(),
                                            full.begin() + len);
        BitReader r(cut.data(), cut.size());
        service::Request back;
        EXPECT_FALSE(service::wire::decodeRequest(r, back))
            << "len " << len;
    }
}

TEST(BitIo, VarintBreakpoints)
{
    // Every 7-bit group boundary, plus both extremes.
    std::vector<std::uint64_t> edges = {0, 1};
    for (unsigned shift = 7; shift < 64; shift += 7) {
        edges.push_back((1ULL << shift) - 1);
        edges.push_back(1ULL << shift);
        edges.push_back((1ULL << shift) + 1);
    }
    edges.push_back(std::numeric_limits<std::uint64_t>::max());

    BitWriter w;
    for (const auto v : edges)
        w.putVarint(v);
    ASSERT_TRUE(w.ok());
    BitReader r(w.bytes());
    for (const auto v : edges)
        EXPECT_EQ(r.getVarint(), v);
    EXPECT_TRUE(r.ok());
}

TEST(BitIo, TruncatedVarintIsError)
{
    BitWriter w;
    w.putVarint(std::numeric_limits<std::uint64_t>::max());
    auto bytes = w.take();
    ASSERT_GT(bytes.size(), 1u);
    bytes.pop_back(); // drop the terminating group
    BitReader r(bytes);
    r.getVarint();
    EXPECT_FALSE(r.ok());
}

TEST(BitIo, BytesAndStrings)
{
    const std::string s = "journal record \x01\x02\x7f payload";
    const std::vector<std::uint8_t> blob = {0, 255, 128, 1, 2, 3};
    BitWriter w;
    w.putString(s);
    w.putBytes(blob.data(), blob.size());
    w.putString("");
    ASSERT_TRUE(w.ok());
    BitReader r(w.bytes());
    EXPECT_EQ(r.getString(), s);
    EXPECT_EQ(r.getBytes(), blob);
    EXPECT_EQ(r.getString(), "");
    EXPECT_TRUE(r.ok());
}

TEST(BitIo, BytesLengthBeyondInputIsError)
{
    // A varint length prefix claiming far more payload than exists
    // must latch the error and return empty, not read out of bounds.
    BitWriter w;
    w.putVarint(1 << 20);
    w.putU8(0xAA); // only one byte of "payload"
    BitReader r(w.bytes());
    EXPECT_TRUE(r.getBytes().empty());
    EXPECT_FALSE(r.ok());
}

TEST(BitIo, AlignRoundTrip)
{
    BitWriter w;
    w.put(0x5, 3);
    w.align();
    EXPECT_EQ(w.bitSize() % 8, 0u);
    w.putU8(0xC3);
    BitReader r(w.bytes());
    EXPECT_EQ(r.get(3), 0x5u);
    r.align();
    EXPECT_EQ(r.getU8(), 0xC3u);
    EXPECT_TRUE(r.ok());
}

TEST(BitIo, Crc32KnownVector)
{
    // The classic IEEE 802.3 check value.
    const char *s = "123456789";
    EXPECT_EQ(
        crc32(reinterpret_cast<const std::uint8_t *>(s), 9),
        0xCBF43926u);
    EXPECT_EQ(crc32(nullptr, 0), 0u);
}

namespace
{

/** `n` seeded random bytes in an allocation of exactly `n` bytes. */
std::vector<std::uint8_t>
randomBytes(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::uint8_t> buf(n);
    for (auto &b : buf)
        b = static_cast<std::uint8_t>(rng());
    return buf;
}

/**
 * crc32() against the table reference on `buf`: every length
 * 0..1100 at every start offset 0..15, each slice both from the
 * front of the buffer and ending at its last byte (so an over-read
 * past a slice end leaves the allocation), then the whole buffer
 * minus each offset.
 */
void
expectFoldMatchesTable(const std::vector<std::uint8_t> &buf)
{
    const std::uint8_t *end = buf.data() + buf.size();
    for (std::size_t off = 0; off < 16; ++off) {
        for (std::size_t len = 0; len <= 1100; ++len) {
            const std::uint8_t *front = buf.data() + off;
            ASSERT_EQ(crc32(front, len), detail::crc32Table(front, len))
                << "front slice, offset " << off << ", length " << len;
            const std::uint8_t *back = end - len - off;
            ASSERT_EQ(crc32(back, len + off),
                      detail::crc32Table(back, len + off))
                << "tail slice of " << len + off << " bytes";
        }
        const std::size_t whole = buf.size() - off;
        ASSERT_EQ(crc32(buf.data() + off, whole),
                  detail::crc32Table(buf.data() + off, whole))
            << "whole buffer from offset " << off;
    }
}

} // namespace

TEST(BitIo, Crc32FoldMatchesTableAtEveryLengthAndOffset)
{
    // On a host without PCLMULQDQ both sides run the table and the
    // comparison is trivially equal; the kernel name says which ran.
    RecordProperty("crc32_kernel", detail::crc32KernelName());
    // 131132 bytes: one wire_store StoreArray frame payload plus its
    // header slack, not a multiple of 16 or 64.
    expectFoldMatchesTable(randomBytes(131132, 11));
    expectFoldMatchesTable(randomBytes(1 << 20, 12));
}

TEST(BitIo, FrameRoundTrip)
{
    std::vector<std::uint8_t> stream;
    std::vector<std::vector<std::uint8_t>> payloads = {
        {}, {1}, {0xDE, 0xAD, 0xBE, 0xEF},
        std::vector<std::uint8_t>(1000, 0x5A),
    };
    for (const auto &p : payloads)
        appendFrame(stream, p);

    std::size_t offset = 0;
    std::vector<std::uint8_t> payload;
    for (const auto &p : payloads) {
        ASSERT_EQ(readFrame(stream.data(), stream.size(), offset,
                            payload),
                  FrameStatus::Ok);
        EXPECT_EQ(payload, p);
    }
    EXPECT_EQ(
        readFrame(stream.data(), stream.size(), offset, payload),
        FrameStatus::End);
    EXPECT_EQ(offset, stream.size());
}

TEST(BitIo, AppendFrameGrowsGeometrically)
{
    // N frames appended to one buffer: O(log N) reallocations, not N.
    const std::vector<std::uint8_t> payload(100, 0x3C);
    std::vector<std::uint8_t> out, expect;
    const unsigned frames = 1000;
    unsigned reallocs = 0;
    for (unsigned i = 0; i < frames; ++i) {
        const std::size_t cap = out.capacity();
        appendFrame(out, payload);
        reallocs += out.capacity() != cap;
    }
    EXPECT_LE(reallocs, 2 + floorLog2(frames)) << reallocs;
    // Same bytes as frames appended one per fresh buffer.
    for (unsigned i = 0; i < frames; ++i) {
        std::vector<std::uint8_t> one;
        appendFrame(one, payload);
        expect.insert(expect.end(), one.begin(), one.end());
    }
    EXPECT_EQ(out, expect);
}

TEST(BitIo, TornTailIsTruncatedAtEveryCut)
{
    std::vector<std::uint8_t> stream;
    appendFrame(stream, {1, 2, 3, 4});
    appendFrame(stream, {5, 6, 7, 8, 9, 10});
    const std::size_t first = [&] {
        std::size_t off = 0;
        std::vector<std::uint8_t> p;
        EXPECT_EQ(readFrame(stream.data(), stream.size(), off, p),
                  FrameStatus::Ok);
        return off;
    }();

    // Cut the stream at every byte inside the second frame: the first
    // frame must still parse and the tail must report Truncated with
    // the offset left at the clean-prefix boundary.
    for (std::size_t cut = first + 1; cut < stream.size(); ++cut) {
        std::size_t off = 0;
        std::vector<std::uint8_t> p;
        ASSERT_EQ(readFrame(stream.data(), cut, off, p),
                  FrameStatus::Ok);
        ASSERT_EQ(readFrame(stream.data(), cut, off, p),
                  FrameStatus::Truncated)
            << "cut at " << cut;
        EXPECT_EQ(off, first);
    }
}

TEST(BitIo, FlippedBitIsCorrupt)
{
    // Flip every bit of a frame, one at a time: a 5-byte payload (its
    // CRC runs on the table) and a 1 KiB one (folded where the host
    // has PCLMULQDQ).  CRC-32 detects every single-bit error, so a
    // flip in the CRC word or the payload is Corrupt.  A flip in the
    // length word may instead claim more bytes than the stream holds,
    // which is a torn tail: Truncated.
    for (const auto &payload :
         {std::vector<std::uint8_t>{10, 20, 30, 40, 50},
          randomBytes(1024, 13)}) {
        std::vector<std::uint8_t> stream;
        appendFrame(stream, payload);
        for (std::size_t bit = 0; bit < stream.size() * 8; ++bit) {
            auto bad = stream;
            bad[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
            std::size_t off = 0;
            std::vector<std::uint8_t> p;
            const FrameStatus st =
                readFrame(bad.data(), bad.size(), off, p);
            if (bit < 32) {
                ASSERT_TRUE(st == FrameStatus::Corrupt ||
                            st == FrameStatus::Truncated)
                    << "length flip at bit " << bit << ": "
                    << frameStatusName(st);
            } else {
                ASSERT_EQ(st, FrameStatus::Corrupt)
                    << payload.size() << "-byte payload, flip at bit "
                    << bit;
            }
            ASSERT_EQ(off, 0u);
        }
    }
}

TEST(BitIo, AbsurdLengthIsCorruptNotAllocation)
{
    // A length word larger than the frame cap must be rejected
    // before any attempt to read (or allocate) that much.
    std::vector<std::uint8_t> stream(16, 0);
    stream[0] = 0xFF;
    stream[1] = 0xFF;
    stream[2] = 0xFF;
    stream[3] = 0xFF; // length = 0xFFFFFFFF
    std::size_t off = 0;
    std::vector<std::uint8_t> p;
    EXPECT_EQ(readFrame(stream.data(), stream.size(), off, p),
              FrameStatus::Corrupt);
    EXPECT_EQ(off, 0u);
}

TEST(BitIo, FrameStatusNames)
{
    EXPECT_STREQ(frameStatusName(FrameStatus::Ok), "ok");
    EXPECT_STREQ(frameStatusName(FrameStatus::End), "end");
    EXPECT_STREQ(frameStatusName(FrameStatus::Truncated), "truncated");
    EXPECT_STREQ(frameStatusName(FrameStatus::Corrupt), "corrupt");
}

// ---------------------------------------------------------------------
// Wire-grade framing: the same [len][crc][payload] frames arriving in
// arbitrary fragments over a live socket.  The stream parser a server
// builds on readFrame must treat every partial delivery as Truncated
// (wait for more) and every completed delivery as exactly the frames
// that were sent -- never Corrupt, never a duplicate, never UB.
// ---------------------------------------------------------------------

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/fdio.hh"

namespace
{

/** recv exactly `want` bytes from `fd` into the end of `buf`. */
void
recvExactly(int fd, std::vector<std::uint8_t> &buf, std::size_t want)
{
    while (want > 0) {
        std::uint8_t chunk[4096];
        const ssize_t got =
            ::recv(fd, chunk, std::min(want, sizeof(chunk)), 0);
        ASSERT_GT(got, 0) << "socketpair recv failed";
        buf.insert(buf.end(), chunk, chunk + got);
        want -= static_cast<std::size_t>(got);
    }
}

/** Parse every complete frame at the head of `buf`; never Corrupt. */
std::vector<std::vector<std::uint8_t>>
drainFrames(std::vector<std::uint8_t> &buf)
{
    std::vector<std::vector<std::uint8_t>> out;
    std::size_t offset = 0;
    while (true) {
        std::vector<std::uint8_t> payload;
        const FrameStatus status =
            readFrame(buf.data(), buf.size(), offset, payload);
        if (status == FrameStatus::Ok) {
            out.push_back(std::move(payload));
            continue;
        }
        EXPECT_NE(status, FrameStatus::Corrupt)
            << "partial delivery misread as corruption";
        break;
    }
    buf.erase(buf.begin(),
              buf.begin() + static_cast<std::ptrdiff_t>(offset));
    return out;
}

} // namespace

TEST(WireFraming, SocketpairCutAtEveryByteIsTruncatedNeverCorrupt)
{
    // Two back-to-back frames, so a cut can also land *between*
    // frames (the first must then parse while the second waits).
    BitWriter w1, w2;
    w1.putString("the first framed payload");
    w2.putVarint(0xDEADBEEFULL);
    w2.putString("the second");
    std::vector<std::uint8_t> stream;
    appendFrame(stream, w1.bytes());
    appendFrame(stream, w2.bytes());

    for (std::size_t cut = 0; cut <= stream.size(); ++cut) {
        SCOPED_TRACE("cut at byte " + std::to_string(cut));
        int sp[2];
        ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sp), 0);

        std::vector<std::uint8_t> in;
        std::vector<std::vector<std::uint8_t>> frames;

        // First fragment: parse whatever is complete; the tail must
        // report Truncated (inside a frame) or End (between frames).
        if (cut > 0) {
            ASSERT_TRUE(writeFully(sp[0], stream.data(), cut));
            recvExactly(sp[1], in, cut);
        }
        auto first = drainFrames(in);
        frames.insert(frames.end(),
                      std::make_move_iterator(first.begin()),
                      std::make_move_iterator(first.end()));

        // Second fragment completes the stream.
        if (cut < stream.size()) {
            ASSERT_TRUE(writeFully(sp[0], stream.data() + cut,
                                   stream.size() - cut));
            recvExactly(sp[1], in, stream.size() - cut);
        }
        auto rest = drainFrames(in);
        frames.insert(frames.end(),
                      std::make_move_iterator(rest.begin()),
                      std::make_move_iterator(rest.end()));

        ASSERT_EQ(frames.size(), 2u);
        EXPECT_EQ(frames[0], w1.bytes());
        EXPECT_EQ(frames[1], w2.bytes());
        EXPECT_TRUE(in.empty());
        ::close(sp[0]);
        ::close(sp[1]);
    }
}

TEST(WireFraming, FlippedBitOverSocketpairIsCorruptNotUB)
{
    BitWriter w;
    w.putString("payload whose checksum must catch every flip");
    std::vector<std::uint8_t> stream;
    appendFrame(stream, w.bytes());

    // Flip each bit of the CRC word and payload in turn (flips in the
    // length word instead turn into Truncated/Corrupt length checks,
    // covered by the frame tests above).
    for (std::size_t bit = 4 * 8; bit < stream.size() * 8; ++bit) {
        std::vector<std::uint8_t> bad = stream;
        bad[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        int sp[2];
        ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sp), 0);
        ASSERT_TRUE(writeFully(sp[0], bad.data(), bad.size()));
        std::vector<std::uint8_t> in;
        recvExactly(sp[1], in, bad.size());
        std::size_t off = 0;
        std::vector<std::uint8_t> payload;
        EXPECT_EQ(readFrame(in.data(), in.size(), off, payload),
                  FrameStatus::Corrupt)
            << "flipped bit " << bit;
        EXPECT_EQ(off, 0u);
        ::close(sp[0]);
        ::close(sp[1]);
    }
}

// ---------------------------------------------------------------------
// writeFully: short writes and EINTR are resumed, real errors are not.
// ---------------------------------------------------------------------

namespace
{

int dribbleCalls = 0;

/** Transfer at most one byte per call; every third call fakes EINTR. */
ssize_t
dribbleShim(int fd, const void *buf, std::size_t len)
{
    if (++dribbleCalls % 3 == 0) {
        errno = EINTR;
        return -1;
    }
    return ::write(fd, buf, len > 0 ? 1 : 0);
}

ssize_t
enospcShim(int, const void *, std::size_t)
{
    errno = ENOSPC;
    return -1;
}

/** Restore the real write(2) when a test scope ends. */
struct ShimGuard
{
    explicit ShimGuard(fdio_detail::WriteFn fn)
    {
        dribbleCalls = 0;
        fdio_detail::writeShim = fn;
    }
    ~ShimGuard() { fdio_detail::writeShim = &::write; }
};

} // namespace

TEST(Fdio, WriteFullyResumesShortWritesAndEintr)
{
    char path[] = "/tmp/rime_fdio_XXXXXX";
    const int fd = ::mkstemp(path);
    ASSERT_GE(fd, 0);

    std::vector<std::uint8_t> data(257);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i * 7 + 3);
    {
        ShimGuard guard(&dribbleShim);
        EXPECT_TRUE(writeFully(fd, data.data(), data.size()));
    }
    // Every byte landed, in order, exactly once.
    ASSERT_EQ(::lseek(fd, 0, SEEK_SET), 0);
    std::vector<std::uint8_t> back(data.size() + 1);
    const ssize_t got = ::read(fd, back.data(), back.size());
    EXPECT_EQ(static_cast<std::size_t>(got), data.size());
    back.resize(data.size());
    EXPECT_EQ(back, data);
    ::close(fd);
    ::unlink(path);
}

TEST(Fdio, WriteFullyFailsOnRealErrors)
{
    char path[] = "/tmp/rime_fdio_XXXXXX";
    const int fd = ::mkstemp(path);
    ASSERT_GE(fd, 0);
    const std::uint8_t byte = 0x5A;
    {
        ShimGuard guard(&enospcShim);
        errno = 0;
        EXPECT_FALSE(writeFully(fd, &byte, 1));
        EXPECT_EQ(errno, ENOSPC);
    }
    ::close(fd);
    ::unlink(path);
}

TEST(Fdio, FsyncParentDir)
{
    EXPECT_TRUE(fsyncParentDir("/tmp/any_name_will_do"));
    EXPECT_FALSE(fsyncParentDir("/no_such_dir_rime_test/x"));
}
