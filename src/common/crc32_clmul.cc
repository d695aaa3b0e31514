/**
 * @file
 * Carry-less-multiply CRC-32 folding (PCLMULQDQ + SSE4.1).
 *
 * This translation unit is the only one compiled with -mpclmul and
 * -msse4.1 (see src/common/CMakeLists.txt); its kernel is reached
 * exclusively through crc32() in bitio.cc, which only calls it after
 * __builtin_cpu_supports confirms both extensions on the host.
 * Without the flags it compiles to a stub returning nullptr, and
 * crc32() keeps the slice-by-8 table throughout.
 *
 * The method is the published Intel folding scheme for the reflected
 * IEEE polynomial 0xEDB88320 (as in zlib-chromium's crc32_simd.c):
 * four 128-bit lanes each fold in the next 64-byte block with two
 * carry-less multiplies by constants x^d mod P, the lanes fold into one
 * 128-bit remainder, single 16-byte blocks fold in, and a Barrett
 * reduction turns the remainder into the 32-bit register.  The fold
 * is exact polynomial arithmetic, so the register it returns equals
 * the table's register bit for bit.
 */

#include "common/bitio.hh"

#if defined(__PCLMUL__) && defined(__SSE4_1__)

#include <immintrin.h>

namespace rime::detail
{

namespace
{

inline __m128i
load(const std::uint8_t *p)
{
    return _mm_loadu_si128(reinterpret_cast<const __m128i *>(p));
}

/** One 128-bit fold: both halves of x times their constant, plus next. */
inline __m128i
fold(__m128i x, __m128i k, __m128i next)
{
    const __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
    const __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
    return _mm_xor_si128(_mm_xor_si128(hi, lo), next);
}

/**
 * CRC register `crc` advanced over `size` bytes; size must be a
 * multiple of 16 and at least 64.  Every load stays inside
 * [data, data + size).
 */
std::uint32_t
clmulFold(std::uint32_t crc, const std::uint8_t *data, std::size_t size)
{
    // Fold constants: bit-reflected x^d mod P for the fold distances
    // d = 4*128 +- 32 (k1, k2), 128 +- 32 (k3, k4) and 64 (k5); the
    // Barrett pair is P itself and mu = floor(x^64 / P).
    const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
    const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
    const __m128i k5k0 = _mm_set_epi64x(0, 0x0163cd6124);
    const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
    const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

    __m128i x1 = _mm_xor_si128(load(data),
                               _mm_cvtsi32_si128(static_cast<int>(crc)));
    __m128i x2 = load(data + 16);
    __m128i x3 = load(data + 32);
    __m128i x4 = load(data + 48);
    data += 64;
    size -= 64;

    // Four independent lanes, one 64-byte block per iteration.
    while (size >= 64) {
        x1 = fold(x1, k1k2, load(data));
        x2 = fold(x2, k1k2, load(data + 16));
        x3 = fold(x3, k1k2, load(data + 32));
        x4 = fold(x4, k1k2, load(data + 48));
        data += 64;
        size -= 64;
    }

    // Lanes into one 128-bit remainder, then single 16-byte blocks.
    x1 = fold(x1, k3k4, x2);
    x1 = fold(x1, k3k4, x3);
    x1 = fold(x1, k3k4, x4);
    while (size >= 16) {
        x1 = fold(x1, k3k4, load(data));
        data += 16;
        size -= 16;
    }

    // 128 -> 64 bits.
    __m128i x = _mm_xor_si128(_mm_srli_si128(x1, 8),
                              _mm_clmulepi64_si128(x1, k3k4, 0x10));
    x = _mm_xor_si128(
        _mm_clmulepi64_si128(_mm_and_si128(x, low32), k5k0, 0x00),
        _mm_srli_si128(x, 4));

    // Barrett reduction to the 32-bit register.
    __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x, low32), poly, 0x10);
    t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
    return static_cast<std::uint32_t>(
        _mm_extract_epi32(_mm_xor_si128(x, t), 1));
}

} // namespace

Crc32Fold
crc32ClmulFold()
{
    return &clmulFold;
}

} // namespace rime::detail

#else // !(defined(__PCLMUL__) && defined(__SSE4_1__))

namespace rime::detail
{

Crc32Fold
crc32ClmulFold()
{
    return nullptr;
}

} // namespace rime::detail

#endif
