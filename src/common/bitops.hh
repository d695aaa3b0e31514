/**
 * @file
 * Bit manipulation helpers used by the key codecs, the address mappers,
 * and the bit-level RIME array model.
 */

#ifndef RIME_COMMON_BITOPS_HH
#define RIME_COMMON_BITOPS_HH

#include <bit>
#include <cstdint>

namespace rime
{

/** Extract bits [first, last] (inclusive, last >= first) of value. */
constexpr std::uint64_t
bits(std::uint64_t value, unsigned last, unsigned first)
{
    const unsigned nbits = last - first + 1;
    const std::uint64_t mask =
        nbits >= 64 ? ~0ULL : ((1ULL << nbits) - 1);
    return (value >> first) & mask;
}

/** Extract a single bit of value. */
constexpr bool
bit(std::uint64_t value, unsigned pos)
{
    return (value >> pos) & 1ULL;
}

/** Insert bits [first, last] of value into base and return the result. */
constexpr std::uint64_t
insertBits(std::uint64_t base, unsigned last, unsigned first,
           std::uint64_t value)
{
    const unsigned nbits = last - first + 1;
    const std::uint64_t mask =
        nbits >= 64 ? ~0ULL : ((1ULL << nbits) - 1);
    return (base & ~(mask << first)) | ((value & mask) << first);
}

/** True if value is a power of two (0 is not). */
constexpr bool
isPowerOf2(std::uint64_t value)
{
    return value != 0 && (value & (value - 1)) == 0;
}

/** ceil(log2(value)) for value >= 1. */
constexpr unsigned
ceilLog2(std::uint64_t value)
{
    return value <= 1 ? 0
        : 64 - static_cast<unsigned>(std::countl_zero(value - 1));
}

/** floor(log2(value)) for value >= 1. */
constexpr unsigned
floorLog2(std::uint64_t value)
{
    return 63 - static_cast<unsigned>(std::countl_zero(value));
}

/** Round value up to the next multiple of align (a power of two). */
constexpr std::uint64_t
roundUp(std::uint64_t value, std::uint64_t align)
{
    return (value + align - 1) & ~(align - 1);
}

/** Round value down to a multiple of align (a power of two). */
constexpr std::uint64_t
roundDown(std::uint64_t value, std::uint64_t align)
{
    return value & ~(align - 1);
}

/**
 * Length of the common leading-bit prefix of two k-bit values.
 *
 * Both values are interpreted as k-bit strings with bit (k-1) the most
 * significant.  Returns k when the values are equal.
 */
constexpr unsigned
commonPrefixLength(std::uint64_t a, std::uint64_t b, unsigned k)
{
    const std::uint64_t diff = a ^ b;
    if (diff == 0)
        return k;
    const unsigned highest =
        63 - static_cast<unsigned>(std::countl_zero(diff));
    // Bits (k-1) .. (highest+1) agree.
    return k - 1 - highest;
}

namespace detail
{

/**
 * One transpose64 round: in every 2J-row block, swap the high J
 * columns of the top J rows with the low J columns of the bottom J
 * rows (`m` selects each row's low J columns of every 2J group).
 */
template <unsigned J>
constexpr void
transposeRound(std::uint64_t a[64], std::uint64_t m)
{
    for (unsigned base = 0; base < 64; base += 2 * J) {
        for (unsigned k = base; k < base + J; ++k) {
            const std::uint64_t t = ((a[k] >> J) ^ a[k + J]) & m;
            a[k] ^= t << J;
            a[k + J] ^= t;
        }
    }
}

} // namespace detail

/**
 * In-place transpose of a 64x64 bit matrix held as 64 row words: on
 * return bit j of a[i] is bit i of the old a[j].  Six rounds of 32
 * masked word swaps, from 32x32 blocks down to single bits; turns 64
 * stored values into their 64 bit planes, the shape of a
 * column-major array.
 */
constexpr void
transpose64(std::uint64_t a[64])
{
    detail::transposeRound<32>(a, 0x00000000FFFFFFFFULL);
    detail::transposeRound<16>(a, 0x0000FFFF0000FFFFULL);
    detail::transposeRound<8>(a, 0x00FF00FF00FF00FFULL);
    detail::transposeRound<4>(a, 0x0F0F0F0F0F0F0F0FULL);
    detail::transposeRound<2>(a, 0x3333333333333333ULL);
    detail::transposeRound<1>(a, 0x5555555555555555ULL);
}

} // namespace rime

#endif // RIME_COMMON_BITOPS_HH
