/**
 * @file
 * NEON bit-plane kernels: 128-bit (2-word) chunks, unrolled to four
 * words per iteration, with scalar tails.
 *
 * NEON is architecturally guaranteed on aarch64, so no runtime CPU
 * probe is needed: compiling for aarch64 is the dispatch condition.
 * Popcounts use vcntq_u8 + pairwise widening adds, the standard
 * AArch64 idiom.  Semantics are bit-identical to the scalar kernels
 * in kernels.cc for every word count.
 */

#include "rimehw/kernels.hh"

#if defined(__aarch64__) && defined(__ARM_NEON)

#include <arm_neon.h>

#include <bit>

namespace rime::rimehw::kernels
{

namespace
{

inline uint64x2_t
loadw(const std::uint64_t *p)
{
    return vld1q_u64(p);
}

inline void
storew(std::uint64_t *p, uint64x2_t v)
{
    vst1q_u64(p, v);
}

/** Total set bits of the two 64-bit lanes. */
inline std::uint64_t
popcount128(uint64x2_t v)
{
    const uint8x16_t cnt = vcntq_u8(vreinterpretq_u8_u64(v));
    return vaddvq_u8(cnt);
}

template <bool WithDisturb>
inline SearchSignals
columnSearchImpl(const std::uint64_t *col, const std::uint64_t *disturb,
                 const std::uint64_t *select, std::uint64_t *match,
                 unsigned nwords, bool search_bit)
{
    const uint64x2_t inv = vdupq_n_u64(search_bit ? 0 : ~0ULL);
    uint64x2_t acc_match = vdupq_n_u64(0);
    uint64x2_t acc_mismatch = vdupq_n_u64(0);
    unsigned w = 0;
    for (; w + 2 <= nwords; w += 2) {
        uint64x2_t bits = loadw(col + w);
        if constexpr (WithDisturb)
            bits = veorq_u64(bits, loadw(disturb + w));
        const uint64x2_t sel = loadw(select + w);
        const uint64x2_t m = vandq_u64(sel, veorq_u64(bits, inv));
        storew(match + w, m);
        acc_match = vorrq_u64(acc_match, m);
        acc_mismatch = vorrq_u64(acc_mismatch,
                                 vbicq_u64(sel, m));
    }
    std::uint64_t tail_match =
        vgetq_lane_u64(acc_match, 0) | vgetq_lane_u64(acc_match, 1);
    std::uint64_t tail_mismatch = vgetq_lane_u64(acc_mismatch, 0) |
        vgetq_lane_u64(acc_mismatch, 1);
    const std::uint64_t tail_inv = search_bit ? 0 : ~0ULL;
    for (; w < nwords; ++w) {
        std::uint64_t bits = col[w];
        if constexpr (WithDisturb)
            bits ^= disturb[w];
        const std::uint64_t sel = select[w];
        const std::uint64_t m = sel & (bits ^ tail_inv);
        match[w] = m;
        tail_match |= m;
        tail_mismatch |= sel & ~m;
    }
    return {tail_match != 0, tail_mismatch != 0};
}

SearchSignals
neonColumnSearch(const std::uint64_t *col, const std::uint64_t *disturb,
                 const std::uint64_t *select, std::uint64_t *match,
                 unsigned nwords, bool search_bit)
{
    if (disturb) {
        return columnSearchImpl<true>(col, disturb, select, match,
                                      nwords, search_bit);
    }
    return columnSearchImpl<false>(col, nullptr, select, match,
                                   nwords, search_bit);
}

SearchSignals
neonSearchSignals(const std::uint64_t *col,
                  const std::uint64_t *select, unsigned nwords,
                  bool search_bit)
{
    const uint64x2_t inv = vdupq_n_u64(search_bit ? 0 : ~0ULL);
    uint64x2_t acc_match = vdupq_n_u64(0);
    uint64x2_t acc_mismatch = vdupq_n_u64(0);
    unsigned w = 0;
    for (; w + 2 <= nwords; w += 2) {
        const uint64x2_t sel = loadw(select + w);
        const uint64x2_t m =
            vandq_u64(sel, veorq_u64(loadw(col + w), inv));
        acc_match = vorrq_u64(acc_match, m);
        acc_mismatch = vorrq_u64(acc_mismatch, vbicq_u64(sel, m));
    }
    std::uint64_t tail_match =
        vgetq_lane_u64(acc_match, 0) | vgetq_lane_u64(acc_match, 1);
    std::uint64_t tail_mismatch = vgetq_lane_u64(acc_mismatch, 0) |
        vgetq_lane_u64(acc_mismatch, 1);
    const std::uint64_t tail_inv = search_bit ? 0 : ~0ULL;
    for (; w < nwords; ++w) {
        const std::uint64_t sel = select[w];
        const std::uint64_t m = sel & (col[w] ^ tail_inv);
        tail_match |= m;
        tail_mismatch |= sel & ~m;
    }
    return {tail_match != 0, tail_mismatch != 0};
}

unsigned
neonCommitSearch(std::uint64_t *select, const std::uint64_t *col,
                 unsigned nwords, bool search_bit)
{
    const uint64x2_t inv = vdupq_n_u64(search_bit ? ~0ULL : 0);
    std::uint64_t count = 0;
    unsigned w = 0;
    for (; w + 2 <= nwords; w += 2) {
        const uint64x2_t v =
            vandq_u64(loadw(select + w),
                      veorq_u64(loadw(col + w), inv));
        storew(select + w, v);
        count += popcount128(v);
    }
    const std::uint64_t tail_inv = search_bit ? ~0ULL : 0;
    for (; w < nwords; ++w) {
        select[w] &= col[w] ^ tail_inv;
        count += static_cast<unsigned>(std::popcount(select[w]));
    }
    return static_cast<unsigned>(count);
}

unsigned
neonAndNotCount(std::uint64_t *dst, const std::uint64_t *mask,
                unsigned n)
{
    std::uint64_t count = 0;
    unsigned i = 0;
    for (; i + 2 <= n; i += 2) {
        const uint64x2_t v = vbicq_u64(loadw(dst + i),
                                       loadw(mask + i));
        storew(dst + i, v);
        count += popcount128(v);
    }
    for (; i < n; ++i) {
        dst[i] &= ~mask[i];
        count += static_cast<unsigned>(std::popcount(dst[i]));
    }
    return static_cast<unsigned>(count);
}

unsigned
neonAssignAndNotCount(std::uint64_t *dst, const std::uint64_t *base,
                      const std::uint64_t *mask, unsigned n)
{
    std::uint64_t count = 0;
    unsigned i = 0;
    for (; i + 2 <= n; i += 2) {
        const uint64x2_t v = vbicq_u64(loadw(base + i),
                                       loadw(mask + i));
        storew(dst + i, v);
        count += popcount128(v);
    }
    for (; i < n; ++i) {
        dst[i] = base[i] & ~mask[i];
        count += static_cast<unsigned>(std::popcount(dst[i]));
    }
    return static_cast<unsigned>(count);
}

void
neonAndNot(std::uint64_t *dst, const std::uint64_t *mask, unsigned n)
{
    unsigned i = 0;
    for (; i + 2 <= n; i += 2)
        storew(dst + i, vbicq_u64(loadw(dst + i), loadw(mask + i)));
    for (; i < n; ++i)
        dst[i] &= ~mask[i];
}

unsigned
neonPopcount(const std::uint64_t *src, unsigned n)
{
    std::uint64_t count = 0;
    unsigned i = 0;
    for (; i + 2 <= n; i += 2)
        count += popcount128(loadw(src + i));
    for (; i < n; ++i)
        count += static_cast<unsigned>(std::popcount(src[i]));
    return static_cast<unsigned>(count);
}

void
neonFill(std::uint64_t *dst, std::uint64_t value, unsigned n)
{
    const uint64x2_t v = vdupq_n_u64(value);
    unsigned i = 0;
    for (; i + 2 <= n; i += 2)
        storew(dst + i, v);
    for (; i < n; ++i)
        dst[i] = value;
}

constexpr KernelTable kNeonTable = {
    neonColumnSearch,
    neonSearchSignals,
    neonCommitSearch,
    neonAndNotCount,
    neonAssignAndNotCount,
    neonAndNot,
    neonPopcount,
    neonFill,
    "neon",
};

} // namespace

const KernelTable *
neonTable()
{
    return &kNeonTable;
}

} // namespace rime::rimehw::kernels

#else // !aarch64 NEON

namespace rime::rimehw::kernels
{

const KernelTable *
neonTable()
{
    return nullptr;
}

} // namespace rime::rimehw::kernels

#endif // aarch64 NEON
