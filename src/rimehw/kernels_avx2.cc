/**
 * @file
 * AVX2 bit-plane kernels: 256-bit (4-word) chunks with scalar tails.
 *
 * This translation unit is the only one compiled with -mavx2 (see
 * src/rimehw/CMakeLists.txt); its functions are reached exclusively
 * through the kernel table, which the dispatcher only points here
 * after __builtin_cpu_supports("avx2") confirms the host.  Nothing in
 * this file may be called (or inlined elsewhere) without that check.
 *
 * Popcounts use the classic vpshufb nibble lookup + vpsadbw
 * horizontal sum, which beats four scalar popcnts once the and-not
 * and the store ride in the same 256-bit pass.
 */

#include "rimehw/kernels.hh"

#if defined(__AVX2__)

#include <immintrin.h>

#include <bit>

namespace rime::rimehw::kernels
{

namespace
{

inline __m256i
loadu(const std::uint64_t *p)
{
    return _mm256_loadu_si256(reinterpret_cast<const __m256i *>(p));
}

inline void
storeu(std::uint64_t *p, __m256i v)
{
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(p), v);
}

/** Per-64-bit-lane popcount of v (vpshufb nibble LUT + vpsadbw). */
inline __m256i
popcount64x4(__m256i v)
{
    const __m256i lookup = _mm256_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
    const __m256i low_mask = _mm256_set1_epi8(0x0f);
    const __m256i lo = _mm256_and_si256(v, low_mask);
    const __m256i hi =
        _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
    const __m256i cnt = _mm256_add_epi8(
        _mm256_shuffle_epi8(lookup, lo),
        _mm256_shuffle_epi8(lookup, hi));
    return _mm256_sad_epu8(cnt, _mm256_setzero_si256());
}

/** Sum of the four 64-bit lanes (exact: lane sums are <= 256). */
inline unsigned
hsum64x4(__m256i v)
{
    const __m128i lo = _mm256_castsi256_si128(v);
    const __m128i hi = _mm256_extracti128_si256(v, 1);
    const __m128i s = _mm_add_epi64(lo, hi);
    return static_cast<unsigned>(
        _mm_cvtsi128_si64(s) +
        _mm_cvtsi128_si64(_mm_unpackhi_epi64(s, s)));
}

template <bool WithDisturb>
inline SearchSignals
columnSearchImpl(const std::uint64_t *col, const std::uint64_t *disturb,
                 const std::uint64_t *select, std::uint64_t *match,
                 unsigned nwords, bool search_bit)
{
    // m = sel & (bits ^ inv), inv = all-ones when searching for 0.
    const __m256i inv =
        _mm256_set1_epi64x(search_bit ? 0 : -1);
    __m256i acc_match = _mm256_setzero_si256();
    __m256i acc_mismatch = _mm256_setzero_si256();
    unsigned w = 0;
    for (; w + 4 <= nwords; w += 4) {
        __m256i bits = loadu(col + w);
        if constexpr (WithDisturb)
            bits = _mm256_xor_si256(bits, loadu(disturb + w));
        const __m256i sel = loadu(select + w);
        const __m256i m =
            _mm256_and_si256(sel, _mm256_xor_si256(bits, inv));
        storeu(match + w, m);
        acc_match = _mm256_or_si256(acc_match, m);
        acc_mismatch = _mm256_or_si256(
            acc_mismatch, _mm256_andnot_si256(m, sel));
    }
    std::uint64_t tail_match = 0;
    std::uint64_t tail_mismatch = 0;
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
    SearchSignals signals;
    signals.anyMatch = tail_match != 0 ||
        !_mm256_testz_si256(acc_match, acc_match);
    signals.anyMismatch = tail_mismatch != 0 ||
        !_mm256_testz_si256(acc_mismatch, acc_mismatch);
    return signals;
}

SearchSignals
avx2ColumnSearch(const std::uint64_t *col, const std::uint64_t *disturb,
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
avx2SearchSignals(const std::uint64_t *col,
                  const std::uint64_t *select, unsigned nwords,
                  bool search_bit)
{
    // Pure reduction: no match store, so the probe phase reads two
    // streams and touches no store port.
    const __m256i inv = _mm256_set1_epi64x(search_bit ? 0 : -1);
    __m256i acc_match = _mm256_setzero_si256();
    __m256i acc_mismatch = _mm256_setzero_si256();
    unsigned w = 0;
    for (; w + 4 <= nwords; w += 4) {
        const __m256i sel = loadu(select + w);
        const __m256i m = _mm256_and_si256(
            sel, _mm256_xor_si256(loadu(col + w), inv));
        acc_match = _mm256_or_si256(acc_match, m);
        acc_mismatch = _mm256_or_si256(
            acc_mismatch, _mm256_andnot_si256(m, sel));
    }
    std::uint64_t tail_match = 0;
    std::uint64_t tail_mismatch = 0;
    const std::uint64_t tail_inv = search_bit ? 0 : ~0ULL;
    for (; w < nwords; ++w) {
        const std::uint64_t sel = select[w];
        const std::uint64_t m = sel & (col[w] ^ tail_inv);
        tail_match |= m;
        tail_mismatch |= sel & ~m;
    }
    SearchSignals signals;
    signals.anyMatch = tail_match != 0 ||
        !_mm256_testz_si256(acc_match, acc_match);
    signals.anyMismatch = tail_mismatch != 0 ||
        !_mm256_testz_si256(acc_mismatch, acc_mismatch);
    return signals;
}

unsigned
avx2CommitSearch(std::uint64_t *select, const std::uint64_t *col,
                 unsigned nwords, bool search_bit)
{
    // select &= (search_bit ? ~col : col): xor with all-ones
    // complements, so reuse the inv trick with flipped polarity.
    const __m256i inv = _mm256_set1_epi64x(search_bit ? -1 : 0);
    __m256i acc = _mm256_setzero_si256();
    unsigned w = 0;
    for (; w + 4 <= nwords; w += 4) {
        const __m256i v = _mm256_and_si256(
            loadu(select + w),
            _mm256_xor_si256(loadu(col + w), inv));
        storeu(select + w, v);
        acc = _mm256_add_epi64(acc, popcount64x4(v));
    }
    unsigned count = hsum64x4(acc);
    const std::uint64_t tail_inv = search_bit ? ~0ULL : 0;
    for (; w < nwords; ++w) {
        select[w] &= col[w] ^ tail_inv;
        count += static_cast<unsigned>(std::popcount(select[w]));
    }
    return count;
}

unsigned
avx2AndNotCount(std::uint64_t *dst, const std::uint64_t *mask,
                unsigned n)
{
    __m256i acc = _mm256_setzero_si256();
    unsigned i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i v =
            _mm256_andnot_si256(loadu(mask + i), loadu(dst + i));
        storeu(dst + i, v);
        acc = _mm256_add_epi64(acc, popcount64x4(v));
    }
    unsigned count = hsum64x4(acc);
    for (; i < n; ++i) {
        dst[i] &= ~mask[i];
        count += static_cast<unsigned>(std::popcount(dst[i]));
    }
    return count;
}

unsigned
avx2AssignAndNotCount(std::uint64_t *dst, const std::uint64_t *base,
                      const std::uint64_t *mask, unsigned n)
{
    __m256i acc = _mm256_setzero_si256();
    unsigned i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i v =
            _mm256_andnot_si256(loadu(mask + i), loadu(base + i));
        storeu(dst + i, v);
        acc = _mm256_add_epi64(acc, popcount64x4(v));
    }
    unsigned count = hsum64x4(acc);
    for (; i < n; ++i) {
        dst[i] = base[i] & ~mask[i];
        count += static_cast<unsigned>(std::popcount(dst[i]));
    }
    return count;
}

void
avx2AndNot(std::uint64_t *dst, const std::uint64_t *mask, unsigned n)
{
    unsigned i = 0;
    for (; i + 4 <= n; i += 4)
        storeu(dst + i,
               _mm256_andnot_si256(loadu(mask + i), loadu(dst + i)));
    for (; i < n; ++i)
        dst[i] &= ~mask[i];
}

unsigned
avx2Popcount(const std::uint64_t *src, unsigned n)
{
    __m256i acc = _mm256_setzero_si256();
    unsigned i = 0;
    for (; i + 4 <= n; i += 4)
        acc = _mm256_add_epi64(acc, popcount64x4(loadu(src + i)));
    unsigned count = hsum64x4(acc);
    for (; i < n; ++i)
        count += static_cast<unsigned>(std::popcount(src[i]));
    return count;
}

void
avx2Fill(std::uint64_t *dst, std::uint64_t value, unsigned n)
{
    const __m256i v = _mm256_set1_epi64x(
        static_cast<long long>(value));
    unsigned i = 0;
    for (; i + 4 <= n; i += 4)
        storeu(dst + i, v);
    for (; i < n; ++i)
        dst[i] = value;
}

constexpr KernelTable kAvx2Table = {
    avx2ColumnSearch,
    avx2SearchSignals,
    avx2CommitSearch,
    avx2AndNotCount,
    avx2AssignAndNotCount,
    avx2AndNot,
    avx2Popcount,
    avx2Fill,
    "avx2",
};

} // namespace

const KernelTable *
avx2Table()
{
    return &kAvx2Table;
}

} // namespace rime::rimehw::kernels

#else // !defined(__AVX2__)

namespace rime::rimehw::kernels
{

const KernelTable *
avx2Table()
{
    return nullptr;
}

} // namespace rime::rimehw::kernels

#endif // defined(__AVX2__)
