/**
 * @file
 * Kernel layer for the bit-plane hot loops of the RIME scan path:
 * column search, fused commit+popcount, select-latch load, range
 * fills, and the BitVector bulk ops.
 *
 * Dispatch model: a process-wide table of function pointers
 * (KernelTable) selects between the portable scalar kernels and an
 * ISA-specific variant (AVX2 on x86-64, NEON on aarch64).  The table
 * is chosen once from the RIME_SIMD environment knob --
 *
 *   RIME_SIMD=0     force the scalar kernels
 *   RIME_SIMD=1     require the SIMD kernels (warns and falls back
 *                   to scalar when the host has none)
 *   RIME_SIMD=auto  best available (the default)
 *
 * -- and can be overridden programmatically with setMode() by tests
 * and benches that A/B both paths in one process.  setMode() must
 * only be called while no scan is in flight (single-threaded setup
 * code); the hot paths read the table without synchronization.
 *
 * The table is the only implementation of the bit-plane word loops:
 * BitVector and RramArray call kernels::active() unconditionally.
 * The scalar table is the one reference -- the semantics every ISA
 * variant must reproduce bit for bit, and what the equivalence tests
 * compare the SIMD tables against.  Only RimeChip::runScanSteps
 * reads simdEnabled(), once per scan, to choose between the
 * recorded-match and the fused (signals-only) scan.
 *
 * Alignment contract: BitVector and RramArray allocate their word
 * storage 64-byte aligned (WordVector below) so every kernel operand
 * starts on a cache-line boundary -- one 512-row column is exactly
 * one line.  Kernels must nevertheless use unaligned loads/stores:
 * tests may hand them arbitrary interior pointers, and tail words
 * after the vectorized chunks are processed scalar.  Results must be
 * bit-identical to the scalar loops for every word count, including
 * zero.
 */

#ifndef RIME_RIMEHW_KERNELS_HH
#define RIME_RIMEHW_KERNELS_HH

#include <cstdint>
#include <new>
#include <vector>

namespace rime::rimehw
{

/** Minimal aligned allocator for kernel-operand word storage. */
template <typename T, std::size_t Align>
struct AlignedAlloc
{
    using value_type = T;
    /** Non-type Align defeats allocator_traits' default rebind. */
    template <typename U>
    struct rebind { using other = AlignedAlloc<U, Align>; };

    AlignedAlloc() = default;
    template <typename U>
    AlignedAlloc(const AlignedAlloc<U, Align> &) {}

    T *
    allocate(std::size_t n)
    {
        return static_cast<T *>(::operator new(
            n * sizeof(T), std::align_val_t(Align)));
    }

    void
    deallocate(T *p, std::size_t n)
    {
        ::operator delete(p, n * sizeof(T), std::align_val_t(Align));
    }

    template <typename U>
    bool operator==(const AlignedAlloc<U, Align> &) const
    { return true; }
    template <typename U>
    bool operator!=(const AlignedAlloc<U, Align> &) const
    { return false; }
};

/** 64-byte-aligned word storage for bit-plane data. */
using WordVector =
    std::vector<std::uint64_t, AlignedAlloc<std::uint64_t, 64>>;

namespace kernels
{

/** Wired-OR outcome of one column-search kernel call. */
struct SearchSignals
{
    bool anyMatch = false;
    bool anyMismatch = false;
};

/**
 * One ISA's implementations of the bit-plane kernels.  All word
 * counts may be zero; dst/src ranges never alias partially (they are
 * either disjoint or, for in-place ops, identical by construction).
 */
struct KernelTable
{
    /**
     * Column search: for each word w,
     *   bits  = col[w] ^ (disturb ? disturb[w] : 0)
     *   m     = select[w] & (search_bit ? bits : ~bits)
     *   match[w] = m
     * accumulating anyMatch |= m and anyMismatch |= select[w] & ~m.
     * `disturb` may be null (the fault-free fast case).
     */
    SearchSignals (*columnSearch)(const std::uint64_t *col,
                                  const std::uint64_t *disturb,
                                  const std::uint64_t *select,
                                  std::uint64_t *match,
                                  unsigned nwords, bool search_bit);
    /**
     * Wired-OR signals of a column search without writing the match
     * vector: the probe phase of the fused scan, where the
     * match is recomputed from the column at commit time instead of
     * stored and re-loaded (see commitSearch).  Removes the match
     * vector from the scan's working set entirely.
     */
    SearchSignals (*searchSignals)(const std::uint64_t *col,
                                   const std::uint64_t *select,
                                   unsigned nwords, bool search_bit);
    /**
     * Fused commit against a recomputed match vector:
     *   select[w] &= search_bit ? ~col[w] : col[w]
     * returning popcount(select).  Bit-identical to
     * select &= ~(select & (search_bit ? col : ~col)) -- i.e. to
     * committing the match the preceding searchSignals observed
     * (select unchanged in between, no disturb).
     */
    unsigned (*commitSearch)(std::uint64_t *select,
                             const std::uint64_t *col,
                             unsigned nwords, bool search_bit);
    /** dst &= ~mask, returning popcount(dst) (commit + count). */
    unsigned (*andNotCount)(std::uint64_t *dst,
                            const std::uint64_t *mask, unsigned n);
    /** dst = base & ~mask, returning popcount(dst) (latch load). */
    unsigned (*assignAndNotCount)(std::uint64_t *dst,
                                  const std::uint64_t *base,
                                  const std::uint64_t *mask,
                                  unsigned n);
    /** dst &= ~mask. */
    void (*andNot)(std::uint64_t *dst, const std::uint64_t *mask,
                   unsigned n);
    /** Total set bits of src[0..n). */
    unsigned (*popcount)(const std::uint64_t *src, unsigned n);
    /** dst[0..n) = value (range set/clear body). */
    void (*fill)(std::uint64_t *dst, std::uint64_t value, unsigned n);
    /** Dispatched ISA: "scalar", "avx2", or "neon". */
    const char *name;
};

/** Kernel selection, mirroring the RIME_SIMD values. */
enum class Mode { Scalar, Simd, Auto };

namespace detail
{
/** Active table; constant-initialized to scalar, retargeted by the
 *  RIME_SIMD static initializer or setMode(). */
extern const KernelTable *activeTable;
/** True when activeTable is a SIMD variant. */
extern bool simdActive;
} // namespace detail

/** The dispatched kernel table. */
inline const KernelTable &
active()
{
    return *detail::activeTable;
}

/**
 * True when a SIMD table is dispatched.  RimeChip::runScanSteps
 * runs the fused scan only then.
 */
inline bool
simdEnabled()
{
    return detail::simdActive;
}

/** True when this build + host offer a SIMD kernel table. */
bool simdAvailable();

/** Name of the dispatched ISA ("scalar", "avx2", "neon"). */
const char *isaName();

/** Name of the best ISA this build + host could dispatch. */
const char *availableIsaName();

/**
 * Re-dispatch the kernel table: Scalar forces the reference path,
 * Simd/Auto select the best available variant (scalar when none).
 * Callers must ensure no scan is concurrently in flight.
 */
void setMode(Mode mode);

/** The mode parsed from RIME_SIMD ("0" | "1" | "auto"). */
Mode envMode();

/** The raw RIME_SIMD knob value ("auto" when unset). */
const char *envModeName();

} // namespace kernels

} // namespace rime::rimehw

#endif // RIME_RIMEHW_KERNELS_HH
