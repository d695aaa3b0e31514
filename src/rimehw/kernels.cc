/**
 * @file
 * Scalar bit-plane kernels and the runtime dispatcher.
 *
 * The scalar implementations here are the one reference: they define
 * the semantics every ISA variant must reproduce bit for bit, and
 * they are the table RIME_SIMD=0 (or a host without SIMD) runs.
 * Dispatch picks the best table for the host once (RIME_SIMD knob,
 * CPUID) and publishes it through kernels::detail; the hot paths
 * load one pointer, no locks.
 */

#include "rimehw/kernels.hh"

#include <bit>

#include "common/env.hh"
#include "common/logging.hh"

namespace rime::rimehw::kernels
{

namespace
{

SearchSignals
scalarColumnSearch(const std::uint64_t *col, const std::uint64_t *disturb,
                   const std::uint64_t *select, std::uint64_t *match,
                   unsigned nwords, bool search_bit)
{
    std::uint64_t any_match = 0;
    std::uint64_t any_mismatch = 0;
    for (unsigned w = 0; w < nwords; ++w) {
        const std::uint64_t sel = select[w];
        std::uint64_t bits = col[w];
        if (disturb)
            bits ^= disturb[w];
        const std::uint64_t m = sel & (search_bit ? bits : ~bits);
        match[w] = m;
        any_match |= m;
        any_mismatch |= sel & ~m;
    }
    return {any_match != 0, any_mismatch != 0};
}

SearchSignals
scalarSearchSignals(const std::uint64_t *col,
                    const std::uint64_t *select, unsigned nwords,
                    bool search_bit)
{
    std::uint64_t any_match = 0;
    std::uint64_t any_mismatch = 0;
    for (unsigned w = 0; w < nwords; ++w) {
        const std::uint64_t sel = select[w];
        const std::uint64_t m =
            sel & (search_bit ? col[w] : ~col[w]);
        any_match |= m;
        any_mismatch |= sel & ~m;
    }
    return {any_match != 0, any_mismatch != 0};
}

unsigned
scalarCommitSearch(std::uint64_t *select, const std::uint64_t *col,
                   unsigned nwords, bool search_bit)
{
    // select &= ~(select & X) == select &= ~X for any X.
    unsigned count = 0;
    for (unsigned w = 0; w < nwords; ++w) {
        select[w] &= search_bit ? ~col[w] : col[w];
        count += static_cast<unsigned>(std::popcount(select[w]));
    }
    return count;
}

unsigned
scalarAndNotCount(std::uint64_t *dst, const std::uint64_t *mask,
                  unsigned n)
{
    unsigned count = 0;
    for (unsigned i = 0; i < n; ++i) {
        dst[i] &= ~mask[i];
        count += static_cast<unsigned>(std::popcount(dst[i]));
    }
    return count;
}

unsigned
scalarAssignAndNotCount(std::uint64_t *dst, const std::uint64_t *base,
                        const std::uint64_t *mask, unsigned n)
{
    unsigned count = 0;
    for (unsigned i = 0; i < n; ++i) {
        dst[i] = base[i] & ~mask[i];
        count += static_cast<unsigned>(std::popcount(dst[i]));
    }
    return count;
}

void
scalarAndNot(std::uint64_t *dst, const std::uint64_t *mask, unsigned n)
{
    for (unsigned i = 0; i < n; ++i)
        dst[i] &= ~mask[i];
}

unsigned
scalarPopcount(const std::uint64_t *src, unsigned n)
{
    unsigned count = 0;
    for (unsigned i = 0; i < n; ++i)
        count += static_cast<unsigned>(std::popcount(src[i]));
    return count;
}

void
scalarFill(std::uint64_t *dst, std::uint64_t value, unsigned n)
{
    for (unsigned i = 0; i < n; ++i)
        dst[i] = value;
}

constexpr KernelTable kScalarTable = {
    scalarColumnSearch,
    scalarSearchSignals,
    scalarCommitSearch,
    scalarAndNotCount,
    scalarAssignAndNotCount,
    scalarAndNot,
    scalarPopcount,
    scalarFill,
    "scalar",
};

} // namespace

// Defined in kernels_avx2.cc / kernels_neon.cc; return nullptr when
// the variant was not compiled in.
const KernelTable *avx2Table();
const KernelTable *neonTable();

namespace detail
{
constinit const KernelTable *activeTable = &kScalarTable;
constinit bool simdActive = false;
} // namespace detail

namespace
{

/** Best SIMD table this build + host can run, or nullptr. */
const KernelTable *
bestSimdTable()
{
#if defined(__x86_64__) || defined(__i386__)
    if (const KernelTable *t = avx2Table()) {
        if (__builtin_cpu_supports("avx2"))
            return t;
    }
#endif
    if (const KernelTable *t = neonTable())
        return t;
    return nullptr;
}

Mode
parseEnvMode()
{
    const auto value = envString("RIME_SIMD");
    if (!value || *value == "auto")
        return Mode::Auto;
    if (*value == "0")
        return Mode::Scalar;
    if (*value == "1")
        return Mode::Simd;
    fatal("RIME_SIMD='%s' is not one of 0, 1, auto", value->c_str());
}

/** Applies the RIME_SIMD knob before main() runs. */
struct EnvDispatch
{
    EnvDispatch() { setMode(envMode()); }
};
EnvDispatch s_envDispatch;

} // namespace

bool
simdAvailable()
{
    return bestSimdTable() != nullptr;
}

const char *
isaName()
{
    return detail::activeTable->name;
}

const char *
availableIsaName()
{
    const KernelTable *t = bestSimdTable();
    return t ? t->name : "scalar";
}

void
setMode(Mode mode)
{
    if (mode == Mode::Scalar) {
        detail::activeTable = &kScalarTable;
        detail::simdActive = false;
        return;
    }
    const KernelTable *t = bestSimdTable();
    if (!t) {
        if (mode == Mode::Simd)
            warn("RIME_SIMD=1 but this build/host has no SIMD "
                 "kernels; using the scalar path");
        detail::activeTable = &kScalarTable;
        detail::simdActive = false;
        return;
    }
    detail::activeTable = t;
    detail::simdActive = true;
}

Mode
envMode()
{
    static const Mode mode = parseEnvMode();
    return mode;
}

const char *
envModeName()
{
    switch (envMode()) {
      case Mode::Scalar:
        return "0";
      case Mode::Simd:
        return "1";
      case Mode::Auto:
        return "auto";
    }
    return "auto";
}

} // namespace rime::rimehw::kernels
