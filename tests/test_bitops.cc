/**
 * @file Unit tests for the bit-manipulation helpers and for
 * scalar-vs-SIMD equivalence of the bit-plane kernel layer
 * (rimehw/kernels.hh): every kernel table entry point, the BitVector
 * bulk ops, and RramArray::columnSearchInto (including the
 * fault-injected disturb path) must produce bit-identical results
 * with the kernels forced scalar and forced SIMD.  On a host without
 * a SIMD table both modes dispatch scalar and the comparisons are
 * trivially true, so the suite stays portable.  Both modes share the
 * disturb-gather code in RramArray, so the disturb path is also
 * checked against a per-cell oracle built from cell() and
 * FaultModel::disturbWord.
 */

#include <algorithm>
#include <cstdint>
#include <random>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/bitops.hh"
#include "rimehw/array.hh"
#include "rimehw/bitvector.hh"
#include "rimehw/faults.hh"
#include "rimehw/kernels.hh"
#include "rimehw/unit.hh"

using namespace rime;

TEST(BitOps, Bits)
{
    EXPECT_EQ(bits(0xDEADBEEF, 7, 0), 0xEFu);
    EXPECT_EQ(bits(0xDEADBEEF, 15, 8), 0xBEu);
    EXPECT_EQ(bits(0xDEADBEEF, 31, 0), 0xDEADBEEFu);
    EXPECT_EQ(bits(~0ULL, 63, 0), ~0ULL);
}

TEST(BitOps, Bit)
{
    EXPECT_TRUE(bit(0b100, 2));
    EXPECT_FALSE(bit(0b100, 1));
    EXPECT_TRUE(bit(1ULL << 63, 63));
}

TEST(BitOps, InsertBits)
{
    EXPECT_EQ(insertBits(0, 7, 4, 0xF), 0xF0u);
    EXPECT_EQ(insertBits(0xFF, 7, 4, 0x0), 0x0Fu);
    EXPECT_EQ(insertBits(0, 63, 0, ~0ULL), ~0ULL);
}

TEST(BitOps, PowerOfTwo)
{
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(4096));
    EXPECT_FALSE(isPowerOf2(4095));
    EXPECT_TRUE(isPowerOf2(1ULL << 63));
}

TEST(BitOps, Log2)
{
    EXPECT_EQ(ceilLog2(1), 0u);
    EXPECT_EQ(ceilLog2(2), 1u);
    EXPECT_EQ(ceilLog2(3), 2u);
    EXPECT_EQ(ceilLog2(1024), 10u);
    EXPECT_EQ(ceilLog2(1025), 11u);
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(1023), 9u);
    EXPECT_EQ(floorLog2(1024), 10u);
}

TEST(BitOps, Rounding)
{
    EXPECT_EQ(roundUp(0, 64), 0u);
    EXPECT_EQ(roundUp(1, 64), 64u);
    EXPECT_EQ(roundUp(64, 64), 64u);
    EXPECT_EQ(roundDown(65, 64), 64u);
    EXPECT_EQ(roundDown(63, 64), 0u);
}

TEST(BitOps, CommonPrefixLength)
{
    EXPECT_EQ(commonPrefixLength(0, 0, 32), 32u);
    EXPECT_EQ(commonPrefixLength(0b1000, 0b0000, 4), 0u);
    EXPECT_EQ(commonPrefixLength(0b1010, 0b1011, 4), 3u);
    EXPECT_EQ(commonPrefixLength(0b1010, 0b1000, 4), 2u);
    EXPECT_EQ(commonPrefixLength(~0ULL, ~0ULL ^ 1ULL, 64), 63u);
    EXPECT_EQ(commonPrefixLength(1ULL << 63, 0, 64), 0u);
}

TEST(BitOps, Transpose64MatchesPerBitOracle)
{
    std::mt19937_64 rng(64);
    std::vector<std::vector<std::uint64_t>> inputs = {
        std::vector<std::uint64_t>(64, 0),
        std::vector<std::uint64_t>(64, ~0ULL),
    };
    // Single set bits at every corner and on the diagonal.
    for (const auto &[r, c] : std::vector<std::pair<unsigned, unsigned>>{
             {0, 0}, {0, 63}, {63, 0}, {63, 63}, {5, 40}, {40, 5}}) {
        std::vector<std::uint64_t> m(64, 0);
        m[r] = 1ULL << c;
        inputs.push_back(m);
    }
    for (int i = 0; i < 200; ++i) {
        std::vector<std::uint64_t> m(64);
        for (auto &w : m)
            w = rng();
        inputs.push_back(m);
    }
    for (const auto &in : inputs) {
        std::uint64_t a[64];
        std::copy(in.begin(), in.end(), a);
        transpose64(a);
        for (unsigned i = 0; i < 64; ++i) {
            std::uint64_t want = 0;
            for (unsigned j = 0; j < 64; ++j)
                want |= ((in[j] >> i) & 1ULL) << j;
            ASSERT_EQ(a[i], want) << "row " << i;
        }
        // An involution: transposing again restores the input.
        transpose64(a);
        ASSERT_TRUE(std::equal(in.begin(), in.end(), a));
    }
}

// ---------------------------------------------------------------------
// Scalar-vs-SIMD kernel equivalence.
// ---------------------------------------------------------------------

namespace
{

using rimehw::BitVector;
using rimehw::RramArray;
namespace kernels = rimehw::kernels;

/** Restores the RIME_SIMD-selected dispatch when the test exits. */
struct ModeGuard
{
    ~ModeGuard() { kernels::setMode(kernels::envMode()); }
};

std::vector<std::uint64_t>
randomWords(std::mt19937_64 &rng, unsigned n)
{
    std::vector<std::uint64_t> v(n);
    for (auto &w : v)
        w = rng();
    return v;
}

/** Word counts straddling every vector chunk width and its tails. */
const unsigned kWordCounts[] = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 33};

/** Bit widths exercising full words, tail masks, and one word. */
const unsigned kBitSizes[] = {1, 63, 64, 65, 128, 130, 511, 512, 577};

BitVector
randomBits(std::mt19937_64 &rng, unsigned nbits)
{
    BitVector v(nbits);
    for (unsigned w = 0; w < v.numWords(); ++w)
        v.setWord(w, rng());
    // Keep the bits past nbits zero, as every BitVector op does.
    if (nbits & 63)
        v.setWord(v.numWords() - 1,
                  v.word(v.numWords() - 1) &
                      ((1ULL << (nbits & 63)) - 1));
    return v;
}

} // namespace

TEST(SimdKernels, DispatchModes)
{
    ModeGuard guard;
    kernels::setMode(kernels::Mode::Scalar);
    EXPECT_STREQ(kernels::isaName(), "scalar");
    EXPECT_FALSE(kernels::simdEnabled());
    kernels::setMode(kernels::Mode::Simd);
    if (kernels::simdAvailable()) {
        EXPECT_TRUE(kernels::simdEnabled());
        EXPECT_STREQ(kernels::isaName(),
                     kernels::availableIsaName());
    } else {
        EXPECT_FALSE(kernels::simdEnabled());
        EXPECT_STREQ(kernels::isaName(), "scalar");
    }
    kernels::setMode(kernels::Mode::Auto);
    EXPECT_EQ(kernels::simdEnabled(), kernels::simdAvailable());
}

/** Every kernel table entry point, against the scalar table. */
TEST(SimdKernels, TableEntryPointsMatchScalar)
{
    ModeGuard guard;
    kernels::setMode(kernels::Mode::Scalar);
    const kernels::KernelTable &ref = kernels::active();
    kernels::setMode(kernels::Mode::Simd);
    const kernels::KernelTable &simd = kernels::active();

    std::mt19937_64 rng(0x5eed);
    for (const unsigned n : kWordCounts) {
        for (int round = 0; round < 8; ++round) {
            const auto col = randomWords(rng, n);
            const auto disturb = randomWords(rng, n);
            auto select = randomWords(rng, n);
            // Dense selects make anyMatch/anyMismatch nontrivial.
            if (round & 1)
                for (auto &w : select)
                    w |= ~(rng() & rng());

            for (const bool bit : {false, true}) {
                for (const bool faulty : {false, true}) {
                    const std::uint64_t *d =
                        faulty ? disturb.data() : nullptr;
                    std::vector<std::uint64_t> m0(n, 0xAA), m1(n, 0x55);
                    const auto s0 = ref.columnSearch(
                        col.data(), d, select.data(), m0.data(), n,
                        bit);
                    const auto s1 = simd.columnSearch(
                        col.data(), d, select.data(), m1.data(), n,
                        bit);
                    EXPECT_EQ(m0, m1);
                    EXPECT_EQ(s0.anyMatch, s1.anyMatch);
                    EXPECT_EQ(s0.anyMismatch, s1.anyMismatch);
                }
            }

            for (const bool bit : {false, true}) {
                const auto s0 = ref.searchSignals(
                    col.data(), select.data(), n, bit);
                const auto s1 = simd.searchSignals(
                    col.data(), select.data(), n, bit);
                EXPECT_EQ(s0.anyMatch, s1.anyMatch);
                EXPECT_EQ(s0.anyMismatch, s1.anyMismatch);

                auto sel0 = select;
                auto sel1 = select;
                const unsigned c0 = ref.commitSearch(
                    sel0.data(), col.data(), n, bit);
                const unsigned c1 = simd.commitSearch(
                    sel1.data(), col.data(), n, bit);
                EXPECT_EQ(c0, c1);
                EXPECT_EQ(sel0, sel1);

                // The fused pair must reproduce the recorded-match
                // pair: signals equal to columnSearch's, committed
                // select equal to select &= ~match.
                std::vector<std::uint64_t> m(n, 0);
                auto selr = select;
                const auto sr = ref.columnSearch(
                    col.data(), nullptr, select.data(), m.data(), n,
                    bit);
                const unsigned cr = ref.andNotCount(
                    selr.data(), m.data(), n);
                EXPECT_EQ(sr.anyMatch, s0.anyMatch);
                EXPECT_EQ(sr.anyMismatch, s0.anyMismatch);
                EXPECT_EQ(cr, c0);
                EXPECT_EQ(selr, sel0);
            }

            const auto base = randomWords(rng, n);
            const auto mask = randomWords(rng, n);
            auto d0 = randomWords(rng, n);
            auto d1 = d0;

            EXPECT_EQ(ref.andNotCount(d0.data(), mask.data(), n),
                      simd.andNotCount(d1.data(), mask.data(), n));
            EXPECT_EQ(d0, d1);

            EXPECT_EQ(ref.assignAndNotCount(d0.data(), base.data(),
                                            mask.data(), n),
                      simd.assignAndNotCount(d1.data(), base.data(),
                                             mask.data(), n));
            EXPECT_EQ(d0, d1);

            ref.andNot(d0.data(), col.data(), n);
            simd.andNot(d1.data(), col.data(), n);
            EXPECT_EQ(d0, d1);

            EXPECT_EQ(ref.popcount(d0.data(), n),
                      simd.popcount(d1.data(), n));

            const std::uint64_t v = rng();
            ref.fill(d0.data(), v, n);
            simd.fill(d1.data(), v, n);
            EXPECT_EQ(d0, d1);
        }
    }
}

/** BitVector bulk ops, run once per mode on identical inputs. */
TEST(SimdKernels, BitVectorOpsMatchScalar)
{
    ModeGuard guard;
    std::mt19937_64 rng(0xb17);
    for (const unsigned nbits : kBitSizes) {
        for (int round = 0; round < 6; ++round) {
            const auto seed = rng();
            std::mt19937_64 mk0(seed), mk1(seed);
            kernels::setMode(kernels::Mode::Scalar);
            BitVector a0 = randomBits(mk0, nbits);
            BitVector b0 = randomBits(mk0, nbits);
            kernels::setMode(kernels::Mode::Simd);
            BitVector a1 = randomBits(mk1, nbits);
            BitVector b1 = randomBits(mk1, nbits);
            ASSERT_EQ(a0, a1);

            const unsigned begin = static_cast<unsigned>(
                rng() % nbits);
            const unsigned end = begin + static_cast<unsigned>(
                rng() % (nbits - begin + 1));

            const auto run = [&](BitVector &a, BitVector &b,
                                 unsigned *out) {
                a.setRange(begin, end);
                out[0] = a.count();
                a.clearRange(begin / 2, end);
                out[1] = a.count();
                a.andNot(b);
                out[2] = a.andNotCount(b);
                out[3] = a.assignAndNotCount(b, a);
                a.setRange(0, nbits);
                out[4] = a.count();
                a.clearAll();
                out[5] = a.count();
                a = b;
            };

            unsigned c0[6], c1[6];
            kernels::setMode(kernels::Mode::Scalar);
            run(a0, b0, c0);
            kernels::setMode(kernels::Mode::Simd);
            run(a1, b1, c1);
            for (int i = 0; i < 6; ++i)
                EXPECT_EQ(c0[i], c1[i]);
            EXPECT_EQ(a0, a1);
        }
    }
}

/** Column search through RramArray, fault-free. */
TEST(SimdKernels, ColumnSearchMatchesScalar)
{
    ModeGuard guard;
    std::mt19937_64 rng(0xc01);
    RramArray array(512, 64);
    for (unsigned row = 0; row < 512; ++row)
        array.writeRowBits(row, 0, 64, rng());

    for (int round = 0; round < 32; ++round) {
        const unsigned col = static_cast<unsigned>(rng() % 64);
        const bool bit = rng() & 1;
        const auto seed = rng();
        std::mt19937_64 mk0(seed), mk1(seed);

        kernels::setMode(kernels::Mode::Scalar);
        BitVector sel0 = randomBits(mk0, 512);
        BitVector m0(512);
        const auto s0 = array.columnSearchInto(col, bit, sel0, m0);

        kernels::setMode(kernels::Mode::Simd);
        BitVector sel1 = randomBits(mk1, 512);
        BitVector m1(512);
        const auto s1 = array.columnSearchInto(col, bit, sel1, m1);

        EXPECT_EQ(m0, m1);
        EXPECT_EQ(s0.anyMatch, s1.anyMatch);
        EXPECT_EQ(s0.anyMismatch, s1.anyMismatch);
    }
}

/** Column search with transient read disturb injected: the SIMD
 *  path gathers per-word disturb masks and XORs them vectorized;
 *  results must equal the scalar per-word loop in every epoch. */
TEST(SimdKernels, ColumnSearchFaultPathMatchesScalar)
{
    ModeGuard guard;
    rimehw::FaultParams fp;
    fp.seed = 7;
    fp.readDisturbRate = 0.02;
    rimehw::FaultModel faults(fp);

    std::mt19937_64 rng(0xfa01);
    RramArray array(512, 64);
    array.attachFaults(&faults, 3);
    for (unsigned row = 0; row < 512; ++row)
        array.writeRowBits(row, 0, 64, rng());

    for (int round = 0; round < 32; ++round) {
        const unsigned col = static_cast<unsigned>(rng() % 64);
        const bool bit = rng() & 1;
        BitVector sel = randomBits(rng, 512);
        BitVector m0(512), m1(512);

        kernels::setMode(kernels::Mode::Scalar);
        const auto s0 = array.columnSearchInto(col, bit, sel, m0);
        kernels::setMode(kernels::Mode::Simd);
        const auto s1 = array.columnSearchInto(col, bit, sel, m1);

        EXPECT_EQ(m0, m1);
        EXPECT_EQ(s0.anyMatch, s1.anyMatch);
        EXPECT_EQ(s0.anyMismatch, s1.anyMismatch);
        if (round % 4 == 3)
            faults.advanceEpoch();
    }
}

/** Arrays taller than the disturb-gather scratch (16 words) search
 *  in 16-word slices, each through the kernel; the sliced search must
 *  agree between forced-scalar and forced-SIMD tables. */
TEST(SimdKernels, TallFaultyArraySlicedSearchMatchesScalar)
{
    ModeGuard guard;
    rimehw::FaultParams fp;
    fp.seed = 11;
    fp.readDisturbRate = 0.01;
    rimehw::FaultModel faults(fp);

    std::mt19937_64 rng(0x7a11);
    RramArray array(2048, 8); // 32 words per column > 16
    array.attachFaults(&faults, 5);
    for (unsigned row = 0; row < 2048; ++row)
        array.writeRowBits(row, 0, 8, rng() & 0xFF);

    for (int round = 0; round < 8; ++round) {
        const unsigned col = static_cast<unsigned>(rng() % 8);
        const bool bit = rng() & 1;
        BitVector sel = randomBits(rng, 2048);
        BitVector m0(2048), m1(2048);

        kernels::setMode(kernels::Mode::Scalar);
        const auto s0 = array.columnSearchInto(col, bit, sel, m0);
        kernels::setMode(kernels::Mode::Simd);
        const auto s1 = array.columnSearchInto(col, bit, sel, m1);

        EXPECT_EQ(m0, m1);
        EXPECT_EQ(s0.anyMatch, s1.anyMatch);
        EXPECT_EQ(s0.anyMismatch, s1.anyMismatch);
    }
}

/**
 * Read-disturb oracle for columnSearchInto, independent of the
 * kernel layer and of RramArray's disturb gather: each row's sensed
 * bit is cell(row, col) XOR its FaultModel::disturbWord bit, its match
 * is (sensed == search bit) AND selected.  Runs on a one-slice
 * (512-row) and a four-slice (2048-row) array across several epochs,
 * under both kernel tables.
 */
TEST(SimdKernels, DisturbedColumnSearchMatchesCellOracle)
{
    ModeGuard guard;
    rimehw::FaultParams fp;
    fp.seed = 23;
    fp.readDisturbRate = 0.02;
    rimehw::FaultModel faults(fp);
    constexpr std::uint64_t kArrayId = 9;
    constexpr unsigned kCols = 8;

    std::mt19937_64 rng(0x0ac1e);
    for (const unsigned rows : {512u, 2048u}) {
        RramArray array(rows, kCols);
        array.attachFaults(&faults, kArrayId);
        for (unsigned row = 0; row < rows; ++row)
            array.writeRowBits(row, 0, kCols, rng() & 0xFF);

        unsigned disturbed = 0;
        for (int round = 0; round < 24; ++round) {
            if (round % 3 == 2)
                faults.advanceEpoch();
            const unsigned col = static_cast<unsigned>(rng() % kCols);
            const bool bit = rng() & 1;
            // Alternate sparse random selects with full ones.
            BitVector sel = randomBits(rng, rows);
            if (round & 1)
                sel.setRange(0, rows);

            BitVector expect(rows);
            bool any_match = false, any_mismatch = false;
            for (unsigned row = 0; row < rows; ++row) {
                const bool flip = (faults.disturbWord(
                    kArrayId, col, row / 64, faults.epoch()) >>
                    (row % 64)) & 1;
                disturbed += flip;
                const bool sensed = array.cell(row, col) != flip;
                if (!sel.test(row))
                    continue;
                expect.set(row, sensed == bit);
                any_match = any_match || sensed == bit;
                any_mismatch = any_mismatch || sensed != bit;
            }

            for (const auto mode :
                 {kernels::Mode::Scalar, kernels::Mode::Simd}) {
                kernels::setMode(mode);
                BitVector match(rows);
                const auto sig =
                    array.columnSearchInto(col, bit, sel, match);
                EXPECT_EQ(match, expect)
                    << rows << " rows, round " << round << ", "
                    << kernels::isaName();
                EXPECT_EQ(sig.anyMatch, any_match);
                EXPECT_EQ(sig.anyMismatch, any_mismatch);
            }
        }
        // The oracle must have seen disturbed cells, or it checked
        // nothing the fault-free search does not.
        EXPECT_GT(disturbed, 0u) << rows << " rows";
    }
}

/** A full bit-serial scan through ArrayUnit: a recorded unit on the
 *  scalar table against a fused (signals-only) unit on the SIMD
 *  table.  On odd committing steps the fused unit's probe is skipped,
 *  as the chip's early exit skips it; its commit recomputes the match
 *  from the stored column, so every step must still reproduce the
 *  recorded scan's signals (where probed), select vector, and
 *  survivor counts. */
TEST(SimdKernels, FusedUnitScanMatchesRecorded)
{
    ModeGuard guard;
    std::mt19937_64 rng(0xf00d);
    RramArray array(512, 64);
    for (unsigned row = 0; row < 512; ++row)
        array.writeRowBits(row, 0, 32, rng() & 0xFFFFFFFFULL);

    rimehw::ArrayUnit unit0(&array, 0, 32);
    rimehw::ArrayUnit unit1(&array, 0, 32);
    unit0.setRange(0, 512);
    unit1.setRange(0, 512);

    kernels::setMode(kernels::Mode::Scalar);
    const unsigned b0 = unit0.beginExtraction();
    kernels::setMode(kernels::Mode::Simd);
    const unsigned b1 = unit1.beginExtraction();
    ASSERT_EQ(b0, b1);

    unsigned skipped = 0;
    for (unsigned s = 0; s < 32; ++s) {
        const bool bit = rng() & 1;
        kernels::setMode(kernels::Mode::Scalar);
        const auto p0 = unit0.probe(s, bit, /*record=*/true);
        const bool exclude = p0.anyMatch && p0.anyMismatch;
        kernels::setMode(kernels::Mode::Simd);
        if (exclude && (s & 1)) {
            ++skipped;
        } else {
            const auto p1 = unit1.probe(s, bit, /*record=*/false);
            EXPECT_EQ(p0.anyMatch, p1.anyMatch);
            EXPECT_EQ(p0.anyMismatch, p1.anyMismatch);
        }
        if (exclude) {
            kernels::setMode(kernels::Mode::Scalar);
            const unsigned n0 = unit0.commitAndCount(s, bit, true);
            kernels::setMode(kernels::Mode::Simd);
            const unsigned n1 = unit1.commitAndCount(s, bit, false);
            EXPECT_EQ(n0, n1);
        }
        EXPECT_EQ(unit0.select(), unit1.select());
        EXPECT_EQ(unit0.survivorCount(), unit1.survivorCount());
    }
    EXPECT_GT(skipped, 0u);
}
