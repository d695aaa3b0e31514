/**
 * @file
 * The executable-specification tests of the bit-level RIME chip:
 *
 *  - repeated min extraction equals a stable ascending sort of the
 *    decoded values (ties by lowest address), in all three data-type
 *    modes;
 *  - the chip agrees with the direct Algorithm-1 transcription
 *    (tests/reference.hh), including step counts;
 *  - multi-unit (multi-mat) exclusion never loses a value;
 *  - exclusion latches persist across scans and reset on initRange;
 *  - a bulk load (writeValues) leaves the cells, stats, energy and
 *    wear of a writeValue loop, on perfect and faulty chips.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "rimehw/chip.hh"
#include "reference.hh"

using namespace rime;
using namespace rime::rimehw;

namespace
{

/** Small geometry so tests cross unit/mat boundaries quickly. */
RimeGeometry
tinyGeometry()
{
    RimeGeometry g;
    g.chipsPerChannel = 1;
    g.banksPerChip = 2;
    g.subbanksPerBank = 4;
    g.arraysPerMat = 2;
    g.arrayRows = 8;
    g.arrayCols = 64;
    return g;
}

std::vector<std::uint64_t>
randomRaws(std::size_t n, unsigned k, std::uint64_t seed)
{
    Rng rng(seed);
    const std::uint64_t mask = k >= 64 ? ~0ULL : (1ULL << k) - 1;
    std::vector<std::uint64_t> raws(n);
    for (auto &r : raws)
        r = rng() & mask;
    return raws;
}

/** Expected extraction order: stable sort by encoded key. */
std::vector<std::size_t>
expectedOrder(const std::vector<std::uint64_t> &raws, unsigned k,
              KeyMode mode, bool find_max)
{
    std::vector<std::size_t> idx(raws.size());
    std::iota(idx.begin(), idx.end(), 0);
    std::stable_sort(idx.begin(), idx.end(),
        [&](std::size_t a, std::size_t b) {
            const auto ea = encodeKey(raws[a], k, mode);
            const auto eb = encodeKey(raws[b], k, mode);
            if (ea != eb)
                return find_max ? ea > eb : ea < eb;
            return a < b; // priority to smaller indices
        });
    return idx;
}

struct ModeCase
{
    KeyMode mode;
    unsigned k;
};

class ChipSortTest : public ::testing::TestWithParam<ModeCase>
{};

} // namespace

TEST_P(ChipSortTest, RepeatedMinIsStableSort)
{
    const auto [mode, k] = GetParam();
    RimeChip chip(tinyGeometry());
    chip.configure(k, mode);

    const std::size_t n = std::min<std::size_t>(
        100, chip.valueCapacity()); // spans several units
    auto raws = randomRaws(n, k, 1000 + k);
    for (std::size_t i = 0; i < n; ++i)
        chip.writeValue(i, raws[i]);
    chip.initRange(0, n);

    const auto expect = expectedOrder(raws, k, mode, false);
    for (std::size_t i = 0; i < n; ++i) {
        const auto r = chip.extract(0, n, false);
        ASSERT_TRUE(r.found) << "extraction " << i;
        EXPECT_EQ(r.index, expect[i]) << "extraction " << i;
        EXPECT_EQ(r.raw, raws[expect[i]]);
    }
    EXPECT_FALSE(chip.extract(0, n, false).found);
}

TEST_P(ChipSortTest, RepeatedMaxIsStableDescendingSort)
{
    const auto [mode, k] = GetParam();
    RimeChip chip(tinyGeometry());
    chip.configure(k, mode);

    const std::size_t n = std::min<std::size_t>(
        60, chip.valueCapacity());
    auto raws = randomRaws(n, k, 2000 + k);
    for (std::size_t i = 0; i < n; ++i)
        chip.writeValue(i, raws[i]);
    chip.initRange(0, n);

    const auto expect = expectedOrder(raws, k, mode, true);
    for (std::size_t i = 0; i < n; ++i) {
        const auto r = chip.extract(0, n, true);
        ASSERT_TRUE(r.found);
        EXPECT_EQ(r.index, expect[i]) << "extraction " << i;
    }
}

TEST_P(ChipSortTest, AgreesWithReferenceAlgorithm)
{
    const auto [mode, k] = GetParam();
    RimeChip chip(tinyGeometry());
    chip.configure(k, mode);

    const std::size_t n = 40;
    auto raws = randomRaws(n, k, 3000 + k);
    // Insert duplicates to exercise the tie path.
    raws[7] = raws[3];
    raws[21] = raws[3];
    for (std::size_t i = 0; i < n; ++i)
        chip.writeValue(i, raws[i]);
    chip.initRange(0, n);

    std::vector<bool> alive(n, true);
    for (std::size_t i = 0; i < n; ++i) {
        const auto expect = referenceMinMax(raws, alive, k, mode,
                                            false);
        const auto got = chip.extract(0, n, false);
        ASSERT_TRUE(got.found);
        ASSERT_TRUE(expect.found);
        EXPECT_EQ(got.index, expect.index);
        EXPECT_EQ(got.raw, expect.raw);
        alive[expect.index] = false;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, ChipSortTest,
    ::testing::Values(ModeCase{KeyMode::UnsignedFixed, 8},
                      ModeCase{KeyMode::UnsignedFixed, 16},
                      ModeCase{KeyMode::UnsignedFixed, 32},
                      ModeCase{KeyMode::UnsignedFixed, 64},
                      ModeCase{KeyMode::SignedFixed, 8},
                      ModeCase{KeyMode::SignedFixed, 16},
                      ModeCase{KeyMode::SignedFixed, 32},
                      ModeCase{KeyMode::Float, 32},
                      ModeCase{KeyMode::Float, 64}),
    [](const auto &info) {
        return std::string(keyModeName(info.param.mode) ==
                           std::string("unsigned-fixed") ? "U"
                           : keyModeName(info.param.mode) ==
                             std::string("signed-fixed") ? "S" : "F") +
            std::to_string(info.param.k);
    });

TEST(ChipFloat, NegativeFloatsFollowFigure5)
{
    // The worked example of Figure 5: an 8-bit float-like format with
    // 3 exponent and 4 mantissa bits; min of {18.0, -1.625, -0.75}
    // must be -1.625 (largest magnitude among the negatives).
    RimeChip chip(tinyGeometry());
    chip.configure(8, KeyMode::Float);
    // Patterns from the paper's figure.
    const std::uint64_t v18 = 0b01110001;   // 18.0
    const std::uint64_t vm1625 = 0b10111010; // -1.625
    const std::uint64_t vm075 = 0b10101000;  // -0.75
    chip.writeValue(0, v18);
    chip.writeValue(1, vm1625);
    chip.writeValue(2, vm075);
    chip.initRange(0, 3);

    auto r = chip.extract(0, 3, false);
    ASSERT_TRUE(r.found);
    EXPECT_EQ(r.raw, vm1625);
    r = chip.extract(0, 3, false);
    ASSERT_TRUE(r.found);
    EXPECT_EQ(r.raw, vm075);
    r = chip.extract(0, 3, false);
    ASSERT_TRUE(r.found);
    EXPECT_EQ(r.raw, v18);
}

TEST(ChipFixed, Figure4Example)
{
    // Figure 4: unsigned fixed point alpha=3, beta=2; the minimum of
    // {4.00, 1.75, 1.25, 1.00, 6.50} is 1.00 (pattern 00100).
    RimeChip chip(tinyGeometry());
    chip.configure(8, KeyMode::UnsignedFixed); // pad 5-bit to 8
    const std::uint64_t raws[] = {0b10000, 0b00111, 0b00101, 0b00100,
                                  0b11010};
    for (std::size_t i = 0; i < 5; ++i)
        chip.writeValue(i, raws[i]);
    chip.initRange(0, 5);
    const auto r = chip.extract(0, 5, false);
    ASSERT_TRUE(r.found);
    EXPECT_EQ(r.raw, 0b00100u);
    EXPECT_EQ(r.index, 3u);
}

TEST(ChipRange, SubRangeAndReInit)
{
    RimeChip chip(tinyGeometry());
    chip.configure(16, KeyMode::UnsignedFixed);
    const std::size_t n = 32;
    auto raws = randomRaws(n, 16, 99);
    for (std::size_t i = 0; i < n; ++i)
        chip.writeValue(i, raws[i]);

    // Min over [8, 24) only.
    chip.initRange(8, 24);
    const auto r = chip.extract(8, 24, false);
    ASSERT_TRUE(r.found);
    const auto begin = raws.begin() + 8;
    const auto end = raws.begin() + 24;
    EXPECT_EQ(r.raw, *std::min_element(begin, end));
    EXPECT_GE(r.index, 8u);
    EXPECT_LT(r.index, 24u);

    // Exclusions persist until re-init.
    EXPECT_EQ(chip.remainingInRange(8, 24), 15u);
    chip.initRange(8, 24);
    EXPECT_EQ(chip.remainingInRange(8, 24), 16u);
    const auto r2 = chip.extract(8, 24, false);
    ASSERT_TRUE(r2.found);
    EXPECT_EQ(r2.raw, r.raw);
    EXPECT_EQ(r2.index, r.index);
}

TEST(ChipRange, ConcurrentDisjointRanges)
{
    RimeChip chip(tinyGeometry());
    chip.configure(16, KeyMode::UnsignedFixed);
    auto raws = randomRaws(64, 16, 123);
    for (std::size_t i = 0; i < raws.size(); ++i)
        chip.writeValue(i, raws[i]);
    chip.initRange(0, 24);
    chip.initRange(24, 64);

    // Alternate extractions from the two ranges; each must see its
    // own ordered stream.
    auto exp_a = expectedOrder({raws.begin(), raws.begin() + 24}, 16,
                               KeyMode::UnsignedFixed, false);
    std::vector<std::uint64_t> b_raws(raws.begin() + 24, raws.end());
    auto exp_b = expectedOrder(b_raws, 16, KeyMode::UnsignedFixed,
                               false);
    for (std::size_t i = 0; i < 24; ++i) {
        const auto ra = chip.extract(0, 24, false);
        ASSERT_TRUE(ra.found);
        EXPECT_EQ(ra.index, exp_a[i]);
        const auto rb = chip.extract(24, 64, false);
        ASSERT_TRUE(rb.found);
        EXPECT_EQ(rb.index, exp_b[i] + 24);
    }
}

TEST(ChipScan, ScanIsPureUntilExcluded)
{
    RimeChip chip(tinyGeometry());
    chip.configure(16, KeyMode::UnsignedFixed);
    auto raws = randomRaws(10, 16, 5);
    for (std::size_t i = 0; i < raws.size(); ++i)
        chip.writeValue(i, raws[i]);
    chip.initRange(0, 10);

    const auto s1 = chip.scan(0, 10, false);
    const auto s2 = chip.scan(0, 10, false);
    ASSERT_TRUE(s1.found);
    EXPECT_EQ(s1.index, s2.index);
    EXPECT_EQ(s1.raw, s2.raw);
    chip.exclude(0, 10, s1.index);
    const auto s3 = chip.scan(0, 10, false);
    ASSERT_TRUE(s3.found);
    EXPECT_NE(s3.index, s1.index);
}

TEST(ChipWear, SortPerformsNoCellWrites)
{
    // Section VII-C: RIME sorting does not swap data, so the only
    // cell writes are the initial loads.
    RimeChip chip(tinyGeometry());
    chip.configure(16, KeyMode::UnsignedFixed);
    auto raws = randomRaws(50, 16, 6);
    for (std::size_t i = 0; i < raws.size(); ++i)
        chip.writeValue(i, raws[i]);
    const auto writes_after_load = chip.endurance().totalWrites();
    chip.initRange(0, 50);
    for (int i = 0; i < 50; ++i)
        ASSERT_TRUE(chip.extract(0, 50, false).found);
    EXPECT_EQ(chip.endurance().totalWrites(), writes_after_load);
}

TEST(ChipTiming, StepsAndTimeAccounting)
{
    RimeChip chip(tinyGeometry());
    chip.configure(32, KeyMode::UnsignedFixed);
    chip.writeValue(0, 5);
    chip.writeValue(1, 5);
    chip.initRange(0, 2);
    // Two equal values: the scan cannot disambiguate and runs all 32
    // steps; priority encoding returns index 0.
    auto r = chip.extract(0, 2, false);
    ASSERT_TRUE(r.found);
    EXPECT_EQ(r.index, 0u);
    EXPECT_EQ(r.steps, 32u);
    // One survivor left: zero scan steps.
    r = chip.extract(0, 2, false);
    ASSERT_TRUE(r.found);
    EXPECT_EQ(r.index, 1u);
    EXPECT_EQ(r.steps, 0u);
    EXPECT_EQ(r.time, chip.timing().tRead);
}

namespace
{

/**
 * Two chips after the same stores, bit for bit: every stored value,
 * every deterministic counter (energy included), the repair summary
 * and the endurance tracker down to each block.
 */
void
expectSameChipState(RimeChip &a, RimeChip &b)
{
    const std::uint64_t values = a.valueCapacity();
    for (std::uint64_t i = 0; i < values; ++i)
        ASSERT_EQ(a.peekValue(i), b.peekValue(i)) << "value " << i;
    ASSERT_EQ(a.stats().values().size(), b.stats().values().size());
    for (const auto &[name, v] : a.stats().values()) {
        if (isHostDependentStat(name))
            continue;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(v),
                  std::bit_cast<std::uint64_t>(b.stats().get(name)))
            << name << ": " << v << " vs " << b.stats().get(name);
    }
    const HealthCounts ha = a.healthCounts(), hb = b.healthCounts();
    EXPECT_EQ(ha.degradedUnits, hb.degradedUnits);
    EXPECT_EQ(ha.retiredUnits, hb.retiredUnits);
    EXPECT_EQ(ha.deadUnits, hb.deadUnits);
    EXPECT_EQ(ha.remappedRows, hb.remappedRows);
    EXPECT_EQ(ha.lostValues, hb.lostValues);
    const EnduranceTracker &ea = a.endurance(), &eb = b.endurance();
    EXPECT_EQ(ea.totalWrites(), eb.totalWrites());
    EXPECT_EQ(ea.maxBlockWrites(), eb.maxBlockWrites());
    EXPECT_EQ(ea.touchedBlocks(), eb.touchedBlocks());
    const std::uint64_t bytes = values * ((a.wordBits() + 7) / 8);
    for (std::uint64_t off = 0; off < bytes; off += 512)
        EXPECT_EQ(ea.blockWrites(off), eb.blockWrites(off))
            << "block at byte " << off;
}

/** Extract [lo, hi) to exhaustion on both chips, result by result. */
void
expectSameExtractions(RimeChip &a, RimeChip &b, std::uint64_t lo,
                      std::uint64_t hi, bool find_max)
{
    for (;;) {
        const ExtractResult ra = a.extract(lo, hi, find_max);
        const ExtractResult rb = b.extract(lo, hi, find_max);
        ASSERT_EQ(ra.found, rb.found);
        ASSERT_EQ(ra.status, rb.status);
        if (!ra.found)
            return;
        ASSERT_EQ(ra.raw, rb.raw);
        ASSERT_EQ(ra.index, rb.index);
        ASSERT_EQ(ra.steps, rb.steps);
        ASSERT_EQ(ra.time, rb.time);
    }
}

/**
 * Store `n` values at `start` on both chips, the i-th from
 * src[i * stride]: one writeValues run on `bulk`, a writeValue loop
 * on `loop`.
 */
void
storeBoth(RimeChip &bulk, RimeChip &loop, std::uint64_t start,
          const std::uint64_t *src, std::uint64_t n, std::size_t stride)
{
    bulk.writeValues(start, src, n, stride);
    for (std::uint64_t i = 0; i < n; ++i)
        loop.writeValue(start + i, src[i * stride]);
}

} // namespace

TEST(RimeChip, BulkLoadMatchesWriteValueLoop)
{
    // A device interleaves values over its chips, so each chip reads
    // its run at a stride of the chip count (RimeDevice::loadValues).
    constexpr std::size_t kChips = 3;
    // At least three slots per row over 2 x 2 subarrays, so runs
    // cross unit and subarray boundaries; the column count also fits
    // the 32-bit width the chip is built with.  512 rows fill whole
    // 64-row words; 200 leave a partial last word.  An inexact binary
    // fraction makes the energy sum depend on how it is accumulated.
    for (const unsigned rows : {512u, 200u}) {
        for (const unsigned k : {8u, 13u, 24u, 32u, 64u}) {
            SCOPED_TRACE("rows " + std::to_string(rows) + " k " +
                         std::to_string(k));
            RimeGeometry g;
            g.banksPerChip = 2;
            g.subbanksPerBank = 2;
            g.arrayRows = rows;
            g.arrayCols = std::lcm(32u, k);
            while (g.arrayCols / k < 3)
                g.arrayCols *= 2;
            RimeTimingParams t;
            t.writeEnergy = 2600.1;
            RimeChip bulk(g, t, 1), loop(g, t, 1);
            bulk.configure(k, KeyMode::UnsignedFixed);
            loop.configure(k, KeyMode::UnsignedFixed);
            const std::uint64_t cap = bulk.valueCapacity();
            const std::uint64_t array_values =
                std::uint64_t(g.arrayCols / k) * rows;
            ASSERT_EQ(cap, 4 * array_values);
            // Unmasked 64-bit sources: the chips keep the low k bits.
            Rng rng(700 + k + rows);
            const auto source = [&](std::uint64_t n) {
                std::vector<std::uint64_t> src(n * kChips);
                for (auto &v : src)
                    v = rng();
                return src;
            };

            // The whole chip as one run, from a non-zero source phase.
            const auto fill = source(cap);
            storeBoth(bulk, loop, 0, fill.data() + 1, cap, kChips);
            expectSameChipState(bulk, loop);
            if (HasFatalFailure())
                return;

            // A built operation (one value extracted) and an
            // initialized one, both overlapped by the overwrites.
            const std::uint64_t built_lo = cap / 2, built_hi = cap;
            const std::uint64_t idle_lo = rows / 3, idle_hi = rows + 9;
            for (RimeChip *c : {&bulk, &loop}) {
                c->initRange(built_lo, built_hi);
                c->initRange(idle_lo, idle_hi);
                ASSERT_TRUE(c->extract(built_lo, built_hi).found);
            }

            // Overwrites off the 64-row grid: inside one word, head
            // and tail partial words, across two units and a subarray
            // boundary, one row each side of a subarray boundary, and
            // up to the end of the chip.  Neighbouring rows must keep
            // their values.
            const std::vector<std::pair<std::uint64_t, std::uint64_t>>
                runs = {{5, 3}, {65, 126}, {rows - 37, 2 * rows + 75},
                        {array_values - 1, 2}, {cap - 70, 70},
                        {130, 1}};
            for (const auto &[start, n] : runs) {
                SCOPED_TRACE("run at " + std::to_string(start) +
                             " of " + std::to_string(n));
                const auto src = source(n);
                storeBoth(bulk, loop, start, src.data() + 2, n, kChips);
                expectSameChipState(bulk, loop);
                if (HasFatalFailure())
                    return;
            }

            // The scans that follow see the same cells.
            expectSameExtractions(bulk, loop, built_lo, built_hi, false);
            expectSameExtractions(bulk, loop, idle_lo, idle_hi, true);
            expectSameChipState(bulk, loop);
            if (HasFatalFailure())
                return;

            // A run past the end is refused before any cell changes.
            EXPECT_THROW(bulk.writeValues(cap - 1, fill.data(), 2, 1),
                         FatalError);
            EXPECT_THROW(bulk.writeValues(cap, fill.data(), 1, 1),
                         FatalError);
            expectSameChipState(bulk, loop);
            if (HasFatalFailure())
                return;
        }
    }

    // A chip with a fault model writes every value verified, so the
    // bulk run repairs (and counts) exactly what the loop does.
    FaultParams f;
    f.seed = 17;
    f.stuckAt0Rate = 5e-4;
    f.stuckAt1Rate = 5e-4;
    RimeGeometry g;
    g.banksPerChip = 2;
    g.subbanksPerBank = 2;
    RimeChip bulk(g, RimeTimingParams{}, 1, f);
    RimeChip loop(g, RimeTimingParams{}, 1, f);
    bulk.configure(32, KeyMode::UnsignedFixed);
    loop.configure(32, KeyMode::UnsignedFixed);
    const std::uint64_t cap = bulk.valueCapacity();
    std::vector<std::uint64_t> src(cap * kChips);
    Rng rng(99);
    for (auto &v : src)
        v = rng();
    storeBoth(bulk, loop, 0, src.data(), cap, kChips);
    // Write-verify caught stuck cells: the verified path ran.
    EXPECT_GT(bulk.stats().get("faultWriteErrors"), 0.0);
    expectSameChipState(bulk, loop);
    if (HasFatalFailure())
        return;
    const std::uint64_t start = 300, n = 2000;
    storeBoth(bulk, loop, start, src.data() + 1, n, kChips);
    expectSameChipState(bulk, loop);
    if (HasFatalFailure())
        return;
    bulk.initRange(0, cap);
    loop.initRange(0, cap);
    expectSameExtractions(bulk, loop, 0, cap, false);
}
