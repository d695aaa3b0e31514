/**
 * @file
 * Property tests proving FastRime is observationally equivalent to
 * the bit-level RimeChip: identical extraction results, identical
 * step counts (the LCP theorem), identical energy/statistics, under
 * randomized operation sequences including live stores, mixed
 * min/max ranges, sub-ranges, and re-initialization.  A device bulk
 * load (per-chip runs) must leave exactly the state of a per-value
 * store loop.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "rime/device.hh"
#include "rimehw/chip.hh"
#include "rimehw/fast_model.hh"

using namespace rime;
using namespace rime::rimehw;

namespace
{

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

void
expectSameResult(const ExtractResult &a, const ExtractResult &b,
                 const char *what)
{
    ASSERT_EQ(a.found, b.found) << what;
    if (!a.found)
        return;
    EXPECT_EQ(a.raw, b.raw) << what;
    EXPECT_EQ(a.index, b.index) << what;
    EXPECT_EQ(a.steps, b.steps) << what;
    EXPECT_EQ(a.time, b.time) << what;
}

struct ModeCase
{
    KeyMode mode;
    unsigned k;
};

class Equivalence : public ::testing::TestWithParam<ModeCase>
{};

} // namespace

TEST_P(Equivalence, FullSortIdentical)
{
    const auto [mode, k] = GetParam();
    RimeChip chip(tinyGeometry());
    FastRime fast(tinyGeometry());
    chip.configure(k, mode);
    fast.configure(k, mode);

    const std::size_t n = std::min<std::size_t>(
        96, chip.valueCapacity());
    Rng rng(500 + k);
    const std::uint64_t mask = k >= 64 ? ~0ULL : (1ULL << k) - 1;
    for (std::size_t i = 0; i < n; ++i) {
        // Narrow distribution so duplicates are frequent.
        const std::uint64_t raw = rng() & mask & 0xFFFF;
        chip.writeValue(i, raw);
        fast.writeValue(i, raw);
    }
    chip.initRange(0, n);
    fast.initRange(0, n);

    for (std::size_t i = 0; i <= n; ++i) {
        expectSameResult(chip.extract(0, n, false),
                         fast.extract(0, n, false), "min sort");
    }
    // Statistics must agree exactly.
    for (const char *stat : {"extractions", "scanSteps", "rowReads",
                             "rowWrites", "energyPJ",
                             "columnSearches"}) {
        EXPECT_DOUBLE_EQ(chip.stats().get(stat), fast.stats().get(stat))
            << stat;
    }
}

TEST_P(Equivalence, FullMaxSortIdentical)
{
    const auto [mode, k] = GetParam();
    RimeChip chip(tinyGeometry());
    FastRime fast(tinyGeometry());
    chip.configure(k, mode);
    fast.configure(k, mode);

    const std::size_t n = std::min<std::size_t>(
        64, chip.valueCapacity());
    Rng rng(700 + k);
    const std::uint64_t mask = k >= 64 ? ~0ULL : (1ULL << k) - 1;
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t raw = rng() & mask & 0xFF;
        chip.writeValue(i, raw);
        fast.writeValue(i, raw);
    }
    chip.initRange(0, n);
    fast.initRange(0, n);
    for (std::size_t i = 0; i <= n; ++i) {
        expectSameResult(chip.extract(0, n, true),
                         fast.extract(0, n, true), "max sort");
    }
}

TEST_P(Equivalence, RandomOperationSequence)
{
    const auto [mode, k] = GetParam();
    RimeChip chip(tinyGeometry());
    FastRime fast(tinyGeometry());
    chip.configure(k, mode);
    fast.configure(k, mode);

    const std::size_t cap = chip.valueCapacity();
    const std::size_t n = std::min<std::size_t>(64, cap);
    Rng rng(900 + k);
    const std::uint64_t mask = k >= 64 ? ~0ULL : (1ULL << k) - 1;
    auto put = [&](std::uint64_t idx, std::uint64_t raw) {
        chip.writeValue(idx, raw);
        fast.writeValue(idx, raw);
    };
    for (std::size_t i = 0; i < n; ++i)
        put(i, rng() & mask);

    const std::uint64_t mid = n / 2;
    chip.initRange(0, mid);
    fast.initRange(0, mid);
    chip.initRange(mid, n);
    fast.initRange(mid, n);

    for (int step = 0; step < 400; ++step) {
        const unsigned action = static_cast<unsigned>(rng.below(6));
        const bool first = rng.below(2) == 0;
        const std::uint64_t b = first ? 0 : mid;
        const std::uint64_t e = first ? mid : n;
        switch (action) {
          case 0:
          case 1:
            expectSameResult(chip.extract(b, e, false),
                             fast.extract(b, e, false), "seq min");
            break;
          case 2:
            expectSameResult(chip.extract(b, e, true),
                             fast.extract(b, e, true), "seq max");
            break;
          case 3: {
            // Live store into the range.
            const std::uint64_t idx = b + rng.below(e - b);
            put(idx, rng() & mask);
            break;
          }
          case 4: {
            ASSERT_EQ(chip.remainingInRange(b, e),
                      fast.remainingInRange(b, e));
            break;
          }
          case 5:
            if (rng.below(8) == 0) { // occasional re-init
                chip.initRange(b, e);
                fast.initRange(b, e);
            }
            break;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, Equivalence,
    ::testing::Values(ModeCase{KeyMode::UnsignedFixed, 8},
                      ModeCase{KeyMode::UnsignedFixed, 16},
                      ModeCase{KeyMode::UnsignedFixed, 32},
                      ModeCase{KeyMode::UnsignedFixed, 64},
                      ModeCase{KeyMode::SignedFixed, 16},
                      ModeCase{KeyMode::SignedFixed, 32},
                      ModeCase{KeyMode::Float, 32},
                      ModeCase{KeyMode::Float, 64}),
    [](const auto &info) {
        const char *m =
            info.param.mode == KeyMode::UnsignedFixed ? "U"
            : info.param.mode == KeyMode::SignedFixed ? "S" : "F";
        return std::string(m) + std::to_string(info.param.k);
    });

TEST(Equivalence, LargeNFullSortIdentical)
{
    // The parallel scan engine makes the exact model affordable well
    // beyond the seed's 96-value ranges: drain a multi-thousand-value
    // range and require extraction-by-extraction identity plus exact
    // statistics agreement with the fast model.
    RimeGeometry g;
    g.chipsPerChannel = 1;
    g.banksPerChip = 4;
    g.subbanksPerBank = 8;
    g.arraysPerMat = 2;
    g.arrayRows = 64;
    g.arrayCols = 64;

    RimeChip chip(g, RimeTimingParams{}, 4);
    FastRime fast(g);
    chip.configure(16, KeyMode::UnsignedFixed);
    fast.configure(16, KeyMode::UnsignedFixed);

    const std::size_t n = std::min<std::size_t>(
        4096, chip.valueCapacity());
    ASSERT_GE(n, 2048u);
    Rng rng(31337);
    for (std::size_t i = 0; i < n; ++i) {
        // Narrow distribution: plenty of ties across units.
        const std::uint64_t raw = rng() & 0x3FFF;
        chip.writeValue(i, raw);
        fast.writeValue(i, raw);
    }
    chip.initRange(0, n);
    fast.initRange(0, n);

    for (std::size_t i = 0; i <= n; ++i) {
        expectSameResult(chip.extract(0, n, false),
                         fast.extract(0, n, false), "large-N sort");
    }
    for (const char *stat : {"extractions", "scanSteps", "rowReads",
                             "rowWrites", "energyPJ",
                             "columnSearches"}) {
        EXPECT_DOUBLE_EQ(chip.stats().get(stat), fast.stats().get(stat))
            << stat;
    }
}

TEST(FastRime, StoreToExcludedRowStaysInvisible)
{
    FastRime fast(tinyGeometry());
    fast.configure(16, KeyMode::UnsignedFixed);
    fast.writeValue(0, 10);
    fast.writeValue(1, 20);
    fast.initRange(0, 2);
    auto r = fast.extract(0, 2, false);
    ASSERT_TRUE(r.found);
    EXPECT_EQ(r.raw, 10u);
    // Store a smaller value into the already-extracted row 0: the
    // exclusion latch keeps it invisible.
    fast.writeValue(0, 1);
    r = fast.extract(0, 2, false);
    ASSERT_TRUE(r.found);
    EXPECT_EQ(r.raw, 20u);
    EXPECT_FALSE(fast.extract(0, 2, false).found);
    // After re-init the new value is visible.
    fast.initRange(0, 2);
    r = fast.extract(0, 2, false);
    ASSERT_TRUE(r.found);
    EXPECT_EQ(r.raw, 1u);
}

TEST(FastRime, LiveInsertChangesTheMin)
{
    // Mirrors the priority-queue add path: a store into the live
    // range must surface immediately in the next extraction.
    RimeChip chip(tinyGeometry());
    FastRime fast(tinyGeometry());
    for (auto *backend : std::initializer_list<RankBackend *>{
             &chip, &fast}) {
        backend->configure(16, KeyMode::UnsignedFixed);
        backend->writeValue(0, 100);
        backend->writeValue(1, 200);
        backend->writeValue(2, 300);
        backend->initRange(0, 3);
        auto r = backend->extract(0, 3, false);
        ASSERT_TRUE(r.found);
        EXPECT_EQ(r.raw, 100u);
        backend->writeValue(1, 50); // insert below the current min
        r = backend->extract(0, 3, false);
        ASSERT_TRUE(r.found);
        EXPECT_EQ(r.raw, 50u);
        r = backend->extract(0, 3, false);
        ASSERT_TRUE(r.found);
        EXPECT_EQ(r.raw, 300u);
    }
}

TEST(FastRime, CapacityMatchesBitLevelModel)
{
    RimeChip chip(tinyGeometry());
    FastRime fast(tinyGeometry());
    for (const unsigned k : {8u, 16u, 32u, 64u}) {
        chip.configure(k, KeyMode::UnsignedFixed);
        fast.configure(k, KeyMode::UnsignedFixed);
        EXPECT_EQ(chip.valueCapacity(), fast.valueCapacity()) << k;
    }
}

TEST(FastRime, BulkLoadMatchesWriteValueLoop)
{
    // Three chips, so a start index that is not a multiple of the chip
    // count gives every chip a different phase; 192 columns fit every
    // width below, and 24-bit (3-byte) values straddle 512-byte
    // endurance blocks.
    rime::DeviceConfig cfg;
    cfg.geometry.chipsPerChannel = 3;
    cfg.geometry.arrayCols = 192;
    // An inexact binary fraction makes the energy sum depend on how
    // it is accumulated, so only per-write adds stay bit-equal.
    cfg.timing.writeEnergy = 2600.1;
    for (const unsigned k : {8u, 24u, 32u, 64u}) {
        SCOPED_TRACE("k " + std::to_string(k));
        rime::RimeDevice bulk(cfg), loop(cfg);
        Rng rng(900 + k);
        const std::uint64_t total = 4500;
        std::vector<std::uint64_t> first(total);
        for (auto &v : first)
            v = rng();
        // Two operations the load overlaps: [3000, 4500) is built (one
        // value already extracted), [300, 900) only initialized.
        const std::uint64_t built_begin = 3000, built_end = total;
        const std::uint64_t idle_begin = 300, idle_end = 900;
        for (auto *dev : {&bulk, &loop}) {
            dev->configure(k, KeyMode::UnsignedFixed);
            for (std::uint64_t i = 0; i < total; ++i)
                dev->writeValue(i, first[i]);
            for (unsigned c = 0; c < dev->totalChips(); ++c) {
                const auto built = dev->localRange(c, built_begin,
                                                   built_end);
                const auto idle = dev->localRange(c, idle_begin,
                                                  idle_end);
                dev->chip(c).initRange(built.lo, built.hi);
                dev->chip(c).initRange(idle.lo, idle.hi);
                ASSERT_TRUE(dev->chip(c).extract(built.lo, built.hi).found);
            }
        }

        // Unmasked 64-bit values: the chips keep the low k bits.
        const std::uint64_t start = 1001, n = 3000;
        ASSERT_NE(start % bulk.totalChips(), 0u);
        std::vector<std::uint64_t> raws(n);
        for (auto &v : raws)
            v = rng();
        bulk.loadValues(start, raws);
        for (std::uint64_t i = 0; i < n; ++i)
            loop.writeValue(start + i, raws[i]);

        for (std::uint64_t i = 0; i < total; ++i)
            ASSERT_EQ(bulk.peekValue(i), loop.peekValue(i)) << i;
        EXPECT_EQ(bulk.stats().get("hostWrites"),
                  loop.stats().get("hostWrites"));
        for (unsigned c = 0; c < bulk.totalChips(); ++c) {
            SCOPED_TRACE("chip " + std::to_string(c));
            auto &a = bulk.chip(c);
            auto &b = loop.chip(c);
            EXPECT_EQ(a.stats().get("rowWrites"),
                      b.stats().get("rowWrites"));
            // Bit-equal, not merely close.
            EXPECT_EQ(a.stats().get("energyPJ"),
                      b.stats().get("energyPJ"));
            const auto &ea = a.endurance();
            const auto &eb = b.endurance();
            EXPECT_EQ(ea.totalWrites(), eb.totalWrites());
            EXPECT_EQ(ea.maxBlockWrites(), eb.maxBlockWrites());
            EXPECT_EQ(ea.touchedBlocks(), eb.touchedBlocks());
            const std::uint64_t bytes =
                (total / bulk.totalChips() + 1) * (k / 8);
            for (std::uint64_t off = 0; off < bytes; off += 512)
                EXPECT_EQ(ea.blockWrites(off), eb.blockWrites(off))
                    << "block at byte " << off;

            // Both operations extract the same sequence afterwards.
            for (const auto &[lo, hi] :
                 {bulk.localRange(c, built_begin, built_end),
                  bulk.localRange(c, idle_begin, idle_end)}) {
                for (;;) {
                    const auto ra = a.extract(lo, hi);
                    const auto rb = b.extract(lo, hi);
                    expectSameResult(ra, rb, "after bulk load");
                    if (!ra.found || !rb.found)
                        break;
                }
            }
        }
    }
}
