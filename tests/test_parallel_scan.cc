/**
 * @file
 * Determinism tests of the parallel scan engine: a bit-level RimeChip
 * driven with threads=1 must be *bit-identical* to one driven with
 * threads=N -- every ExtractResult field, every StatGroup counter,
 * and the accumulated energy -- across randomized workloads with
 * min/max extractions, live stores, sub-ranges, and re-inits.  Also
 * covers the word-parallel BitVector range operations the scan path
 * now relies on, and the thread pool itself.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.hh"
#include "common/rng.hh"
#include "rimehw/chip.hh"

using namespace rime;
using namespace rime::rimehw;

namespace
{

/** Enough units (64 rows x 32+ units) that shards are non-trivial. */
RimeGeometry
shardedGeometry()
{
    RimeGeometry g;
    g.chipsPerChannel = 1;
    g.banksPerChip = 4;
    g.subbanksPerBank = 8;
    g.arraysPerMat = 2;
    g.arrayRows = 64;
    g.arrayCols = 64;
    return g;
}

void
expectSameResult(const ExtractResult &a, const ExtractResult &b,
                 int step)
{
    ASSERT_EQ(a.found, b.found) << "step " << step;
    if (!a.found)
        return;
    EXPECT_EQ(a.raw, b.raw) << "step " << step;
    EXPECT_EQ(a.index, b.index) << "step " << step;
    EXPECT_EQ(a.steps, b.steps) << "step " << step;
    EXPECT_EQ(a.time, b.time) << "step " << step;
}

void
expectSameStats(const RimeChip &a, const RimeChip &b)
{
    // Every counter either chip ever touched must agree exactly --
    // except host wall-clock profiling stats ("*WallNs"), which are
    // excluded from the determinism contract by construction.
    EXPECT_EQ(a.stats().values().size(), b.stats().values().size());
    for (const auto &kv : a.stats().values()) {
        if (isWallClockStat(kv.first))
            continue;
        EXPECT_DOUBLE_EQ(kv.second, b.stats().get(kv.first))
            << kv.first;
    }
    EXPECT_DOUBLE_EQ(a.energyPJ(), b.energyPJ());
}

/**
 * Drive every chip through the same randomized workload -- min/max
 * extractions, live stores, remaining counts and re-inits over two
 * sub-ranges -- and require each chip to match chips[0] at every step
 * and in its final stats.
 */
void
runRandomWorkload(const std::vector<RimeChip *> &chips, KeyMode mode,
                  unsigned k, std::uint64_t seed)
{
    RimeChip &ref = *chips.front();
    for (RimeChip *chip : chips)
        chip->configure(k, mode);

    const std::size_t n = std::min<std::size_t>(
        768, ref.valueCapacity());
    Rng rng(seed);
    const std::uint64_t mask = k >= 64 ? ~0ULL : (1ULL << k) - 1;
    auto put = [&](std::uint64_t idx, std::uint64_t raw) {
        for (RimeChip *chip : chips)
            chip->writeValue(idx, raw);
    };
    auto init = [&](std::uint64_t b, std::uint64_t e) {
        for (RimeChip *chip : chips)
            chip->initRange(b, e);
    };
    auto extract = [&](std::uint64_t b, std::uint64_t e, bool find_max,
                       int step) {
        const ExtractResult want = ref.extract(b, e, find_max);
        for (std::size_t c = 1; c < chips.size(); ++c)
            expectSameResult(want, chips[c]->extract(b, e, find_max),
                             step);
    };
    for (std::size_t i = 0; i < n; ++i)
        put(i, rng() & mask);

    const std::uint64_t mid = n / 2;
    init(0, mid);
    init(mid, n);

    for (int step = 0; step < 500; ++step) {
        const unsigned action = static_cast<unsigned>(rng.below(6));
        const bool first = rng.below(2) == 0;
        const std::uint64_t b = first ? 0 : mid;
        const std::uint64_t e = first ? mid : n;
        switch (action) {
          case 0:
          case 1:
            extract(b, e, false, step);
            break;
          case 2:
            extract(b, e, true, step);
            break;
          case 3: {
            // Live store into the active range.
            const std::uint64_t idx = b + rng.below(e - b);
            put(idx, rng() & mask);
            break;
          }
          case 4: {
            const std::uint64_t want = ref.remainingInRange(b, e);
            for (std::size_t c = 1; c < chips.size(); ++c)
                ASSERT_EQ(want, chips[c]->remainingInRange(b, e))
                    << step;
            break;
          }
          case 5:
            if (rng.below(8) == 0)
                init(b, e);
            break;
        }
    }
    for (std::size_t c = 1; c < chips.size(); ++c)
        expectSameStats(ref, *chips[c]);
}

struct ModeCase
{
    KeyMode mode;
    unsigned k;
    unsigned threads;
};

class ParallelDeterminism : public ::testing::TestWithParam<ModeCase>
{};

} // namespace

TEST_P(ParallelDeterminism, RandomWorkloadBitIdentical)
{
    const auto [mode, k, threads] = GetParam();
    RimeChip serial(shardedGeometry(), RimeTimingParams{}, 1);
    RimeChip parallel(shardedGeometry(), RimeTimingParams{}, threads);
    ASSERT_EQ(serial.hostThreads(), 1u);
    ASSERT_EQ(parallel.hostThreads(), threads);
    runRandomWorkload({&serial, &parallel}, mode, k,
                      4200 + k + 17 * threads);
    // The explicit width really split the workload's 6-unit ranges.
    EXPECT_EQ(serial.shardCount(), 1u);
    EXPECT_GT(parallel.shardCount(), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, ParallelDeterminism,
    ::testing::Values(ModeCase{KeyMode::UnsignedFixed, 16, 4},
                      ModeCase{KeyMode::UnsignedFixed, 32, 4},
                      ModeCase{KeyMode::SignedFixed, 16, 4},
                      ModeCase{KeyMode::SignedFixed, 32, 4},
                      ModeCase{KeyMode::Float, 32, 4},
                      ModeCase{KeyMode::UnsignedFixed, 16, 3},
                      ModeCase{KeyMode::SignedFixed, 32, 7}),
    [](const auto &info) {
        const char *m =
            info.param.mode == KeyMode::UnsignedFixed ? "U"
            : info.param.mode == KeyMode::SignedFixed ? "S" : "F";
        return std::string(m) + std::to_string(info.param.k) + "x" +
            std::to_string(info.param.threads);
    });

TEST(ParallelDeterminism, FullDrainIdenticalAcrossWidths)
{
    // Drain an entire range with every thread count; all sequences
    // and final stats must match the serial run exactly.
    RimeChip serial(shardedGeometry(), RimeTimingParams{}, 1);
    serial.configure(16, KeyMode::UnsignedFixed);
    const std::size_t n = std::min<std::size_t>(
        512, serial.valueCapacity());
    Rng rng(77);
    std::vector<std::uint64_t> raws(n);
    for (auto &r : raws)
        r = rng() & 0xFFFF;

    std::vector<ExtractResult> expect;
    for (std::size_t i = 0; i < n; ++i)
        serial.writeValue(i, raws[i]);
    serial.initRange(0, n);
    for (std::size_t i = 0; i < n; ++i)
        expect.push_back(serial.extract(0, n, false));

    for (const unsigned threads : {2u, 4u, 8u}) {
        RimeChip chip(shardedGeometry(), RimeTimingParams{}, threads);
        chip.configure(16, KeyMode::UnsignedFixed);
        for (std::size_t i = 0; i < n; ++i)
            chip.writeValue(i, raws[i]);
        chip.initRange(0, n);
        for (std::size_t i = 0; i < n; ++i) {
            expectSameResult(expect[i], chip.extract(0, n, false),
                             static_cast<int>(i));
        }
        expectSameStats(serial, chip);
    }
}

TEST(ShardWidth, DefaultWidthRunsSmallRangesOnOneShard)
{
    // 128 units at k = 16, far below the grain: one shard, so scans
    // never enter the pool, whatever RIME_THREADS says.
    RimeChip chip(shardedGeometry(), RimeTimingParams{}, 0);
    chip.configure(16, KeyMode::UnsignedFixed);
    EXPECT_EQ(chip.hostThreads(), ThreadPool::configuredThreads());
    chip.initRange(0, chip.valueCapacity());
    EXPECT_EQ(chip.shardCount(), 1u);
    chip.setHostThreads(4);
    EXPECT_EQ(chip.shardCount(), 4u);
    chip.setHostThreads(0);
    EXPECT_EQ(chip.shardCount(), 1u);
}

TEST(ShardWidth, DefaultWidthSplitsAboveTheGrain)
{
    // 64-row units, four k = 16 slots per row: exactly 2 grains of
    // units.  One unit fewer stays on one shard; the full range gets
    // one shard per grain, capped by the configured width.
    RimeGeometry g = shardedGeometry();
    g.subbanksPerBank = 32;
    g.banksPerChip = static_cast<unsigned>(
        2 * RimeChip::kUnitsPerShard / (4 * g.subbanksPerBank));
    RimeChip chip(g, RimeTimingParams{}, 0);
    chip.configure(16, KeyMode::UnsignedFixed);
    const std::uint64_t units = 2 * RimeChip::kUnitsPerShard;
    ASSERT_EQ(chip.valueCapacity(), units * g.arrayRows);
    chip.initRange(0, (units - 1) * g.arrayRows);
    EXPECT_EQ(chip.shardCount(), 1u);
    chip.initRange(0, units * g.arrayRows);
    EXPECT_EQ(chip.shardCount(),
              std::min(2u, ThreadPool::configuredThreads()));
}

TEST(ShardWidth, ExplicitWidthIsTakenAsGiven)
{
    for (const unsigned threads : {1u, 2u, 4u, 8u}) {
        RimeChip chip(shardedGeometry(), RimeTimingParams{}, threads);
        chip.configure(16, KeyMode::UnsignedFixed);
        ASSERT_EQ(chip.hostThreads(), threads);
        chip.initRange(0, 3 * 64); // 3 units
        EXPECT_EQ(chip.shardCount(), std::min(threads, 3u));
        chip.initRange(0, chip.valueCapacity()); // 128 units
        EXPECT_EQ(chip.shardCount(), threads);
    }
}

TEST(ShardWidth, DefaultWidthMatchesExplicitWidths)
{
    for (const auto &[mode, k] : {std::pair{KeyMode::UnsignedFixed, 16u},
                                  std::pair{KeyMode::SignedFixed, 32u},
                                  std::pair{KeyMode::Float, 32u}}) {
        std::vector<std::unique_ptr<RimeChip>> owned;
        std::vector<RimeChip *> chips;
        for (const unsigned threads : {0u, 1u, 2u, 4u, 8u}) {
            owned.push_back(std::make_unique<RimeChip>(
                shardedGeometry(), RimeTimingParams{}, threads));
            chips.push_back(owned.back().get());
        }
        runRandomWorkload(chips, mode, k, 9100 + k);
    }
}

TEST(BitVectorRanges, WordParallelSetAndClearMatchBitLoops)
{
    // Cross-word boundaries, single-word spans, full words, empties.
    for (const auto &[begin, end] : {std::pair<unsigned, unsigned>
             {0u, 0u}, {0u, 1u}, {5u, 9u}, {0u, 64u}, {63u, 65u},
             {64u, 128u}, {1u, 200u}, {70u, 71u}, {120u, 193u},
             {0u, 200u}}) {
        BitVector fast(200), slow(200);
        fast.setRange(begin, end);
        for (unsigned i = begin; i < end; ++i)
            slow.set(i, true);
        EXPECT_TRUE(fast == slow) << begin << ".." << end;

        BitVector cfast(200), cslow(200);
        cfast.setRange(0, 200);
        cslow.setRange(0, 200);
        cfast.clearRange(begin, end);
        for (unsigned i = begin; i < end; ++i)
            cslow.set(i, false);
        EXPECT_TRUE(cfast == cslow) << begin << ".." << end;
    }
}

TEST(BitVectorRanges, FusedAndNotCountsMatchSeparateOps)
{
    Rng rng(9);
    BitVector a(130), b(130), base(130);
    for (unsigned i = 0; i < 130; ++i) {
        a.set(i, rng.below(2) == 0);
        b.set(i, rng.below(3) == 0);
        base.set(i, rng.below(2) == 0);
    }
    BitVector ref = a;
    ref.andNot(b);
    BitVector fused = a;
    EXPECT_EQ(fused.andNotCount(b), ref.count());
    EXPECT_TRUE(fused == ref);

    BitVector ref2 = base;
    ref2.andNot(b);
    BitVector out(130);
    EXPECT_EQ(out.assignAndNotCount(base, b), ref2.count());
    EXPECT_TRUE(out == ref2);
}

TEST(ThreadPool, RunsEveryTaskExactlyOnce)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.threads(), 4u);
    std::vector<std::atomic<int>> hits(257);
    pool.run(257, [&](unsigned t) {
        hits[t].fetch_add(1, std::memory_order_relaxed);
    });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, DeterministicReductionIsOrderPreserving)
{
    // String concatenation is non-commutative: identical output for
    // every shard/thread combination proves the reduction order.
    const std::size_t n = 100;
    std::string expect;
    for (std::size_t i = 0; i < n; ++i)
        expect += std::to_string(i) + ",";
    for (const unsigned threads : {1u, 2u, 5u, 8u}) {
        ThreadPool pool(threads);
        const std::string got = parallelReduce(
            pool, n, threads, std::string(),
            [](std::size_t lo, std::size_t hi, unsigned) {
                std::string s;
                for (std::size_t i = lo; i < hi; ++i)
                    s += std::to_string(i) + ",";
                return s;
            },
            [](std::string a, const std::string &b) { return a + b; });
        EXPECT_EQ(got, expect) << threads << " threads";
    }
}

TEST(ThreadPool, ShardBoundsCoverWithoutOverlap)
{
    ThreadPool pool(3);
    std::vector<std::atomic<int>> hits(1000);
    pool.forShards(1000, 3, [&](std::size_t lo, std::size_t hi,
                                unsigned) {
        for (std::size_t i = lo; i < hi; ++i)
            hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}
