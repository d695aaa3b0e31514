/**
 * @file
 * Fault-injection and self-healing tests: stuck-at, wear-out, and
 * read-disturb chips must either produce exactly correct results
 * (verified writes, verified + confirmed scans, spare-row remaps,
 * spare-unit migration) or explicit errors -- never a silently wrong
 * item.  All of it must stay bit-identical between hostThreads=1 and
 * hostThreads=N, and the API layer must surface health, retire dead
 * extents from the allocator, and fail loudly on the legacy
 * interface.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "rime/api.hh"
#include "rime/ops.hh"
#include "rimehw/chip.hh"
#include "rimehw/faults.hh"

using namespace rime;
using namespace rime::rimehw;

namespace
{

/** Small geometry (64x64 arrays) so faulty drains stay fast. */
RimeGeometry
smallGeometry()
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

/** Drain [0, n) via extract(min); every item must verify as Ok. */
std::vector<std::uint64_t>
drainChip(RimeChip &chip, std::size_t n)
{
    std::vector<std::uint64_t> out;
    for (std::size_t i = 0; i < n; ++i) {
        ExtractResult r;
        // A transient-disturb chip may exhaust one scan's retry
        // budget; the explicit VerifyFailed invites the caller to try
        // again in a later epoch.  Bounded so a real failure fails.
        for (int tries = 0; tries < 32; ++tries) {
            r = chip.extract(0, n, false);
            if (r.status != ScanStatus::VerifyFailed)
                break;
        }
        EXPECT_EQ(r.status, ScanStatus::Ok) << "item " << i;
        if (!r.found)
            break;
        out.push_back(r.raw);
    }
    return out;
}

void
expectSameStats(const RimeChip &a, const RimeChip &b)
{
    // Host wall-clock stats ("*WallNs") are outside the determinism
    // contract; everything else must agree exactly.
    EXPECT_EQ(a.stats().values().size(), b.stats().values().size());
    for (const auto &kv : a.stats().values()) {
        if (isWallClockStat(kv.first))
            continue;
        EXPECT_DOUBLE_EQ(kv.second, b.stats().get(kv.first))
            << kv.first;
    }
    EXPECT_DOUBLE_EQ(a.energyPJ(), b.energyPJ());
}

} // namespace

// ---------------------------------------------------------------------
// Fault model: pure, seeded, reproducible.
// ---------------------------------------------------------------------

TEST(FaultModel, DecisionsArePureFunctionsOfSeedAndCoordinates)
{
    FaultParams p;
    p.seed = 42;
    p.stuckAt0Rate = 1e-3;
    p.stuckAt1Rate = 1e-3;
    p.readDisturbRate = 1e-4;
    p.wearOutBlockWrites = 100;
    const FaultModel a(p), b(p);
    FaultParams q = p;
    q.seed = 43;
    const FaultModel c(q);

    int diff = 0;
    for (std::uint64_t array = 0; array < 4; ++array) {
        for (unsigned row = 0; row < 64; ++row) {
            for (unsigned col = 0; col < 32; ++col) {
                EXPECT_EQ(a.stuckState(array, row, col),
                          b.stuckState(array, row, col));
                EXPECT_EQ(a.wornOut(array, row, col, 200),
                          b.wornOut(array, row, col, 200));
                diff += a.stuckState(array, row, col) !=
                    c.stuckState(array, row, col);
            }
        }
    }
    EXPECT_GT(diff, 0) << "different seeds, identical fault maps";

    // Disturb masks repeat within an epoch and vary across epochs.
    EXPECT_EQ(a.disturbWord(1, 3, 0, 7), b.disturbWord(1, 3, 0, 7));
    int epoch_diff = 0;
    for (std::uint64_t e = 0; e < 4096; ++e)
        epoch_diff += a.disturbWord(1, 3, 0, e) !=
            a.disturbWord(1, 3, 0, e + 1);
    EXPECT_GT(epoch_diff, 0);
}

TEST(FaultModel, NoFaultsWhenRatesAreZero)
{
    FaultParams p;
    p.readDisturbRate = 0.0;
    const FaultModel m(p);
    for (unsigned row = 0; row < 64; ++row) {
        for (unsigned col = 0; col < 16; ++col) {
            EXPECT_EQ(m.stuckState(0, row, col), -1);
            EXPECT_FALSE(m.wornOut(0, row, col, 1'000'000));
        }
    }
    EXPECT_EQ(m.disturbWord(0, 0, 0, 123), 0u);
}

// ---------------------------------------------------------------------
// Stuck-at cells: write-verify + spare-row remap keep sorts exact.
// ---------------------------------------------------------------------

TEST(FaultyChip, StuckAtSortExactWithRemaps)
{
    for (const std::uint64_t seed : {1ULL, 7ULL}) {
        FaultParams f;
        f.seed = seed;
        f.stuckAt0Rate = 1e-3;
        f.stuckAt1Rate = 1e-3;
        RimeChip chip(smallGeometry(), RimeTimingParams{}, 1, f);
        chip.configure(16, KeyMode::UnsignedFixed);

        const std::size_t n = std::min<std::size_t>(
            500, chip.valueCapacity());
        Rng rng(900 + seed);
        std::vector<std::uint64_t> vals(n);
        for (std::size_t i = 0; i < n; ++i) {
            vals[i] = rng() & 0xFFFF;
            chip.writeValue(i, vals[i]);
        }
        chip.initRange(0, n);

        const auto got = drainChip(chip, n);
        std::sort(vals.begin(), vals.end());
        EXPECT_EQ(got, vals) << "seed " << seed;

        // At these rates the seeds above are chosen to actually
        // exercise the repair path, not just its absence.
        const HealthCounts hc = chip.healthCounts();
        EXPECT_GT(hc.remappedRows, 0u) << "seed " << seed;
        EXPECT_EQ(hc.lostValues, 0u);
        EXPECT_EQ(hc.deadUnits, 0u);
    }
}

TEST(FaultyChip, SpareRowsShrinkCapacity)
{
    FaultParams f;
    f.stuckAt0Rate = 1e-4;
    f.spareRowsPerUnit = 8;
    RimeChip faulty(smallGeometry(), RimeTimingParams{}, 1, f);
    RimeChip clean(smallGeometry(), RimeTimingParams{}, 1);
    faulty.configure(16, KeyMode::UnsignedFixed);
    clean.configure(16, KeyMode::UnsignedFixed);
    // 8 of 64 rows per unit are spares and 2 units per chip are spare
    // units, so the visible capacity must shrink accordingly.
    EXPECT_LT(faulty.valueCapacity(), clean.valueCapacity());
}

// ---------------------------------------------------------------------
// Wear-out: failed writes are caught and remapped while spares last.
// ---------------------------------------------------------------------

TEST(FaultyChip, WearOutRemapsThenSortStaysExact)
{
    FaultParams f;
    f.seed = 5;
    f.wearOutBlockWrites = 3000;
    f.wearOutSpread = 0.25;
    RimeChip chip(smallGeometry(), RimeTimingParams{}, 1, f);
    chip.configure(16, KeyMode::UnsignedFixed);

    const std::size_t n = 128;
    Rng rng(31);
    std::vector<std::uint64_t> vals(n);
    for (std::size_t i = 0; i < n; ++i) {
        vals[i] = rng() & 0xFFFF;
        chip.writeValue(i, vals[i]);
    }
    // Hammer a subset until the block write count crosses the weakest
    // cell's individual wear budget and the first rewrite fails
    // verify; stopping right there keeps the wear marginal, so the
    // spare rows absorb it with room to spare.
    for (int round = 0; round < 250; ++round) {
        if (chip.stats().get("faultRowRemaps") > 0.0)
            break;
        for (std::size_t i = 0; i < 32; ++i) {
            vals[i] = rng() & 0xFFFF;
            chip.writeValue(i, vals[i]);
        }
    }
    EXPECT_GT(chip.stats().get("faultRowRemaps"), 0.0);
    EXPECT_GT(chip.healthCounts().degradedUnits, 0u);

    chip.initRange(0, n);
    const auto got = drainChip(chip, n);
    std::sort(vals.begin(), vals.end());
    EXPECT_EQ(got, vals);
    EXPECT_EQ(chip.healthCounts().lostValues, 0u);
}

// ---------------------------------------------------------------------
// Read disturb: trajectory verify + epoch confirmation; exact drains.
// ---------------------------------------------------------------------

TEST(FaultyChip, ReadDisturbConfirmedSortExact)
{
    FaultParams f;
    f.seed = 9;
    f.readDisturbRate = 5e-5;
    RimeChip chip(smallGeometry(), RimeTimingParams{}, 1, f);
    chip.configure(16, KeyMode::UnsignedFixed);

    const std::size_t n = 400;
    Rng rng(1234);
    std::vector<std::uint64_t> vals(n);
    for (std::size_t i = 0; i < n; ++i) {
        vals[i] = rng() & 0xFFFF;
        chip.writeValue(i, vals[i]);
    }
    chip.initRange(0, n);
    const auto got = drainChip(chip, n);
    std::sort(vals.begin(), vals.end());
    EXPECT_EQ(got, vals);
    // Every emission needed at least one confirming rescan.
    EXPECT_GE(chip.stats().get("faultRescans"), double(n));
}

// ---------------------------------------------------------------------
// Determinism: all fault mechanisms, threads=1 vs threads=N.
// ---------------------------------------------------------------------

TEST(FaultyChip, AllMechanismsBitIdenticalAcrossThreads)
{
    FaultParams f;
    f.seed = 77;
    f.stuckAt0Rate = 5e-4;
    f.stuckAt1Rate = 5e-4;
    f.readDisturbRate = 5e-5;
    f.wearOutBlockWrites = 3000;
    RimeChip serial(smallGeometry(), RimeTimingParams{}, 1, f);
    RimeChip parallel(smallGeometry(), RimeTimingParams{}, 4, f);
    ASSERT_EQ(serial.hostThreads(), 1u);
    ASSERT_EQ(parallel.hostThreads(), 4u);
    serial.configure(16, KeyMode::UnsignedFixed);
    parallel.configure(16, KeyMode::UnsignedFixed);

    const std::size_t n = 300;
    Rng rng(555);
    auto put = [&](std::uint64_t idx, std::uint64_t raw) {
        serial.writeValue(idx, raw);
        parallel.writeValue(idx, raw);
    };
    for (std::size_t i = 0; i < n; ++i)
        put(i, rng() & 0xFFFF);
    serial.initRange(0, n);
    parallel.initRange(0, n);
    // The explicit width splits the 5-unit range over the pool.
    ASSERT_GT(parallel.shardCount(), 1u);

    for (int step = 0; step < 400; ++step) {
        if (rng.below(5) == 0) {
            put(rng.below(n), rng() & 0xFFFF);
            continue;
        }
        const bool find_max = rng.below(4) == 0;
        const ExtractResult a = serial.extract(0, n, find_max);
        const ExtractResult b = parallel.extract(0, n, find_max);
        ASSERT_EQ(a.status, b.status) << "step " << step;
        ASSERT_EQ(a.found, b.found) << "step " << step;
        if (a.found) {
            EXPECT_EQ(a.raw, b.raw) << "step " << step;
            EXPECT_EQ(a.index, b.index) << "step " << step;
            EXPECT_EQ(a.steps, b.steps) << "step " << step;
            EXPECT_EQ(a.time, b.time) << "step " << step;
        }
    }
    expectSameStats(serial, parallel);
    const HealthCounts ha = serial.healthCounts();
    const HealthCounts hb = parallel.healthCounts();
    EXPECT_EQ(ha.remappedRows, hb.remappedRows);
    EXPECT_EQ(ha.degradedUnits, hb.degradedUnits);
    EXPECT_EQ(ha.retiredUnits, hb.retiredUnits);
    EXPECT_EQ(ha.deadUnits, hb.deadUnits);
    EXPECT_EQ(ha.lostValues, hb.lostValues);
}

// ---------------------------------------------------------------------
// Beyond repair capacity: explicit errors, never silent corruption.
// ---------------------------------------------------------------------

TEST(FaultyChip, BeyondRepairCapacityReportsDataLoss)
{
    FaultParams f;
    f.seed = 2;
    f.stuckAt1Rate = 0.2; // far beyond any provisioned spare capacity
    f.spareRowsPerUnit = 2;
    f.spareUnitsPerChip = 1;
    RimeChip chip(smallGeometry(), RimeTimingParams{}, 1, f);
    chip.configure(16, KeyMode::UnsignedFixed);

    const std::size_t n = 200;
    Rng rng(8);
    for (std::size_t i = 0; i < n; ++i)
        chip.writeValue(i, rng() & 0xFFFF);
    const HealthCounts hc = chip.healthCounts();
    EXPECT_GT(hc.lostValues, 0u);
    EXPECT_GT(hc.deadUnits, 0u);
    EXPECT_FALSE(chip.drainDeadExtents().empty());

    chip.initRange(0, n);
    const ExtractResult r = chip.extract(0, n, false);
    EXPECT_FALSE(r.found);
    EXPECT_EQ(r.status, ScanStatus::DataLoss);
}

// ---------------------------------------------------------------------
// API level: 64k-key sort, health, retired extents, legacy fatal.
// ---------------------------------------------------------------------

namespace
{

LibraryConfig
faultyLibraryConfig(unsigned host_threads, std::uint64_t seed,
                    double stuck_rate)
{
    LibraryConfig cfg;
    cfg.device.bitLevel = true;
    cfg.device.hostThreads = host_threads;
    cfg.device.faults.seed = seed;
    cfg.device.faults.stuckAt0Rate = stuck_rate;
    cfg.device.faults.stuckAt1Rate = stuck_rate;
    return cfg;
}

/** Full 64k-key sort through rimeMin; returns (raw, address) pairs. */
std::vector<std::pair<std::uint64_t, std::uint64_t>>
apiSort(const LibraryConfig &cfg,
        const std::vector<std::uint64_t> &keys)
{
    RimeLibrary lib(cfg);
    const std::uint64_t bytes = keys.size() * sizeof(std::uint32_t);
    const auto addr = lib.rimeMalloc(bytes);
    EXPECT_TRUE(addr.has_value());
    lib.storeArray(*addr, keys);
    lib.rimeInit(*addr, *addr + bytes, KeyMode::UnsignedFixed, 32);

    std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
    out.reserve(keys.size());
    while (auto item = lib.rimeMin(*addr, *addr + bytes))
        out.emplace_back(item->raw, item->index);
    EXPECT_TRUE(lib.rimeHealth().counts.lostValues == 0);
    return out;
}

} // namespace

TEST(FaultyApi, StuckAt1e4SortOf64kKeysMatchesStdSortExactly)
{
    // The acceptance bar: at stuck-at rates up to 1e-4 a full sort of
    // 64k keys through rimeMin matches std::sort exactly -- zero
    // silent corruption -- and is bit-identical for hostThreads 1 / 4.
    const std::size_t n = 65536;
    for (const std::uint64_t seed : {3ULL, 11ULL}) {
        Rng rng(24000 + seed);
        std::vector<std::uint64_t> keys(n);
        for (auto &k : keys)
            k = rng() & 0xFFFFFFFFULL;

        const auto parallel =
            apiSort(faultyLibraryConfig(4, seed, 1e-4), keys);
        ASSERT_EQ(parallel.size(), n) << "seed " << seed;

        std::vector<std::uint64_t> expect = keys;
        std::sort(expect.begin(), expect.end());
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(parallel[i].first, expect[i])
                << "seed " << seed << " rank " << i;

        if (seed == 3) {
            const auto serial =
                apiSort(faultyLibraryConfig(1, seed, 1e-4), keys);
            ASSERT_EQ(serial, parallel);
        }
    }
}

TEST(FaultyApi, BeyondCapacityChecksAndLegacyFatal)
{
    LibraryConfig cfg = faultyLibraryConfig(2, 4, 0.0);
    cfg.device.faults.stuckAt1Rate = 0.2;
    cfg.device.faults.spareRowsPerUnit = 2;
    cfg.device.faults.spareUnitsPerChip = 1;
    RimeLibrary lib(cfg);

    const std::size_t n = 4096;
    const std::uint64_t bytes = n * sizeof(std::uint32_t);
    const auto addr = lib.rimeMalloc(bytes);
    ASSERT_TRUE(addr.has_value());
    Rng rng(99);
    std::vector<std::uint64_t> keys(n);
    for (auto &k : keys)
        k = rng() & 0xFFFFFFFFULL;
    lib.storeArray(*addr, keys);
    lib.rimeInit(*addr, *addr + bytes, KeyMode::UnsignedFixed, 32);

    // The checked API names the failure; the legacy API refuses to
    // return a possibly-wrong item.
    const RimeExtract r = lib.rimeMinChecked(*addr, *addr + bytes);
    EXPECT_EQ(r.status, RimeStatus::DataLoss);
    EXPECT_FALSE(r.ok());
    EXPECT_THROW(lib.rimeMin(*addr, *addr + bytes), FatalError);

    // Health reporting: units died, values were lost, and the driver
    // learned the dead extents so future allocations avoid them.
    const RimeHealthReport health = lib.rimeHealth();
    EXPECT_FALSE(health.pristine());
    EXPECT_GT(health.counts.lostValues, 0u);
    EXPECT_GT(health.counts.deadUnits, 0u);
    EXPECT_GT(health.retiredBytes, 0u);
    EXPECT_EQ(health.retiredBytes, lib.driver().retiredBytes());
}

TEST(FaultyApi, HealthyDeviceReportsPristine)
{
    RimeLibrary lib(faultyLibraryConfig(2, 1, 1e-5));
    const auto addr = lib.rimeMalloc(4096);
    ASSERT_TRUE(addr.has_value());
    const RimeHealthReport health = lib.rimeHealth();
    EXPECT_EQ(health.counts.lostValues, 0u);
    EXPECT_EQ(health.counts.deadUnits, 0u);
    EXPECT_EQ(health.retiredBytes, 0u);
}

TEST(FaultyApi, FastModelWithFaultsIsRejected)
{
    LibraryConfig cfg;
    cfg.device.bitLevel = false; // FastRime has no cells to corrupt
    cfg.device.faults.stuckAt0Rate = 1e-4;
    EXPECT_THROW(RimeLibrary{cfg}, FatalError);
}

TEST(FaultyApi, StatusNamesAreStable)
{
    EXPECT_STREQ(rimeStatusName(RimeStatus::Ok), "ok");
    EXPECT_STREQ(rimeStatusName(RimeStatus::Empty), "empty");
    EXPECT_STREQ(rimeStatusName(RimeStatus::VerifyFailed),
                 "verify-failed");
    EXPECT_STREQ(rimeStatusName(RimeStatus::DataLoss), "data-loss");
}

// ---------------------------------------------------------------------
// High-level kernels on faulty devices: exact or loud, never silent.
// ---------------------------------------------------------------------


TEST(FaultyKernels, TopKExactAtStuckAt1e4)
{
    // rimeTopK over a stuck-at device (rate 1e-4) must match the
    // std::sort prefix exactly, in both directions, and be
    // bit-identical between hostThreads 1 and 4.
    const std::size_t n = 16384;
    const std::uint64_t count = 256;
    Rng rng(31000);
    std::vector<std::uint64_t> keys(n);
    for (auto &k : keys)
        k = rng() & 0xFFFFFFFFULL;
    std::vector<std::uint64_t> expect = keys;
    std::sort(expect.begin(), expect.end());

    for (const bool largest : {false, true}) {
        RimeLibrary lib(faultyLibraryConfig(4, 7, 1e-4));
        const KernelResult r = rimeTopK(lib, keys, count, largest,
                                        KeyMode::UnsignedFixed);
        ASSERT_EQ(r.values.size(), count) << "largest=" << largest;
        for (std::uint64_t i = 0; i < count; ++i) {
            const std::uint64_t want = largest
                ? expect[n - 1 - i] : expect[i];
            ASSERT_EQ(r.values[i], want)
                << "largest=" << largest << " rank " << i;
        }
        EXPECT_EQ(lib.rimeHealth().counts.lostValues, 0u);

        RimeLibrary serial(faultyLibraryConfig(1, 7, 1e-4));
        const KernelResult s = rimeTopK(serial, keys, count, largest,
                                        KeyMode::UnsignedFixed);
        EXPECT_EQ(s.values, r.values);
        EXPECT_DOUBLE_EQ(s.seconds, r.seconds);
        EXPECT_DOUBLE_EQ(s.energyPJ, r.energyPJ);
    }
}

TEST(FaultyKernels, MergeKExactAtStuckAt1e4)
{
    // A 3-way merge on a faulty device equals the sorted concatenation.
    const std::size_t per = 2048;
    Rng rng(32000);
    std::vector<std::vector<std::uint64_t>> sets(3);
    std::vector<std::uint64_t> expect;
    for (auto &set : sets) {
        set.resize(per);
        for (auto &k : set) {
            k = rng() & 0xFFFFFFFFULL;
            expect.push_back(k);
        }
    }
    std::sort(expect.begin(), expect.end());

    RimeLibrary lib(faultyLibraryConfig(4, 13, 1e-4));
    const KernelResult r =
        rimeMergeK(lib, sets, KeyMode::UnsignedFixed);
    ASSERT_EQ(r.values.size(), expect.size());
    for (std::size_t i = 0; i < expect.size(); ++i)
        ASSERT_EQ(r.values[i], expect[i]) << "rank " << i;
    EXPECT_EQ(lib.rimeHealth().counts.lostValues, 0u);

    RimeLibrary serial(faultyLibraryConfig(1, 13, 1e-4));
    const KernelResult s =
        rimeMergeK(serial, sets, KeyMode::UnsignedFixed);
    EXPECT_EQ(s.values, r.values);
}

TEST(FaultyKernels, BeyondRepairCapacityFailsLoudly)
{
    // With faults far past the provisioned spares, the kernels must
    // refuse with an explicit data-loss error -- not return a stream
    // with silently wrong or missing values.
    LibraryConfig cfg = faultyLibraryConfig(2, 4, 0.0);
    cfg.device.faults.stuckAt1Rate = 0.2;
    cfg.device.faults.spareRowsPerUnit = 2;
    cfg.device.faults.spareUnitsPerChip = 1;

    Rng rng(33000);
    std::vector<std::uint64_t> keys(4096);
    for (auto &k : keys)
        k = rng() & 0xFFFFFFFFULL;

    const auto expectDataLossError = [](auto &&run) {
        try {
            run();
            FAIL() << "kernel on a lossy device must throw";
        } catch (const FatalError &err) {
            EXPECT_NE(std::string(err.what()).find("data-loss"),
                      std::string::npos) << err.what();
        }
    };
    expectDataLossError([&] {
        RimeLibrary lib(cfg);
        rimeTopK(lib, keys, 64, false, KeyMode::UnsignedFixed);
    });
    expectDataLossError([&] {
        RimeLibrary lib(cfg);
        const std::vector<std::vector<std::uint64_t>> sets{
            {keys.begin(), keys.begin() + 2048},
            {keys.begin() + 2048, keys.end()},
        };
        rimeMergeK(lib, sets, KeyMode::UnsignedFixed);
    });
}
