/**
 * @file
 * google-benchmark microbenchmarks of the core operations: bit-level
 * column search, chip-level scans, the fast model, key codecs, the
 * driver allocator, the DRAM bank machine, the cache hierarchy, the
 * two baseline-path simulators whole (one DRAM bandwidth probe, the
 * four sort profiles of one Fig. 15 pricing pass), the three host
 * layers of a 16 Ki-value StoreArray (wire encode, wire decode,
 * FastRime bulk load), the bit-level bulk store of 1 Mi keys, and
 * the CRC-32 under every wire
 * frame and journal record (dispatched kernel and table reference).
 * These measure *simulator* (host) performance, useful for keeping
 * the models fast enough for paper-scale sweeps.
 *
 * Before the registered benchmarks run, a self-timing pass measures
 * host wall-clock of the bit-level scan at a >=1M-key range: scalar
 * kernels vs SIMD kernels at one thread (the in-process RIME_SIMD
 * A/B), then serial vs parallel (RIME_THREADS / hardware width)
 * under the env-dispatched kernels.  Every variant must produce a
 * bit-identical extraction or the bench aborts; the measurements go
 * to the machine-readable BENCH_scan.json next to the binary, with
 * the median host time of storing the same key count into a fresh
 * bit-level library (bitlevel_store_ms).  RIME_BENCH_KEYS overrides
 * the key count.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <limits>
#include <vector>

#include "bench/bench_util.hh"
#include "cachesim/hierarchy.hh"
#include "common/bitio.hh"
#include "common/env.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "common/stat_registry.hh"
#include "memsim/bandwidth_probe.hh"
#include "memsim/dram_system.hh"
#include "rime/api.hh"
#include "rime/driver.hh"
#include "rimehw/chip.hh"
#include "rimehw/fast_model.hh"
#include "rimehw/kernels.hh"
#include "service/wire.hh"
#include "sort/parallel_model.hh"

using namespace rime;
using namespace rime::rimehw;

namespace
{

RimeGeometry
smallGeometry()
{
    RimeGeometry g;
    g.banksPerChip = 4;
    g.subbanksPerBank = 8;
    return g;
}

void
BM_EncodeFloatKey(benchmark::State &state)
{
    Rng rng(1);
    std::uint64_t raw = rng();
    for (auto _ : state) {
        raw = raw * 0x9E3779B97F4A7C15ULL + 1;
        benchmark::DoNotOptimize(
            encodeKey(raw & 0xFFFFFFFF, 32, KeyMode::Float));
    }
}
BENCHMARK(BM_EncodeFloatKey);

void
BM_ColumnSearch(benchmark::State &state)
{
    RramArray array(512, 512);
    Rng rng(2);
    for (unsigned row = 0; row < 512; ++row)
        array.writeRowBits(row, 0, 32,
                           rng() & 0xFFFFFFFF);
    BitVector select(512);
    select.setRange(0, 512);
    BitVector match(512);
    unsigned col = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            array.columnSearchInto(col, true, select, match));
        benchmark::DoNotOptimize(match.words());
        col = (col + 1) % 32;
    }
}
BENCHMARK(BM_ColumnSearch);

void
BM_BitLevelExtract(benchmark::State &state)
{
    RimeChip chip(smallGeometry());
    chip.configure(32, KeyMode::UnsignedFixed);
    Rng rng(3);
    const std::uint64_t n = 4096;
    for (std::uint64_t i = 0; i < n; ++i)
        chip.writeValue(i, rng() & 0xFFFFFFFF);
    chip.initRange(0, n);
    for (auto _ : state) {
        auto r = chip.extract(0, n, false);
        if (!r.found) {
            chip.initRange(0, n);
        }
        benchmark::DoNotOptimize(r);
    }
}
BENCHMARK(BM_BitLevelExtract);

void
BM_FastModelExtract(benchmark::State &state)
{
    FastRime fast;
    fast.configure(32, KeyMode::UnsignedFixed);
    Rng rng(4);
    const std::uint64_t n = 1 << 16;
    for (std::uint64_t i = 0; i < n; ++i)
        fast.writeValue(i, rng() & 0xFFFFFFFF);
    fast.initRange(0, n);
    for (auto _ : state) {
        auto r = fast.extract(0, n, false);
        if (!r.found) {
            fast.initRange(0, n);
        }
        benchmark::DoNotOptimize(r);
    }
}
BENCHMARK(BM_FastModelExtract);

void
BM_DriverAllocateFree(benchmark::State &state)
{
    RimeDriver driver(1ULL << 30);
    for (auto _ : state) {
        const auto a = driver.allocate(8192);
        benchmark::DoNotOptimize(a);
        if (a)
            driver.release(*a);
    }
}
BENCHMARK(BM_DriverAllocateFree);

void
BM_DramAccess(benchmark::State &state)
{
    memsim::DramSystem mem(memsim::DramParams::offChipDdr4());
    Rng rng(5);
    Tick now = 0;
    for (auto _ : state) {
        MemRequest req;
        req.addr = rng.below(1ULL << 30) & ~63ULL;
        req.type = AccessType::Read;
        now = mem.access(req, now);
        benchmark::DoNotOptimize(now);
    }
}
BENCHMARK(BM_DramAccess);

void
BM_CacheHierarchyAccess(benchmark::State &state)
{
    cachesim::Hierarchy h(1);
    Rng rng(6);
    for (auto _ : state) {
        h.access(0, rng.below(1ULL << 26) & ~3ULL,
                 AccessType::Read);
    }
    benchmark::DoNotOptimize(h.memReads());
}
BENCHMARK(BM_CacheHierarchyAccess);

/** One raw bandwidth probe as BaselinePerfModel runs it: 200 000
 *  DDR4 requests, 75% reads, 64 sequential streams. */
void
BM_ProbeBandwidth(benchmark::State &state)
{
    memsim::DramSystem mem(memsim::DramParams::offChipDdr4());
    for (auto _ : state) {
        const auto probe = memsim::probeBandwidth(
            mem, memsim::AccessPattern::Sequential, 200000, 0.75, 64);
        benchmark::DoNotOptimize(probe.sustainedGBps);
    }
}
BENCHMARK(BM_ProbeBandwidth)->Unit(benchmark::kMillisecond);

/** The four sort profiles of one perfbench baseline_sim op: 1 Mi
 *  keys on 64 cores, 4 Ki keys per partition simulated, seed 7. */
void
BM_SortModelProfile(benchmark::State &state)
{
    sort::SortModel::Config cfg;
    cfg.sampleCap = 4096;
    cfg.seed = 7;
    const sort::SortModel sorts(cfg);
    for (auto _ : state) {
        for (const auto algo : sort::allAlgorithms) {
            const auto p = sorts.profile(algo, 1ULL << 20, 64);
            benchmark::DoNotOptimize(p.memReads);
        }
    }
}
BENCHMARK(BM_SortModelProfile)->Unit(benchmark::kMillisecond);

void
BM_BitLevelExtractParallel(benchmark::State &state)
{
    RimeChip chip(smallGeometry(), RimeTimingParams{},
                  static_cast<unsigned>(state.range(0)));
    chip.configure(32, KeyMode::UnsignedFixed);
    Rng rng(3);
    const std::uint64_t n = 4096;
    for (std::uint64_t i = 0; i < n; ++i)
        chip.writeValue(i, rng() & 0xFFFFFFFF);
    chip.initRange(0, n);
    for (auto _ : state) {
        auto r = chip.extract(0, n, false);
        if (!r.found) {
            chip.initRange(0, n);
        }
        benchmark::DoNotOptimize(r);
    }
}
BENCHMARK(BM_BitLevelExtractParallel)->Arg(2)->Arg(4);

/** Values per StoreArray: the benchmark's wire_store request size. */
constexpr std::uint64_t kStoreArrayValues = 16 * 1024;

/** A StoreArray request message of kStoreArrayValues 32-bit keys. */
service::wire::Message
storeArrayMessage()
{
    service::wire::Message msg;
    msg.kind = service::wire::MessageKind::Request;
    msg.corrId = 1;
    msg.sessionId = 1;
    msg.req.kind = service::RequestKind::StoreArray;
    msg.req.start = 4096;
    Rng rng(7);
    msg.req.values.resize(kStoreArrayValues);
    for (auto &v : msg.req.values)
        v = rng() & 0xFFFFFFFF;
    return msg;
}

void
BM_StoreArrayEncode(benchmark::State &state)
{
    const auto msg = storeArrayMessage();
    std::vector<std::uint8_t> framed;
    for (auto _ : state) {
        framed.clear();
        service::wire::encodeMessage(framed, msg);
        benchmark::DoNotOptimize(framed.data());
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_StoreArrayEncode);

void
BM_StoreArrayDecode(benchmark::State &state)
{
    std::vector<std::uint8_t> framed;
    service::wire::encodeMessage(framed, storeArrayMessage());
    std::vector<std::uint8_t> payload;
    service::wire::Message back;
    for (auto _ : state) {
        std::size_t offset = 0;
        if (readFrame(framed.data(), framed.size(), offset, payload) !=
                FrameStatus::Ok ||
            !service::wire::decodeMessage(payload, back))
            fatal("StoreArray frame failed to decode");
        benchmark::DoNotOptimize(back.req.values.data());
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_StoreArrayDecode);

void
BM_FastModelStoreArray(benchmark::State &state)
{
    LibraryConfig cfg;
    cfg.device.bitLevel = false;
    cfg.autoPublishStats = false;
    RimeLibrary lib(cfg);
    const auto values = storeArrayMessage().req.values;
    const auto start = lib.rimeMalloc(values.size() * 4);
    if (!start)
        fatal("rimeMalloc failed");
    for (auto _ : state) {
        lib.storeArray(*start, values);
        benchmark::DoNotOptimize(lib.now());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(values.size()));
}
BENCHMARK(BM_FastModelStoreArray);

/**
 * A Table-I library on the bit-level chips, one channel: the shape
 * perfbench's scan_bitlevel loads.
 */
LibraryConfig
bitLevelLibraryConfig()
{
    LibraryConfig cfg;
    cfg.device.channels = 1;
    cfg.device.bitLevel = true;
    cfg.driver.startupPages = 1 << 16;
    cfg.driver.growthPages = 1 << 16;
    cfg.autoPublishStats = false;
    return cfg;
}

/** `n` seeded random 32-bit keys. */
std::vector<std::uint64_t>
randomKeys(std::uint64_t n)
{
    Rng rng(11);
    std::vector<std::uint64_t> keys(n);
    for (auto &v : keys)
        v = rng() & 0xFFFFFFFF;
    return keys;
}

/**
 * Host milliseconds of one storeArray of `keys` into a fresh
 * bit-level library (the bulk bit-plane store; construction and
 * allocation untimed).
 */
double
timeBitLevelStore(const std::vector<std::uint64_t> &keys)
{
    RimeLibrary lib(bitLevelLibraryConfig());
    const auto start = lib.rimeMalloc(keys.size() * 4);
    if (!start)
        fatal("bit-level rimeMalloc failed");
    lib.rimeInit(*start, *start, KeyMode::UnsignedFixed, 32);
    const auto t0 = std::chrono::steady_clock::now();
    lib.storeArray(*start, keys);
    return std::chrono::duration<double, std::milli>(
        std::chrono::steady_clock::now() - t0).count();
}

/** 1 Mi keys into a fresh bit-level library per iteration. */
void
BM_BitLevelStore(benchmark::State &state)
{
    const auto keys = randomKeys(1 << 20);
    for (auto _ : state)
        state.SetIterationTime(timeBitLevelStore(keys) / 1e3);
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(keys.size()));
}
BENCHMARK(BM_BitLevelStore)->UseManualTime()
    ->Unit(benchmark::kMillisecond);

/** `n` seeded random bytes: the CRC-32 benchmarks' input. */
std::vector<std::uint8_t>
crcInput(std::int64_t n)
{
    std::vector<std::uint8_t> buf(static_cast<std::size_t>(n));
    Rng rng(9);
    for (auto &b : buf)
        b = static_cast<std::uint8_t>(rng());
    return buf;
}

/** CRC-32 of `state.range(0)` bytes on the dispatched kernel. */
void
BM_Crc32(benchmark::State &state)
{
    const auto buf = crcInput(state.range(0));
    for (auto _ : state)
        benchmark::DoNotOptimize(crc32(buf.data(), buf.size()));
    state.SetBytesProcessed(state.iterations() * state.range(0));
    state.SetLabel(rime::detail::crc32KernelName());
}
BENCHMARK(BM_Crc32)->Arg(64)->Arg(4096)->Arg(128 * 1024);

/** The same spans on the slice-by-8 table alone. */
void
BM_Crc32Table(benchmark::State &state)
{
    const auto buf = crcInput(state.range(0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            rime::detail::crc32Table(buf.data(), buf.size()));
    }
    state.SetBytesProcessed(state.iterations() * state.range(0));
    state.SetLabel("table");
}
BENCHMARK(BM_Crc32Table)->Arg(64)->Arg(4096)->Arg(128 * 1024);

/**
 * Wall-clock self-timing of the bit-level scan -- scalar vs SIMD
 * kernels, then serial vs a forced parallel width vs the default
 * (work-sized) width -- at a paper-scale key count; emits
 * BENCH_scan.json.  The scan work performed (and therefore
 * the deterministic stat dump) is identical for every RIME_SIMD and
 * RIME_THREADS setting: both kernel modes are always timed (forced
 * via kernels::setMode), and only the env-dispatched mode's numbers
 * are reported under the legacy serial/parallel fields.
 */
void
runScanSelfTiming()
{
    using Clock = std::chrono::steady_clock;
    namespace kernels = rime::rimehw::kernels;
    // Strict parse: a garbled RIME_BENCH_KEYS aborts instead of
    // silently timing the default size.  0 keeps the default too.
    std::uint64_t keys = envU64("RIME_BENCH_KEYS", 1ULL << 20);
    if (keys == 0) {
        warn("RIME_BENCH_KEYS=0; using the default key count");
        keys = 1ULL << 20;
    }
    const unsigned parallel_threads =
        std::max(2u, ThreadPool::configuredThreads());
    const unsigned k = 32;
    const int scans = 8;
    const int rounds = 10;

    RimeChip chip(RimeGeometry{}, RimeTimingParams{}, 1);
    chip.configure(k, KeyMode::UnsignedFixed);
    if (keys > chip.valueCapacity())
        keys = chip.valueCapacity();
    Rng rng(42);
    for (std::uint64_t i = 0; i < keys; ++i)
        chip.writeValue(i, rng() & 0xFFFFFFFF);
    chip.initRange(0, keys);

    const auto same = [](const ExtractResult &a,
                         const ExtractResult &b) {
        return a.found == b.found && a.raw == b.raw &&
            a.index == b.index && a.steps == b.steps &&
            a.time == b.time;
    };

    // The variants: the in-process RIME_SIMD A/B (each kernel mode
    // forced; on a host without SIMD kernels both run scalar and the
    // speedup reports ~1), then a forced parallel width and the
    // default width -- as RimeLibrary and the service run it: one
    // shard below the fork-join crossover, more above it -- under
    // the env-dispatched kernels.
    struct Variant
    {
        kernels::Mode mode;
        unsigned width; ///< hostThreads; 0 = the default width
        double ms = std::numeric_limits<double>::infinity();
        std::vector<double> roundMs{}; ///< each round's fastest scan
        ExtractResult r;
    };
    const kernels::Mode env_mode = kernels::envMode();
    Variant scalar{kernels::Mode::Scalar, 1}, simd{kernels::Mode::Simd, 1},
        parallel{env_mode, parallel_threads}, automatic{env_mode, 0};
    // Rounds interleave the variants, and each variant reports its
    // fastest scan (per round, and over all rounds): host interference
    // (preemption, a busy neighbour on a shared machine) then cannot
    // flip an A/B, while a cost every scan pays -- such as a needless
    // pool fork-join per step -- still shows.  scan() is pure, so
    // repeated scans perform identical work; one untimed warm-up scan
    // per variant and round populates lazily allocated state and
    // re-primes the caches.
    for (int round = 0; round < rounds; ++round) {
        for (Variant *v : {&scalar, &simd, &automatic, &parallel}) {
            kernels::setMode(v->mode);
            chip.setHostThreads(v->width);
            v->r = chip.scan(0, keys, false);
            double best = std::numeric_limits<double>::infinity();
            for (int i = 0; i < scans; ++i) {
                const auto t0 = Clock::now();
                v->r = chip.scan(0, keys, false);
                best = std::min(best, std::chrono::duration<double,
                    std::milli>(Clock::now() - t0).count());
            }
            v->roundMs.push_back(best);
            v->ms = std::min(v->ms, best);
        }
    }
    chip.setHostThreads(0);
    const unsigned auto_shards = chip.shardCount();

    // The bulk store of the same key count, median of five fresh
    // libraries.
    const auto store_keys = randomKeys(keys);
    std::vector<double> store_ms;
    for (int i = 0; i < 5; ++i)
        store_ms.push_back(timeBitLevelStore(store_keys));
    const double bitlevel_store_ms = bench::percentile(store_ms, 0.5);
    kernels::setMode(env_mode);
    if (!same(scalar.r, simd.r))
        fatal("SIMD scan diverged from the scalar reference scan");
    if (!same(scalar.r, parallel.r))
        fatal("parallel scan diverged from the serial scan");
    if (!same(scalar.r, automatic.r))
        fatal("default-width scan diverged from the serial scan");

    const double serial_ms = kernels::simdEnabled() ? simd.ms : scalar.ms;
    const double simulated_ns = ticksToNs(scalar.r.time);
    // The SIMD speedup is the median of per-round ratios, each round's
    // fastest scalar scan over its fastest SIMD scan: the two scans of
    // a ratio run back to back, so interference that lasts a whole
    // round or longer slows both sides, and a few disturbed rounds
    // move the median less than they move two global minima.
    std::vector<double> ratios;
    for (int i = 0; i < rounds; ++i) {
        ratios.push_back(simd.roundMs[i] > 0.0
            ? scalar.roundMs[i] / simd.roundMs[i] : 0.0);
    }
    const double simd_speedup = bench::percentile(ratios, 0.5);
    const double simd_speedup_iqr = bench::percentile(ratios, 0.75) -
        bench::percentile(ratios, 0.25);

    std::printf("scan self-timing: %llu keys, k=%u: host %.3f ms "
                "scalar vs %.3f ms %s (%.2fx median, IQR %.2f); "
                "%.3f ms serial vs "
                "%.3f ms at %u threads (%.2fx); %.3f ms at the "
                "default width (%u shards); simulated %.1f "
                "ns/scan; bit-level store %.2f ms\n",
                static_cast<unsigned long long>(keys), k, scalar.ms,
                simd.ms, kernels::availableIsaName(), simd_speedup,
                simd_speedup_iqr,
                serial_ms, parallel.ms, parallel_threads,
                serial_ms / parallel.ms, automatic.ms, auto_shards,
                simulated_ns, bitlevel_store_ms);

    bench::BenchJson json("scan");
    json.field("keys", keys)
        .field("word_bits", k)
        .field("scans_timed", scans)
        .field("rounds_timed", rounds)
        .field("scan_steps", static_cast<std::uint64_t>(
            scalar.r.steps))
        .field("scalar_host_ms_per_scan", scalar.ms)
        .field("simd_host_ms_per_scan", simd.ms)
        .field("simd_isa", kernels::availableIsaName())
        .field("simd_speedup", simd_speedup)
        .field("simd_speedup_iqr", simd_speedup_iqr)
        .field("serial_host_ms_per_scan", serial_ms)
        .field("parallel_host_ms_per_scan", parallel.ms)
        .field("parallel_threads", parallel_threads)
        .field("speedup", parallel.ms > 0.0
            ? serial_ms / parallel.ms : 0.0)
        .field("auto_host_ms_per_scan", automatic.ms)
        .field("auto_shards", auto_shards)
        .field("simulated_ns_per_scan", simulated_ns)
        .field("bitlevel_store_ms", bitlevel_store_ms)
        .write("BENCH_scan.json");

    // Deterministic chip-stat dump: identical scan work for any
    // thread count or kernel mode must produce a bit-identical file
    // (CI diffs the dumps across RIME_THREADS and RIME_SIMD).
    const std::string stats_path =
        envString("RIME_STATS").value_or("STATS_scan.json");
    StatRegistry::process().mergeGroup("chip", chip.stats());
    std::ofstream stats_out(stats_path);
    StatRegistry::process().dumpJson(stats_out);
    stats_out << "\n";
    std::printf("stats: %s\n", stats_path.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    runScanSelfTiming();
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
