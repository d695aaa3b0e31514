/**
 * @file
 * scan_bitlevel: an in-process RimeLibrary on the bit-level chip
 * model.  Set-up stores and inits 1 Mi keys; the timed part is
 * repeated minimum extractions, each a column-search scan sharded
 * over the host thread pool.  No net, service or journal code runs.
 */

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "common/parallel.hh"
#include "common/rng.hh"
#include "rime/api.hh"
#include "workloads.hh"

namespace perfbench
{
namespace
{

using rime::Addr;
using rime::KeyMode;
using rime::RimeLibrary;
using rime::Tick;

constexpr std::uint64_t kKeys = 1 << 20;
/** Extractions behind the simulated metrics and the thread A/B. */
constexpr std::uint64_t kPrefix = 8192;

/** Table-I RIME system on the bit-level chips; 0 = RIME_THREADS. */
rime::LibraryConfig
bitLevelConfig(unsigned host_threads)
{
    rime::LibraryConfig cfg;
    cfg.device.channels = 1;
    cfg.device.bitLevel = true;
    cfg.device.hostThreads = host_threads;
    cfg.driver.startupPages = 1 << 16;
    cfg.driver.growthPages = 1 << 16;
    cfg.autoPublishStats = false;
    return cfg;
}

/** Sum of one stat over every chip group of a library. */
double
chipSum(RimeLibrary &lib, const std::string &stat)
{
    double sum = 0.0;
    for (unsigned c = 0; c < lib.device().totalChips(); ++c)
        sum += lib.device().chip(c).stats().get(stat);
    return sum;
}

/** The run's 1 Mi uniform 32-bit keys. */
std::vector<std::uint64_t>
scanKeys(std::uint64_t seed)
{
    rime::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 7);
    std::vector<std::uint64_t> keys(kKeys);
    for (auto &k : keys)
        k = rng() & 0xFFFFFFFFULL;
    return keys;
}

/** A library holding the run's keys in one initialized range. */
struct Loaded
{
    std::unique_ptr<RimeLibrary> lib;
    Addr start = 0;
    Addr end = 0;
    Tick storeTicks = 0;
};

Loaded
load(const std::vector<std::uint64_t> &keys, unsigned host_threads)
{
    Loaded l;
    l.lib = std::make_unique<RimeLibrary>(bitLevelConfig(host_threads));
    const auto addr = l.lib->rimeMalloc(keys.size() * 4);
    if (!addr)
        throw std::runtime_error("bit-level malloc failed");
    l.start = *addr;
    l.end = *addr + keys.size() * 4;
    l.lib->rimeInit(l.start, l.start, KeyMode::UnsignedFixed, 32);
    const Tick t0 = l.lib->now();
    l.lib->storeArray(l.start, keys);
    l.storeTicks = l.lib->now() - t0;
    l.lib->rimeInit(l.start, l.end, KeyMode::UnsignedFixed, 32);
    return l;
}

} // namespace

Outcome
runScanBitlevel(const Options &opts, Tracer *tracer)
{
    Outcome out;
    const unsigned threads = rime::ThreadPool::configuredThreads();
    std::printf("scan_bitlevel: RIME_THREADS width %u\n", threads);

    // The scan pool's workers exist before the set-ups pin this thread
    // (see timeSetupOnEachCpu), so none of them inherits the pin.
    rime::ThreadPool::global().ensureThreads(threads);
    std::vector<std::uint64_t> sorted;
    Loaded run;
    const std::vector<double> setups = timeSetupOnEachCpu(
        [&] { run = Loaded(); },
        [&] {
            sorted = scanKeys(opts.seed);
            run = load(sorted, 0);
        });
    std::sort(sorted.begin(), sorted.end());

    // The timed part runs as segments (segmentsFor), each on a freshly
    // loaded library (untimed): the extraction speed of one library
    // instance differs from the next one's by up to ~10% for its whole
    // life, so a run timed on a single instance measures that instance
    // as much as the code.  Every segment restarts the extractions
    // from the smallest key.  The first one runs at least kPrefix
    // extractions; every segment that reaches kPrefix must repeat its
    // simulated clock, energy and column searches exactly.
    std::vector<Timed> intervals;
    Tick tickP = 0;
    double energyP = 0.0, searchesP = 0.0, prefixUs = 0.0;
    double steps = 0.0, scanNs = 0.0;
    std::uint64_t ops = 0;
    const int segments = segmentsFor(opts.seconds);
    for (int seg = 0; seg < segments; ++seg) {
        if (seg > 0) {
            run = Loaded();
            run = load(scanKeys(opts.seed), 0);
        }
        RimeLibrary &lib = *run.lib;
        const Tick tick0 = lib.now();
        const double energy0 = lib.energyPJ();
        const double searches0 = chipSum(lib, "columnSearches");
        const double steps0 = chipSum(lib, "scanSteps");
        const double scanNs0 = chipSum(lib, "scanWallNs");
        const std::uint64_t minOps = seg == 0 ? kPrefix : 0;
        Timed timed;
        std::uint64_t i = 0;
        timed.cpu0S = processCpuSeconds();
        const auto t0 = Clock::now();
        while (i < kKeys) {
            const double elapsed = secondsSince(t0);
            if (elapsed >= opts.seconds / segments && i >= minOps) {
                timed.spanS = elapsed;
                break;
            }
            const auto a = Clock::now();
            const auto e = lib.rimeMinChecked(run.start, run.end);
            const auto b = Clock::now();
            const double us = usBetween(a, b);
            timed.latUs.push_back(us);
            timed.doneS.push_back(usBetween(t0, b) * 1e-6);
            timed.cpuAt.push_back(processCpuSeconds());
            if (tracer)
                tracer->add("rime", "extract", ops + i, tracer->toUs(a),
                            tracer->toUs(b));
            if (!e.ok() || e.item.raw != sorted[i]) {
                out.wrong("segment %d extraction %llu: got %llu, sorted "
                          "oracle has %llu",
                          seg, static_cast<unsigned long long>(i),
                          static_cast<unsigned long long>(e.item.raw),
                          static_cast<unsigned long long>(sorted[i]));
                ++out.failed;
            }
            ++i;
            if (seg == 0 && i <= kPrefix)
                prefixUs += us;
            if (i != kPrefix)
                continue;
            const Tick tick = lib.now() - tick0;
            const double energy = lib.energyPJ() - energy0;
            const double searches =
                chipSum(lib, "columnSearches") - searches0;
            if (seg == 0) {
                tickP = tick;
                energyP = energy;
                searchesP = searches;
            } else if (tick != tickP || energy != energyP ||
                       searches != searchesP) {
                out.wrong("segment %d: the %llu-extraction prefix took "
                          "%llu ticks, %.17g pJ, %.17g searches; "
                          "segment 0 took %llu, %.17g, %.17g",
                          seg, static_cast<unsigned long long>(kPrefix),
                          static_cast<unsigned long long>(tick), energy,
                          searches,
                          static_cast<unsigned long long>(tickP),
                          energyP, searchesP);
            }
        }
        if (timed.spanS == 0.0)
            timed.spanS = secondsSince(t0);
        steps += chipSum(lib, "scanSteps") - steps0;
        scanNs += chipSum(lib, "scanWallNs") - scanNs0;
        ops += i;
        const TimingMetrics m = timingMetrics({timed}, kRateWindowS);
        std::printf("segment %d: %llu extractions, %.0f ops/s, p50 %.1f "
                    "us, %.1f cpu us/op\n",
                    seg, static_cast<unsigned long long>(i), m.opsPerS,
                    m.p50Us.value_or(NAN), m.cpuUsPerOp);
        intervals.push_back(std::move(timed));
    }

    out.attempted = ops;
    printSetups(setups);
    out.e2e["setup_s"] = median(setups);
    out.timing(intervals);
    const double simS = rime::ticksToSeconds(tickP);
    const double prefix = static_cast<double>(kPrefix);
    out.e2e["sim_mkps"] = prefix / simS / 1e6;
    out.e2e["sim_nj_per_key"] = energyP * 1e-3 / prefix;
    out.exact["sim_mkps"] = out.e2e["sim_mkps"];
    out.exact["sim_nj_per_key"] = out.e2e["sim_nj_per_key"];
    out.exact["rimehw.column_searches_per_extract"] = searchesP / prefix;
    std::printf("scan_bitlevel: %llu latency samples behind p50/p99\n",
                static_cast<unsigned long long>(ops));

    if (!tracer)
        return out;

    out.layer["rimehw.scan_step_us"] =
        steps > 0 ? scanNs * 1e-3 / steps : 0.0;
    out.layer["rimehw.column_searches_per_extract"] =
        out.exact["rimehw.column_searches_per_extract"];
    out.layer["sim.extract_ns"] = rime::ticksToNs(tickP) / prefix;
    out.layer["sim.store_ns"] =
        rime::ticksToNs(run.storeTicks) / static_cast<double>(kKeys);
    out.exact["sim.extract_ns"] = out.layer["sim.extract_ns"];
    out.exact["sim.store_ns"] = out.layer["sim.store_ns"];
    out.layer["parallel.threads"] = threads;

    // The same prefix scans on one host thread: the pool's speedup,
    // and a check that the thread count changes no simulated result.
    run.lib.reset();
    Loaded serial = load(scanKeys(opts.seed), 1);
    const Tick serialTick0 = serial.lib->now();
    const double serialEnergy0 = serial.lib->energyPJ();
    double serialUs = 0.0;
    for (std::uint64_t i = 0; i < kPrefix; ++i) {
        const double a = tracer->nowUs();
        const auto e = serial.lib->rimeMinChecked(serial.start, serial.end);
        const double b = tracer->nowUs();
        tracer->add("parallel", "extract1Thread", i, a, b);
        serialUs += b - a;
        if (!e.ok() || e.item.raw != sorted[i])
            out.wrong("one-thread extraction %llu differs",
                      static_cast<unsigned long long>(i));
    }
    if (serial.lib->now() - serialTick0 != tickP ||
        serial.lib->energyPJ() - serialEnergy0 != energyP)
        out.wrong("one-thread scans changed the simulated results");
    out.layer["parallel.speedup"] = serialUs / prefixUs;
    out.selfTimes(*tracer);
    return out;
}

} // namespace perfbench
