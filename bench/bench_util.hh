/**
 * @file
 * Shared helpers for the figure-regeneration benches: the paper's
 * data-size sweep, the Table-I RIME configuration, RIME throughput
 * measurement with a simulation cap, and uniform table printing.
 *
 * Environment knobs:
 *  - RIME_BENCH_SCALE: scales every simulation cap (default 1.0;
 *    0.25 gives a quick smoke run, 4 a higher-fidelity run).
 *  - RIME_STATS: path of the JSON stat dump each bench writes on
 *    exit (default STATS_<bench>.json in the working directory).
 *  - RIME_SWEEP_THREADS: configurations simulated concurrently by
 *    the sweep benches (default: hardware concurrency).  Outputs are
 *    bit-identical for any value (see sweepParallel).
 */

#ifndef RIME_BENCH_BENCH_UTIL_HH
#define RIME_BENCH_BENCH_UTIL_HH

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/env.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "common/stat_registry.hh"
#include "rime/ops.hh"
#include "rimehw/kernels.hh"

namespace rime::bench
{

/**
 * The q-quantile (q in [0, 1]) of `samples`: the sample at rank
 * floor(q * (n - 1)) after sorting `samples` in place; 0 when empty.
 */
inline double
percentile(std::vector<double> &samples, double q)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const auto idx = static_cast<std::size_t>(
        q * static_cast<double>(samples.size() - 1));
    return samples[idx];
}

/**
 * Ordered writer for the machine-readable BENCH_*.json artifacts.
 * Every emitted object leads with the same provenance stamp -- the
 * bench name, the dispatched kernel ISA (scalar/avx2/neon), and the
 * RIME_SIMD / RIME_THREADS knob values -- so a result file always
 * records which code path and configuration produced it.
 */
class BenchJson
{
  public:
    explicit BenchJson(const std::string &bench)
    {
        field("bench", bench);
        field("isa", rimehw::kernels::isaName());
        field("rime_simd", rimehw::kernels::envModeName());
        field("rime_threads", static_cast<std::uint64_t>(
            ThreadPool::configuredThreads()));
    }

    BenchJson &
    field(const std::string &name, const std::string &value)
    {
        return raw(name, "\"" + value + "\"");
    }

    BenchJson &
    field(const std::string &name, const char *value)
    {
        return field(name, std::string(value));
    }

    BenchJson &
    field(const std::string &name, bool value)
    {
        return raw(name, value ? "true" : "false");
    }

    BenchJson &
    field(const std::string &name, double value)
    {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%g", value);
        return raw(name, buf);
    }

    BenchJson &
    field(const std::string &name, std::uint64_t value)
    {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%llu",
                      static_cast<unsigned long long>(value));
        return raw(name, buf);
    }

    BenchJson &
    field(const std::string &name, unsigned value)
    {
        return field(name, static_cast<std::uint64_t>(value));
    }

    BenchJson &
    field(const std::string &name, int value)
    {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%d", value);
        return raw(name, buf);
    }

    /** Attach a pre-rendered JSON value (nested array/object). */
    BenchJson &
    raw(const std::string &name, std::string json)
    {
        fields_.emplace_back(name, std::move(json));
        return *this;
    }

    /** Write the object to `path`; logs and returns false on error. */
    bool
    write(const std::string &path) const
    {
        std::ofstream out(path);
        if (!out) {
            warn("cannot write %s", path.c_str());
            return false;
        }
        out << "{\n";
        for (std::size_t i = 0; i < fields_.size(); ++i) {
            out << "  \"" << fields_[i].first << "\": "
                << fields_[i].second
                << (i + 1 < fields_.size() ? "," : "") << "\n";
        }
        out << "}\n";
        std::printf("wrote %s\n", path.c_str());
        return true;
    }

  private:
    std::vector<std::pair<std::string, std::string>> fields_;
};

/** RIME_BENCH_SCALE (default 1.0); garbage aborts, <= 0 warns. */
inline double
benchScale()
{
    const double v = envDouble("RIME_BENCH_SCALE", 1.0);
    if (v <= 0.0) {
        warn("RIME_BENCH_SCALE=%g is not positive; using 1.0", v);
        return 1.0;
    }
    return v;
}

/**
 * Dump the process-wide stat registry (everything published by the
 * RimeLibrary instances this bench created) as JSON to RIME_STATS, or
 * to STATS_<bench>.json by default.  Wall-clock stats are excluded,
 * so the dump is bit-identical for any RIME_THREADS.
 */
inline void
writeStatsJson(const std::string &bench)
{
    const std::string path = envString("RIME_STATS")
        .value_or("STATS_" + bench + ".json");
    std::ofstream out(path);
    if (!out) {
        warn("cannot write stat dump to %s", path.c_str());
        return;
    }
    StatRegistry::process().dumpJson(out);
    out << "\n";
    std::printf("stats: %s\n", path.c_str());
}

/** Apply the bench scale to a simulation cap. */
inline std::uint64_t
scaledCap(std::uint64_t cap)
{
    const auto scaled = static_cast<std::uint64_t>(
        static_cast<double>(cap) * benchScale());
    return std::max<std::uint64_t>(scaled, 1 << 14);
}

/** The paper's data-size sweep (0.5M - 65M keys). */
inline std::vector<std::uint64_t>
paperSizes()
{
    return {512 * 1024,       1 * 1024 * 1024,  2 * 1024 * 1024,
            4 * 1024 * 1024,  8 * 1024 * 1024,  16 * 1024 * 1024,
            32 * 1024 * 1024, 65 * 1024 * 1024};
}

/** Millions with one decimal, as the paper's x axes. */
inline std::string
millions(std::uint64_t n)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1f", n / 1048576.0);
    return buf;
}

/** Table-I RIME system (one channel of eight 1 Gb chips). */
inline LibraryConfig
tableOneRime()
{
    LibraryConfig cfg;
    cfg.device.channels = 1;
    cfg.device.geometry = rimehw::RimeGeometry{};
    cfg.device.timing = rimehw::RimeTimingParams{};
    cfg.device.bitLevel = false;
    cfg.driver.startupPages = 1 << 16;
    cfg.driver.growthPages = 1 << 16;
    return cfg;
}

/** Uniform random 32-bit raw keys. */
inline std::vector<std::uint64_t>
randomRaws(std::uint64_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::uint64_t> raws(n);
    for (auto &r : raws)
        r = rng() & 0xFFFFFFFFULL;
    return raws;
}

/**
 * RIME sort throughput (MKps) at size n: simulate min(n, cap) keys
 * in full (RIME throughput is size-insensitive, which the simulated
 * range itself demonstrates) and report the simulated value.
 */
inline double
rimeSortThroughputMKps(std::uint64_t n, std::uint64_t cap,
                       std::uint64_t seed = 99)
{
    const std::uint64_t sim = std::min(n, cap);
    RimeLibrary lib(tableOneRime());
    const auto raws = randomRaws(sim, seed);
    const auto result = rimeSort(lib, raws, KeyMode::UnsignedFixed,
                                 32, /*include_load=*/false);
    return result.throughputKeysPerSec() / 1e6;
}

/** RIME_SWEEP_THREADS when set (>0), else hardware concurrency. */
inline unsigned
sweepThreads()
{
    const std::uint64_t v = envU64("RIME_SWEEP_THREADS", 0);
    if (v > 0)
        return static_cast<unsigned>(v);
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

/**
 * The pool running bench sweep configurations.  Deliberately separate
 * from ThreadPool::global(): sweep tasks themselves drive simulations
 * that may call into the global pool (the bit-level chips' scan
 * engine), and ThreadPool::run is not reentrant.  Two pools keep the
 * two levels of parallelism -- across configurations here, within one
 * chip scan there -- composable.
 */
inline ThreadPool &
sweepPool()
{
    static ThreadPool pool(sweepThreads());
    return pool;
}

/**
 * Run fn(0) .. fn(tasks-1) on the sweep pool and return the results
 * indexed by task.  Tasks must be independent (each builds its own
 * simulator state); results land in task order regardless of
 * completion order, so a sweep's output is bit-identical for any
 * RIME_SWEEP_THREADS.
 */
template <typename Fn>
auto
sweepParallel(unsigned tasks, Fn &&fn)
    -> std::vector<decltype(fn(0u))>
{
    std::vector<decltype(fn(0u))> results(tasks);
    sweepPool().run(tasks,
                    [&](unsigned i) { results[i] = fn(i); });
    return results;
}

/**
 * One sweep configuration's RIME measurement: the throughput plus the
 * run's stats, captured from the library before it was destroyed.
 * Captured registries must be published with publishSweepStats (in
 * task order, on the main thread) rather than by the library
 * destructor, whose publish order under a parallel sweep would depend
 * on completion order.
 */
struct RimeSweepPoint
{
    double mkps = 0.0;
    std::unique_ptr<StatRegistry> stats;
};

/**
 * The sweep-task variant of rimeSortThroughputMKps: identical
 * simulation, but stats are captured instead of auto-published.
 */
inline RimeSweepPoint
rimeSortThroughputPoint(std::uint64_t n, std::uint64_t cap,
                        std::uint64_t seed = 99)
{
    const std::uint64_t sim = std::min(n, cap);
    LibraryConfig cfg = tableOneRime();
    cfg.autoPublishStats = false;
    RimeSweepPoint point;
    {
        RimeLibrary lib(cfg);
        const auto raws = randomRaws(sim, seed);
        const auto result = rimeSort(lib, raws,
                                     KeyMode::UnsignedFixed, 32,
                                     /*include_load=*/false);
        point.mkps = result.throughputKeysPerSec() / 1e6;
        point.stats = std::make_unique<StatRegistry>();
        point.stats->mergeRegistry(lib.statRegistry());
    }
    return point;
}

/**
 * Merge captured sweep registries into the process accumulator in
 * task order.  A capture starts every counter at 0.0 (0.0 + x == x
 * exactly), so capture-then-merge reproduces the serial sweep's
 * published values bit for bit.
 */
template <typename Points>
inline void
publishSweepStats(const Points &points)
{
    for (const auto &p : points) {
        if (p.stats)
            StatRegistry::process().mergeRegistry(*p.stats);
    }
}

/** Print a row of a figure table. */
inline void
printRow(const std::string &label, const std::vector<double> &values)
{
    std::printf("%-14s", label.c_str());
    for (const double v : values)
        std::printf(" %10.3f", v);
    std::printf("\n");
}

inline void
printHeader(const std::string &label,
            const std::vector<std::string> &columns)
{
    std::printf("%-14s", label.c_str());
    for (const auto &c : columns)
        std::printf(" %10s", c.c_str());
    std::printf("\n");
}

} // namespace rime::bench

#endif // RIME_BENCH_BENCH_UTIL_HH
