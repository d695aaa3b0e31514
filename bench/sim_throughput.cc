/**
 * @file
 * Simulation-speed bench: how many simulated events per second the
 * simulator sustains, with an exactness check on every stream.
 *
 * Three representative streams are replayed:
 *
 *  - "heap": the traced binary heap under priority-queue churn (the
 *    fig18 baseline sample loop).
 *  - "sort": the instrumented mergesort address stream (the fig15
 *    baseline profile loop).
 *  - "scan": bit-level RIME extraction (the sort kernel itself),
 *    scalar kernels vs the dispatched SIMD kernels (kernels.hh).
 *
 * The heap and sort streams run once, through the batched cache
 * pipeline, and their access and memory-traffic counters are compared
 * with values recorded below for RIME_BENCH_SCALE=0.1 and 1 (other
 * scales are timed but unchecked).  The scan stream runs twice, with
 * the kernel layer forced scalar and SIMD via kernels::setMode, and
 * the extracted sequences and chip stat counters of the two runs are
 * diffed.  Any mismatch is a correctness failure and exits nonzero.
 * Results go to stdout and to BENCH_simspeed.json (override with
 * RIME_SIMSPEED_JSON).
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>

#include "bench/bench_util.hh"
#include "cachesim/hierarchy.hh"
#include "rimehw/chip.hh"
#include "rimehw/kernels.hh"
#include "sort/sorters.hh"
#include "workloads/traced_heap.hh"

using namespace rime;
using namespace rime::bench;
using namespace rime::cachesim;

namespace
{

/** One pipeline's measurement. */
struct PipelineRun
{
    double seconds = 0.0;
    std::uint64_t accesses = 0;
    std::uint64_t memReads = 0;
    std::uint64_t memWrites = 0;
    /** Scan stream only: hash of the extracted (raw, index) pairs. */
    std::uint64_t checksum = 0;
    /** Scan stream only: sum of the deterministic chip counters. */
    std::uint64_t statEvents = 0;

    double
    accessesPerSec() const
    {
        return seconds > 0.0 ? static_cast<double>(accesses) / seconds
                             : 0.0;
    }
};

/** Two runs agree on every deterministic counter. */
bool
countersMatch(const PipelineRun &a, const PipelineRun &b)
{
    return a.accesses == b.accesses && a.memReads == b.memReads &&
        a.memWrites == b.memWrites && a.checksum == b.checksum &&
        a.statEvents == b.statEvents;
}

/**
 * Counters of one baseline stream at one size, recorded when the
 * simulator still carried its unoptimised reference pipeline (which
 * agreed with the batched one bit-for-bit).  `initial` is the heap's
 * prefill (0 for sort), `n` the heap churn or the sort's key count.
 */
struct RecordedRun
{
    const char *stream;
    std::uint64_t initial;
    std::uint64_t n;
    std::uint64_t accesses;
    std::uint64_t memReads;
    std::uint64_t memWrites;
};

constexpr RecordedRun kRecorded[] = {
    // RIME_BENCH_SCALE=0.1 (the CI scale).
    {"heap", 16384, 209715, 14149290, 2049, 0},
    {"sort", 0, 209715, 11031119, 26216, 0},
    // RIME_BENCH_SCALE=1.
    {"heap", 131072, 2097152, 172054920, 16385, 0},
    {"sort", 0, 2097152, 133662654, 5766910, 2818048},
};

std::optional<PipelineRun>
recorded(const char *stream, std::uint64_t initial, std::uint64_t n)
{
    for (const RecordedRun &r : kRecorded) {
        if (std::string_view(r.stream) == stream &&
            r.initial == initial && r.n == n) {
            PipelineRun run;
            run.accesses = r.accesses;
            run.memReads = r.memReads;
            run.memWrites = r.memWrites;
            return run;
        }
    }
    return std::nullopt;
}

std::uint64_t
hierarchyAccesses(Hierarchy &h)
{
    const auto &v = h.stats().values();
    return static_cast<std::uint64_t>(v.at("loads") + v.at("stores"));
}

/** Replay the priority-queue churn through the cache pipeline. */
PipelineRun
runHeapStream(std::uint64_t initial, std::uint64_t churn)
{
    // Same sizing as the fig18 baseline sample: one core, default
    // Table-I L1/L2.
    Hierarchy h(1);
    sort::CacheSink sink(h);
    const auto keys = randomRaws(initial + churn, 4242);

    const auto t0 = std::chrono::steady_clock::now();
    {
        sort::AccessBatch batch(sink);
        workloads::TracedHeap heap(batch, /*base=*/0);
        std::uint64_t next = 0;
        for (std::uint64_t i = 0; i < initial; ++i)
            heap.push(keys[next++]);
        for (std::uint64_t i = 0; i < churn; ++i) {
            heap.push(keys[next++]);
            heap.pop();
        }
        // Batch flushes on scope exit, inside the timed region.
    }
    const auto t1 = std::chrono::steady_clock::now();

    PipelineRun run;
    run.seconds = std::chrono::duration<double>(t1 - t0).count();
    run.accesses = hierarchyAccesses(h);
    run.memReads = h.memReads();
    run.memWrites = h.memWrites();
    return run;
}

/** Replay the mergesort address stream through the cache pipeline. */
PipelineRun
runSortStream(std::uint64_t n)
{
    Hierarchy h(1);
    sort::CacheSink sink(h);
    const auto raws = randomRaws(n, 7171);
    sort::Keys keys(raws.begin(), raws.end());

    const auto t0 = std::chrono::steady_clock::now();
    runSort(sort::Algorithm::Mergesort, keys, /*base=*/0, sink);
    const auto t1 = std::chrono::steady_clock::now();

    PipelineRun run;
    run.seconds = std::chrono::duration<double>(t1 - t0).count();
    run.accesses = hierarchyAccesses(h);
    run.memReads = h.memReads();
    run.memWrites = h.memWrites();
    return run;
}

/**
 * Replay bit-level RIME extractions with the kernel layer forced
 * scalar or SIMD.  Extracted values and the deterministic chip stat
 * counters are folded into the run so the caller can diff the two.
 */
PipelineRun
runScanStream(bool scalar, std::uint64_t n, std::uint64_t extractions)
{
    namespace kernels = rimehw::kernels;
    kernels::setMode(scalar ? kernels::Mode::Scalar
                            : kernels::Mode::Simd);
    rimehw::RimeChip chip(rimehw::RimeGeometry{},
                          rimehw::RimeTimingParams{}, 1);
    chip.configure(32, KeyMode::UnsignedFixed);
    const auto raws = randomRaws(n, 1313);
    for (std::uint64_t i = 0; i < n; ++i)
        chip.writeValue(i, raws[i]);
    chip.initRange(0, n);

    std::uint64_t checksum = 0xcbf29ce484222325ULL;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < extractions; ++i) {
        const auto r = chip.extract(0, n, false);
        if (!r.found)
            fatal("scan stream exhausted the range early");
        checksum = (checksum ^ r.raw) * 0x100000001B3ULL;
        checksum = (checksum ^ r.index) * 0x100000001B3ULL;
    }
    const auto t1 = std::chrono::steady_clock::now();
    kernels::setMode(kernels::envMode());

    PipelineRun run;
    run.seconds = std::chrono::duration<double>(t1 - t0).count();
    run.accesses = extractions;
    run.checksum = checksum;
    const auto &stats = chip.stats();
    run.statEvents = static_cast<std::uint64_t>(
        stats.get("columnSearches") + stats.get("scanSteps") +
        stats.get("extractions") + stats.get("rowReads") +
        stats.get("exclusions"));
    return run;
}

/**
 * One stream's result.  For heap and sort, `run` is the timed cache
 * pipeline and `expected` the recorded counters (empty at an
 * unrecorded size).  For scan, `run` is the SIMD run and `expected`
 * the scalar one.
 */
struct StreamResult
{
    const char *name = "";
    PipelineRun run;
    std::optional<PipelineRun> expected;

    bool ok() const { return !expected || countersMatch(*expected, run); }
};

const char *
verdict(const StreamResult &r)
{
    if (!r.expected)
        return "unchecked (no recorded counters at this size)";
    return r.ok() ? "match" : "MISMATCH";
}

void
printCacheStream(const StreamResult &r)
{
    std::printf("%-5s %12llu accesses | %8.3f s (%9.3f Maps) | "
                "mem %llu reads %llu writes | recorded counters %s\n",
                r.name, static_cast<unsigned long long>(r.run.accesses),
                r.run.seconds, r.run.accessesPerSec() / 1e6,
                static_cast<unsigned long long>(r.run.memReads),
                static_cast<unsigned long long>(r.run.memWrites),
                verdict(r));
}

void
printScanStream(const StreamResult &r)
{
    std::printf("%-5s %12llu extractions | scalar %8.3f s | "
                "simd %8.3f s | speedup %5.2fx | counters %s\n",
                r.name, static_cast<unsigned long long>(r.run.accesses),
                r.expected->seconds, r.run.seconds,
                r.run.seconds > 0.0 ? r.expected->seconds / r.run.seconds
                                    : 0.0,
                verdict(r));
}

void
writeJson(const StreamResult &heap, const StreamResult &sort,
          const StreamResult &scan)
{
    const std::string path = envString("RIME_SIMSPEED_JSON")
        .value_or("BENCH_simspeed.json");
    BenchJson json("simspeed");
    for (const StreamResult *r : {&heap, &sort}) {
        char buf[512];
        std::snprintf(
            buf, sizeof(buf),
            "{\n"
            "    \"accesses\": %llu,\n"
            "    \"seconds\": %.6f,\n"
            "    \"accesses_per_sec\": %.1f,\n"
            "    \"mem_reads\": %llu,\n"
            "    \"mem_writes\": %llu,\n"
            "    \"recorded\": %s,\n"
            "    \"counters_match\": %s\n"
            "  }",
            static_cast<unsigned long long>(r->run.accesses),
            r->run.seconds, r->run.accessesPerSec(),
            static_cast<unsigned long long>(r->run.memReads),
            static_cast<unsigned long long>(r->run.memWrites),
            r->expected ? "true" : "false",
            r->expected && r->ok() ? "true" : "false");
        json.raw(r->name, buf);
    }
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "{\n"
        "    \"extractions\": %llu,\n"
        "    \"scalar_seconds\": %.6f,\n"
        "    \"simd_seconds\": %.6f,\n"
        "    \"speedup\": %.3f,\n"
        "    \"counters_match\": %s\n"
        "  }",
        static_cast<unsigned long long>(scan.run.accesses),
        scan.expected->seconds, scan.run.seconds,
        scan.run.seconds > 0.0
            ? scan.expected->seconds / scan.run.seconds
            : 0.0,
        scan.ok() ? "true" : "false");
    json.raw(scan.name, buf);
    json.write(path);
}

} // namespace

int
main()
{
    setVerbose(false);
    std::printf("=== Simulation throughput (simulated accesses/second) "
                "===\n");

    StreamResult heap;
    heap.name = "heap";
    {
        const std::uint64_t initial = scaledCap(1 << 17);
        const std::uint64_t churn = scaledCap(1 << 21);
        heap.run = runHeapStream(initial, churn);
        heap.expected = recorded("heap", initial, churn);
    }
    printCacheStream(heap);

    StreamResult sort;
    sort.name = "sort";
    {
        const std::uint64_t n = scaledCap(1 << 21);
        sort.run = runSortStream(n);
        sort.expected = recorded("sort", 0, n);
    }
    printCacheStream(sort);

    StreamResult scan;
    scan.name = "scan";
    {
        const std::uint64_t n = scaledCap(1 << 17);
        const std::uint64_t extractions =
            std::min(n, std::max<std::uint64_t>(256, n >> 6));
        scan.expected = runScanStream(true, n, extractions);
        scan.run = runScanStream(false, n, extractions);
    }
    printScanStream(scan);

    writeJson(heap, sort, scan);

    for (const StreamResult *r : {&heap, &sort, &scan}) {
        if (!r->ok()) {
            std::fprintf(stderr,
                         "FAIL: %s stream counters diverge from %s\n",
                         r->name,
                         r == &scan ? "the scalar kernels"
                                    : "the recorded values");
            return 1;
        }
    }
    return 0;
}
