/**
 * @file
 * baseline_sim: the Figure-15 baseline path, serial on one thread.
 * Each op profiles all four sorting algorithms with the sampled cache
 * simulation (SortModel::profile) at 1 Mi keys on 64 cores and prices
 * every profile on off-chip DDR4 and in-package HBM
 * (BaselinePerfModel::sortThroughputMKps).  Only sort, cachesim,
 * memsim and perfmodel run.
 */

#include <array>
#include <cmath>
#include <memory>
#include <vector>

#include "cachesim/hierarchy.hh"
#include "common/rng.hh"
#include "energy/energy_model.hh"
#include "perfmodel/baseline.hh"
#include "sort/access_sink.hh"
#include "sort/parallel_model.hh"
#include "sort/sorters.hh"
#include "workloads.hh"

namespace perfbench
{
namespace
{

using rime::SystemKind;
using rime::sort::Algorithm;

/** The Figure-15 size of 1 M keys. */
constexpr std::uint64_t kKeys = 1 << 20;
constexpr unsigned kCores = 64;
/** Keys of one core's partition simulated (a quarter, extrapolated). */
constexpr std::uint64_t kSampleCap = 1 << 12;
constexpr SystemKind kSystems[] = {SystemKind::OffChipDdr4,
                                   SystemKind::InPackageHbm};
constexpr rime::memsim::AccessPattern kPatterns[] = {
    rime::memsim::AccessPattern::Sequential,
    rime::memsim::AccessPattern::Random,
    rime::memsim::AccessPattern::StridedConflict};

struct Models
{
    std::unique_ptr<rime::sort::SortModel> sorts;
    std::unique_ptr<rime::perfmodel::BaselinePerfModel> prices;
};

/** Build both models and run every memory probe the pricing uses. */
Models
buildModels(std::uint64_t seed)
{
    Models m;
    rime::sort::SortModel::Config cfg;
    cfg.sampleCap = kSampleCap;
    cfg.seed = seed;
    m.sorts = std::make_unique<rime::sort::SortModel>(cfg);
    m.prices = std::make_unique<rime::perfmodel::BaselinePerfModel>();
    for (const SystemKind s : kSystems) {
        for (const auto p : kPatterns)
            m.prices->environment(s, p, kCores);
    }
    return m;
}

/** nJ per key of one priced profile (the Figure-19 energy model). */
double
njPerKey(const rime::sort::SortProfile &p, double mkps, SystemKind s)
{
    const double seconds = static_cast<double>(kKeys) / (mkps * 1e6);
    const auto e = rime::energy::EnergyModel().baseline(
        s, seconds, p.instructions, p.memReads + p.memWrites, kCores);
    return e.total() * 1e9 / static_cast<double>(kKeys);
}

/** The sort of one core's partition, fed to `sink`; ns taken. */
double
timedSort(Algorithm algo, const rime::sort::Keys &keys,
          rime::sort::AccessSink &sink)
{
    rime::sort::Keys copy = keys;
    const auto t0 = Clock::now();
    rime::sort::runSort(algo, copy, 0, sink);
    return usBetween(t0, Clock::now()) * 1e3;
}

} // namespace

Outcome
runBaselineSim(const Options &opts, Tracer *tracer)
{
    Outcome out;
    Models models;
    const std::vector<double> setups = timeSetupOnEachCpu(
        [&] { models = Models(); },
        [&] { models = buildModels(opts.seed); });

    constexpr std::size_t kAlgos = std::size(rime::sort::allAlgorithms);
    // Prices of the first op; every later op must repeat them.
    std::array<std::array<double, 2>, kAlgos> first{};
    std::array<std::array<double, 2>, kAlgos> energy{};
    Timed timed;
    std::vector<double> priceUs;
    std::uint64_t ops = 0;
    // The ops rotate over the vCPUs, one rate window on each in turn,
    // so that every run spends the same share of its time on each (see
    // CpuRotation).  Left to the scheduler, the share of ops on fast
    // and slow vCPUs changes from run to run; moving on every op
    // instead adds a migration to each op and inflates p99.
    CpuRotation cpus;
    timed.cpu0S = processCpuSeconds();
    const auto t0 = Clock::now();
    while (true) {
        const double elapsed = secondsSince(t0);
        if (elapsed >= opts.seconds && ops >= kMinOps) {
            timed.spanS = elapsed;
            break;
        }
        cpus.pin(static_cast<std::size_t>(elapsed / kRateWindowS));
        const auto s0 = Clock::now();
        const std::int64_t root = tracer
            ? tracer->add("baseline", "op", ops, tracer->toUs(s0), 0.0)
            : -1;
        double pricing = 0.0;
        for (std::size_t a = 0; a < kAlgos; ++a) {
            const Algorithm algo = rime::sort::allAlgorithms[a];
            const auto p0 = Clock::now();
            const auto profile =
                models.sorts->profile(algo, kKeys, kCores);
            const auto p1 = Clock::now();
            std::array<double, 2> mkps{};
            for (std::size_t s = 0; s < 2; ++s) {
                mkps[s] = models.prices->sortThroughputMKps(
                    profile, algo, kKeys, kCores, kSystems[s]);
            }
            const auto p2 = Clock::now();
            pricing += usBetween(p1, p2) / 2;
            if (tracer) {
                tracer->add("sort", "profile", ops, tracer->toUs(p0),
                            tracer->toUs(p1), 1, root);
                tracer->add("perfmodel", "price", ops, tracer->toUs(p1),
                            tracer->toUs(p2), 1, root);
            }
            for (std::size_t s = 0; s < 2; ++s) {
                if (!std::isfinite(mkps[s]) || mkps[s] <= 0.0) {
                    out.wrong("%s price %g is not finite and positive",
                              rime::sort::algorithmName(algo), mkps[s]);
                    ++out.failed;
                }
                if (ops == 0) {
                    first[a][s] = mkps[s];
                    energy[a][s] =
                        njPerKey(profile, mkps[s], kSystems[s]);
                } else if (mkps[s] != first[a][s]) {
                    out.wrong("%s priced %.17g, first op %.17g",
                              rime::sort::algorithmName(algo), mkps[s],
                              first[a][s]);
                }
            }
        }
        const auto s1 = Clock::now();
        if (tracer)
            tracer->setEnd(root, tracer->toUs(s1));
        timed.latUs.push_back(usBetween(s0, s1));
        timed.doneS.push_back(usBetween(t0, s1) * 1e-6);
        timed.cpuAt.push_back(processCpuSeconds());
        priceUs.push_back(pricing / kAlgos);
        ++ops;
    }

    double logMkps = 0.0, logNj = 0.0;
    for (std::size_t a = 0; a < kAlgos; ++a) {
        for (std::size_t s = 0; s < 2; ++s) {
            logMkps += std::log(first[a][s]);
            logNj += std::log(energy[a][s]);
        }
    }
    out.attempted = ops;
    printSetups(setups);
    out.e2e["setup_s"] = median(setups);
    out.timing({timed});
    // Geometric means over the four algorithms on both systems.
    out.e2e["sim_mkps"] = std::exp(logMkps / (2.0 * kAlgos));
    out.e2e["sim_nj_per_key"] = std::exp(logNj / (2.0 * kAlgos));
    out.exact["sim_mkps"] = out.e2e["sim_mkps"];
    out.exact["sim_nj_per_key"] = out.e2e["sim_nj_per_key"];
    std::printf("baseline_sim: %zu latency samples behind p50/p99\n",
                timed.latUs.size());

    if (!tracer)
        return out;

    out.layer["perfmodel.price_us"] = median(priceUs);

    // One core's partition sorted into a counting sink, then into the
    // cache hierarchy the profile uses (its 1/64 share of the L2).
    rime::Rng rng(opts.seed);
    rime::sort::Keys keys(kSampleCap);
    for (auto &k : keys)
        k = static_cast<std::uint32_t>(rng());
    rime::cachesim::CacheConfig l2 = rime::cachesim::CacheConfig::l2();
    l2.sizeBytes /= kCores;
    double countNs = 0.0, cacheNs = 0.0, accesses = 0.0;
    double l1Miss = 0.0, l1All = 0.0, l2Miss = 0.0, l2All = 0.0;
    for (const Algorithm algo : rime::sort::allAlgorithms) {
        rime::sort::CountingSink counting;
        const double a = tracer->nowUs();
        countNs += timedSort(algo, keys, counting);
        const double b = tracer->nowUs();
        tracer->add("sort", "countingSink", 0, a, b);
        accesses += static_cast<double>(counting.loads() +
                                        counting.stores());
        rime::cachesim::Hierarchy hierarchy(
            1, rime::cachesim::CacheConfig::l1d(), l2);
        rime::sort::CacheSink sink(hierarchy);
        cacheNs += timedSort(algo, keys, sink);
        tracer->add("cachesim", "cacheSink", 0, b, tracer->nowUs());
        l1Miss += static_cast<double>(hierarchy.l1(0).misses());
        l1All += static_cast<double>(hierarchy.l1(0).hits() +
                                     hierarchy.l1(0).misses());
        l2Miss += static_cast<double>(hierarchy.l2().misses());
        l2All += static_cast<double>(hierarchy.l2().hits() +
                                     hierarchy.l2().misses());
    }
    out.layer["sort.ns_per_access"] = countNs / accesses;
    out.layer["cachesim.ns_per_access"] = (cacheNs - countNs) / accesses;
    out.layer["cachesim.maps"] = accesses / (cacheNs - countNs) * 1e3;
    out.layer["cachesim.l1_miss_ratio"] = l1Miss / l1All;
    out.layer["cachesim.l2_miss_ratio"] = l2Miss / l2All;
    out.exact["cachesim.l1_miss_ratio"] = l1Miss / l1All;
    out.exact["cachesim.l2_miss_ratio"] = l2Miss / l2All;

    // The memory probes on a fresh model (set-up's main cost).
    rime::perfmodel::BaselinePerfModel fresh;
    const double p0 = tracer->nowUs();
    for (const SystemKind s : kSystems) {
        for (const auto p : kPatterns)
            fresh.rawEnvironment(s, p, kCores);
    }
    const double p1 = tracer->nowUs();
    tracer->add("memsim", "probe", 0, p0, p1, std::size(kPatterns) * 2);
    out.layer["memsim.probe_s"] = (p1 - p0) * 1e-6;
    out.selfTimes(*tracer);
    return out;
}

} // namespace perfbench
