/**
 * @file
 * Tests of the multicore execution-time model, the baseline
 * performance model, and the paper's qualitative performance claims:
 * radixsort wins with unlimited bandwidth, quicksort wins on real
 * memories (Figure 2), and HBM beats DDR4.
 */

#include <gtest/gtest.h>

#include "perfmodel/baseline.hh"

using namespace rime;
using namespace rime::cpusim;
using namespace rime::perfmodel;

TEST(MulticoreModel, ComputeBoundScalesWithCores)
{
    MulticoreModel model;
    WorkloadProfile w;
    w.instructions = 1e9;
    w.baseIpc = 2.0;
    w.parallelFraction = 1.0;
    MemoryEnvironment env;
    env.sustainedGBps = 1e9; // effectively unconstrained
    const auto one = model.estimate(w, 1, env);
    const auto four = model.estimate(w, 4, env);
    EXPECT_NEAR(one.totalSeconds / four.totalSeconds, 4.0, 1e-6);
}

TEST(MulticoreModel, AmdahlLimitsScaling)
{
    MulticoreModel model;
    WorkloadProfile w;
    w.instructions = 1e9;
    w.parallelFraction = 0.5;
    MemoryEnvironment env;
    env.sustainedGBps = 1e9;
    const auto one = model.estimate(w, 1, env);
    const auto many = model.estimate(w, 1024, env);
    EXPECT_LT(one.totalSeconds / many.totalSeconds, 2.01);
}

TEST(MulticoreModel, BandwidthBoundDominatesWhenStarved)
{
    MulticoreModel model;
    WorkloadProfile w;
    w.instructions = 1e6; // negligible compute
    w.memReads = 1e8;     // 6.4 GB of traffic
    w.mlp = 16;
    MemoryEnvironment env;
    env.sustainedGBps = 10.0;
    const auto est = model.estimate(w, 64, env);
    EXPECT_NEAR(est.totalSeconds, 6.4e9 / 10e9, 1e-3);
    EXPECT_EQ(est.totalSeconds, est.bandwidthSeconds);
}

TEST(MulticoreModel, LatencyBoundForDependentMisses)
{
    MulticoreModel model;
    WorkloadProfile w;
    w.instructions = 1e6;
    w.memReads = 1e7;
    w.mlp = 1.0; // fully dependent chain
    MemoryEnvironment env;
    env.sustainedGBps = 1e6; // bandwidth never the issue
    env.loadedLatencyNs = 100.0;
    const auto est = model.estimate(w, 1, env);
    EXPECT_NEAR(est.totalSeconds, 1e7 * 100e-9, 1e-6);
}

TEST(BaselinePerf, EnvironmentsAreCachedAndOrdered)
{
    BaselinePerfModel model;
    const auto ddr_seq = model.environment(
        SystemKind::OffChipDdr4, memsim::AccessPattern::Sequential,
        16);
    const auto ddr_rnd = model.environment(
        SystemKind::OffChipDdr4, memsim::AccessPattern::Random, 16);
    const auto hbm_seq = model.environment(
        SystemKind::InPackageHbm, memsim::AccessPattern::Sequential,
        16);
    EXPECT_GT(ddr_seq.sustainedGBps, ddr_rnd.sustainedGBps);
    EXPECT_GT(hbm_seq.sustainedGBps, ddr_seq.sustainedGBps);
    // Second lookup hits the cache (same value).
    const auto again = model.environment(
        SystemKind::OffChipDdr4, memsim::AccessPattern::Sequential,
        16);
    EXPECT_EQ(again.sustainedGBps, ddr_seq.sustainedGBps);
}

TEST(BaselinePerf, Figure2Shapes)
{
    // R/S wins with unlimited bandwidth; with realistic memories it
    // loses its lead (Q/S overtakes it on DDR4).
    BaselinePerfModel model;
    sort::SortModel::Config cfg;
    cfg.sampleCap = 1 << 18;
    sort::SortModel sorts(cfg);
    const std::uint64_t n = 16ULL << 20;
    const unsigned cores = 64;

    const double rs_unl = model.sortThroughputMKps(
        sorts, sort::Algorithm::Radixsort, n, cores,
        SystemKind::Unlimited);
    const double qs_unl = model.sortThroughputMKps(
        sorts, sort::Algorithm::Quicksort, n, cores,
        SystemKind::Unlimited);
    EXPECT_GT(rs_unl, qs_unl);

    const double rs_ddr = model.sortThroughputMKps(
        sorts, sort::Algorithm::Radixsort, n, cores,
        SystemKind::OffChipDdr4);
    const double qs_ddr = model.sortThroughputMKps(
        sorts, sort::Algorithm::Quicksort, n, cores,
        SystemKind::OffChipDdr4);
    EXPECT_GT(qs_ddr, rs_ddr);
}

TEST(BaselinePerf, HbmBeatsDdr4ForEverySort)
{
    BaselinePerfModel model;
    sort::SortModel::Config cfg;
    cfg.sampleCap = 1 << 18;
    sort::SortModel sorts(cfg);
    const std::uint64_t n = 16ULL << 20;
    for (const auto algo : sort::allAlgorithms) {
        const double ddr = model.sortThroughputMKps(
            sorts, algo, n, 64, SystemKind::OffChipDdr4);
        const double hbm = model.sortThroughputMKps(
            sorts, algo, n, 64, SystemKind::InPackageHbm);
        EXPECT_GT(hbm, ddr) << sort::algorithmName(algo);
        EXPECT_GT(ddr, 0.0);
    }
}

TEST(BaselinePerf, ThroughputDropsWithDataSize)
{
    BaselinePerfModel model;
    sort::SortModel::Config cfg;
    cfg.sampleCap = 1 << 18;
    sort::SortModel sorts(cfg);
    const double small = model.sortThroughputMKps(
        sorts, sort::Algorithm::Mergesort, 1ULL << 20, 64,
        SystemKind::OffChipDdr4);
    const double large = model.sortThroughputMKps(
        sorts, sort::Algorithm::Mergesort, 64ULL << 20, 64,
        SystemKind::OffChipDdr4);
    EXPECT_GT(small, large);
}

namespace
{

/** One pinned memory-probe case at 64 streams. */
struct ProbePin
{
    SystemKind system;
    memsim::AccessPattern pattern;
    double sustainedGBps;
    double loadedLatencyNs;
    double rowHitRate;
    double avgLatencyNs;
};

/**
 * Raw probe results of the Fig. 15/19 pricing, recorded before the
 * memsim counters became cached handles and the tFAW window a ring.
 * Every value is a deterministic function of the command-level
 * timing, so any change to a completion tick or a counter moves one.
 */
constexpr ProbePin kProbePins[] = {
    {SystemKind::OffChipDdr4, memsim::AccessPattern::Sequential,
     63.894414480071681, 67.384500000000003, 0.96799999999999997,
     100140.649},
    {SystemKind::OffChipDdr4, memsim::AccessPattern::Random,
     21.871312953712273, 67.384500000000003, 0.00023000000000000001,
     291418.49021000002},
    {SystemKind::OffChipDdr4, memsim::AccessPattern::StridedConflict,
     0.47232610885334514, 67.384500000000003, 0.0, 13549990.3747875},
    {SystemKind::InPackageHbm, memsim::AccessPattern::Sequential,
     45.21282702031575, 65.932749999999999, 0.0, 141511.77632},
    {SystemKind::InPackageHbm, memsim::AccessPattern::Random,
     23.795581086231095, 65.932749999999999, 0.00027500000000000002,
     265686.9400075},
    {SystemKind::InPackageHbm, memsim::AccessPattern::StridedConflict,
     0.47232613499693482, 65.932749999999999, 0.0, 13549988.8747875},
};

} // namespace

TEST(GoldenPins, RawEnvironmentsAreBitIdentical)
{
    BaselinePerfModel model;
    for (const ProbePin &pin : kProbePins) {
        SCOPED_TRACE(static_cast<int>(pin.system) * 10 +
                     static_cast<int>(pin.pattern));
        const auto env = model.rawEnvironment(pin.system, pin.pattern,
                                              64);
        EXPECT_EQ(env.sustainedGBps, pin.sustainedGBps);
        EXPECT_EQ(env.loadedLatencyNs, pin.loadedLatencyNs);
    }
}

TEST(GoldenPins, ProbeRowHitRatesAreBitIdentical)
{
    // The probe BaselinePerfModel runs: 200 000 requests, 75% reads,
    // 64 streams, default seed.
    for (const ProbePin &pin : kProbePins) {
        SCOPED_TRACE(static_cast<int>(pin.system) * 10 +
                     static_cast<int>(pin.pattern));
        memsim::DramSystem mem(pin.system == SystemKind::OffChipDdr4
                                   ? memsim::DramParams::offChipDdr4()
                                   : memsim::DramParams::inPackageHbm());
        const auto probe =
            memsim::probeBandwidth(mem, pin.pattern, 200000, 0.75, 64);
        EXPECT_EQ(probe.rowHitRate, pin.rowHitRate);
        EXPECT_EQ(probe.sustainedGBps, pin.sustainedGBps);
        EXPECT_EQ(probe.avgLatencyNs, pin.avgLatencyNs);
    }
}

TEST(GoldenPins, SortProfilesAreBitIdentical)
{
    // The profiles of the Fig. 15 baseline path at 1 Mi keys on 64
    // cores, sampled at 4 Ki keys per partition, seed 7.
    struct ProfilePin
    {
        sort::Algorithm algo;
        double memReads;
        double memWrites;
        double instructions;
    };
    const ProfilePin pins[] = {
        {sort::Algorithm::Mergesort, 524288, 393216, 133086208},
        {sort::Algorithm::Quicksort, 314572.79999999999, 65536,
         88240640},
        {sort::Algorithm::Radixsort, 3276800, 3145728, 18874368},
        {sort::Algorithm::Heapsort, 131072, 65536, 162109952},
    };
    sort::SortModel::Config cfg;
    cfg.sampleCap = 4096;
    cfg.seed = 7;
    const sort::SortModel sorts(cfg);
    for (const ProfilePin &pin : pins) {
        SCOPED_TRACE(sort::algorithmName(pin.algo));
        const auto p = sorts.profile(pin.algo, 1ULL << 20, 64);
        EXPECT_EQ(p.memReads, pin.memReads);
        EXPECT_EQ(p.memWrites, pin.memWrites);
        EXPECT_EQ(p.instructions, pin.instructions);
    }
}
