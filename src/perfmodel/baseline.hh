/**
 * @file
 * Baseline performance model: combines measured below-cache traffic
 * (cachesim via the instrumented workloads), measured sustained
 * bandwidth (memsim probes), and the multicore execution-time model
 * (cpusim) into throughput numbers for the paper's three baseline
 * memory systems.
 */

#ifndef RIME_PERFMODEL_BASELINE_HH
#define RIME_PERFMODEL_BASELINE_HH

#include <map>
#include <memory>
#include <optional>
#include <tuple>

#include "common/system_kind.hh"
#include "cpusim/multicore_model.hh"
#include "memsim/bandwidth_probe.hh"
#include "sort/parallel_model.hh"

namespace rime::perfmodel
{

/**
 * Calibration anchoring the baseline model to the paper's measured
 * operating point.
 *
 * Our standalone DRAM timing model sustains tens of GB/s, but the
 * paper's full-system ESESC testbed measures only 0.3-0.65 GB/s of
 * sustained bandwidth (Figure 1c) and ~10 MKps sort throughput even
 * with unlimited bandwidth (Figure 2a) -- full-system effects
 * (coherence, queueing, scalar MIPS binaries) that a standalone
 * memory model cannot produce.  To reproduce the paper's shapes
 * *and* factors, the baseline environment is anchored to those
 * measured values: sustained bandwidth comes from a per-system /
 * per-pattern anchor table fitted once to Figures 1(c) and 2, scaled
 * by the Figure-1(c) core-count growth curve; the per-core effective
 * instruction rate is anchored to the unlimited-bandwidth curve.
 * The raw (uncalibrated) probe results remain available and are
 * printed by the benches for transparency.  Set `enabled = false`
 * to run the pure first-principles model.
 */
struct BaselineCalibration
{
    bool enabled = true;
    /** Sustained GB/s at 64 streams: [system][pattern]. */
    double anchorGBps[2][3] = {
        // Sequential, Random, StridedConflict
        {0.45, 0.40, 0.15}, // off-chip DDR4 (Figure 1c)
        {1.20, 2.60, 0.50}, // in-package HBM (Figure 2b ratios)
    };
    /** Bandwidth at 1 stream as a fraction of the 64-stream anchor
     *  (Figure 1c: ~300 MBps at 1 core vs ~650 MBps at 64). */
    double coreFloor = 0.45;
    /** Effective per-core IPC derate (Figure 2a anchor). */
    double ipcScale = 0.0055;
    /** Loaded-latency contention multiplier. */
    double latencyScale = 4.0;
};

/** Cached-probe baseline performance model. */
class BaselinePerfModel
{
  public:
    explicit BaselinePerfModel(
        const cpusim::CoreParams &cores = cpusim::CoreParams{},
        std::uint64_t probe_requests = 200000,
        const BaselineCalibration &calibration =
            BaselineCalibration{});

    /**
     * Memory environment (sustained bandwidth + loaded latency) of a
     * system under a given access pattern and parallelism.
     *
     * @param streams concurrent request streams (roughly the active
     *                core count); probes are cached per tuple
     */
    cpusim::MemoryEnvironment environment(SystemKind system,
                                          memsim::AccessPattern
                                              pattern,
                                          unsigned streams);

    /** The raw (uncalibrated) probe result, for reporting. */
    cpusim::MemoryEnvironment rawEnvironment(SystemKind system,
                                             memsim::AccessPattern
                                                 pattern,
                                             unsigned streams);

    /** Execution-time estimate of a profiled workload. */
    cpusim::ExecutionEstimate
    estimate(const cpusim::WorkloadProfile &profile,
             memsim::AccessPattern pattern, SystemKind system,
             unsigned cores)
    {
        cpusim::WorkloadProfile p = profile;
        if (calibration_.enabled)
            p.baseIpc *= calibration_.ipcScale;
        return model_.estimate(p, cores,
                               environment(system, pattern, cores));
    }

    const BaselineCalibration &calibration() const
    { return calibration_; }

    /**
     * Sort throughput in million keys per second for one baseline
     * algorithm (the metric of Figures 2 and 15).
     */
    double sortThroughputMKps(const sort::SortModel &sorts,
                              sort::Algorithm algo, std::uint64_t n,
                              unsigned cores, SystemKind system);

    /**
     * Same, from a precomputed profile.  Profiling (the sampled cache
     * simulation) dominates the cost and depends only on (algo, n,
     * cores), so sweeps compute each profile once -- possibly in
     * parallel -- and price it here for every memory system.
     */
    double sortThroughputMKps(const sort::SortProfile &profile,
                              sort::Algorithm algo, std::uint64_t n,
                              unsigned cores, SystemKind system);

    const cpusim::MulticoreModel &model() const { return model_; }

  private:
    cpusim::MulticoreModel model_;
    std::uint64_t probeRequests_;
    BaselineCalibration calibration_;
    std::unique_ptr<memsim::DramSystem> ddr4_;
    std::unique_ptr<memsim::DramSystem> hbm_;
    std::map<std::tuple<int, int, unsigned>,
             cpusim::MemoryEnvironment> cache_;
    /** Idle (dependent-chain) latency of DDR4 and HBM, once probed. */
    std::optional<double> idleLatencyNs_[2];
};

} // namespace rime::perfmodel

#endif // RIME_PERFMODEL_BASELINE_HH
