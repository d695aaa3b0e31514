#include "baseline.hh"

#include <limits>

namespace rime::perfmodel
{

BaselinePerfModel::BaselinePerfModel(const cpusim::CoreParams &cores,
                                     std::uint64_t probe_requests,
                                     const BaselineCalibration &cal)
    : model_(cores), probeRequests_(probe_requests),
      calibration_(cal),
      ddr4_(std::make_unique<memsim::DramSystem>(
          memsim::DramParams::offChipDdr4())),
      hbm_(std::make_unique<memsim::DramSystem>(
          memsim::DramParams::inPackageHbm()))
{}

cpusim::MemoryEnvironment
BaselinePerfModel::rawEnvironment(SystemKind system,
                                  memsim::AccessPattern pattern,
                                  unsigned streams)
{
    streams = std::min(std::max(streams, 1u), 64u);
    const auto key = std::make_tuple(static_cast<int>(system),
                                     static_cast<int>(pattern),
                                     streams);
    auto it = cache_.find(key);
    if (it != cache_.end())
        return it->second;

    cpusim::MemoryEnvironment env;
    if (system == SystemKind::Unlimited) {
        env.sustainedGBps = std::numeric_limits<double>::infinity();
        env.loadedLatencyNs = 60.0;
    } else {
        memsim::DramSystem &mem =
            system == SystemKind::OffChipDdr4 ? *ddr4_ : *hbm_;
        const auto probe = memsim::probeBandwidth(
            mem, pattern, probeRequests_, 0.75, streams);
        env.sustainedGBps = probe.sustainedGBps;
        // Dependent-chain latency; the closed-loop probe's average
        // includes unbounded queueing and is not what a core's miss
        // chain experiences.  Every probe starts from a reset system,
        // so it depends on the system alone and runs once per system.
        std::optional<double> &idle =
            idleLatencyNs_[system == SystemKind::OffChipDdr4 ? 0 : 1];
        if (!idle)
            idle = memsim::probeIdleLatencyNs(mem, 2000);
        env.loadedLatencyNs = std::max(*idle, 20.0);
    }
    cache_.emplace(key, env);
    return env;
}

cpusim::MemoryEnvironment
BaselinePerfModel::environment(SystemKind system,
                               memsim::AccessPattern pattern,
                               unsigned streams)
{
    cpusim::MemoryEnvironment env =
        rawEnvironment(system, pattern, streams);
    if (!calibration_.enabled || system == SystemKind::Unlimited)
        return env;

    // Anchor to the paper's measured sustained bandwidth, scaled by
    // the Figure-1(c) growth with the number of active streams.
    const int sys_idx = system == SystemKind::OffChipDdr4 ? 0 : 1;
    const int pat_idx = static_cast<int>(pattern);
    const double anchor =
        calibration_.anchorGBps[sys_idx][pat_idx];
    const double s = std::min<double>(std::max(streams, 1u), 64) /
        64.0;
    env.sustainedGBps = anchor *
        (calibration_.coreFloor + (1.0 - calibration_.coreFloor) * s);
    env.loadedLatencyNs *= calibration_.latencyScale;
    return env;
}

double
BaselinePerfModel::sortThroughputMKps(const sort::SortModel &sorts,
                                      sort::Algorithm algo,
                                      std::uint64_t n, unsigned cores,
                                      SystemKind system)
{
    return sortThroughputMKps(sorts.profile(algo, n, cores), algo, n,
                              cores, system);
}

double
BaselinePerfModel::sortThroughputMKps(const sort::SortProfile &profile,
                                      sort::Algorithm algo,
                                      std::uint64_t n, unsigned cores,
                                      SystemKind system)
{
    cpusim::WorkloadProfile w;
    w.name = sort::algorithmName(algo);
    w.instructions = profile.instructions;
    w.memReads = profile.memReads;
    w.memWrites = profile.memWrites;
    w.baseIpc = profile.baseIpc;
    w.mlp = profile.mlp;
    w.parallelFraction = 0.98;
    const auto est = estimate(w, profile.pattern, system, cores);
    return est.totalSeconds > 0
        ? static_cast<double>(n) / est.totalSeconds / 1e6 : 0.0;
}

} // namespace rime::perfmodel
