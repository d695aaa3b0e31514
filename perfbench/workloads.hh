/**
 * @file
 * The benchmark's workloads.  Each one generates its inputs from the
 * seed, drives the RIME stack through public entry points only,
 * checks every output, and fills an Outcome.  With a tracer it also
 * measures the per-layer metrics of its traced pass.
 */

#ifndef RIME_PERFBENCH_WORKLOADS_HH
#define RIME_PERFBENCH_WORKLOADS_HH

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "measure.hh"

namespace perfbench
{

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Working directory for journals and trace files. */
    std::string workDir = ".bench_build/work";
};

/**
 * Pins the calling thread to each CPU it may run on, in turn, and
 * restores its CPU mask on destruction.  The development host's vCPUs
 * run at different speeds (up to 1.5x apart), so a single-threaded
 * measurement taken wherever the scheduler happens to leave the
 * thread measures that placement as much as the work; rotating
 * samples every vCPU equally.  Threads created while pinned inherit
 * the pin, so callers must not create any.
 */
class CpuRotation
{
  public:
    CpuRotation()
    {
        CPU_ZERO(&mask_);
        if (sched_getaffinity(0, sizeof(mask_), &mask_) == 0) {
            for (int c = 0; c < CPU_SETSIZE; ++c) {
                if (CPU_ISSET(c, &mask_))
                    cpus_.push_back(c);
            }
        }
    }

    ~CpuRotation() { sched_setaffinity(0, sizeof(mask_), &mask_); }

    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

    /** CPUs the thread may run on (at least 1). */
    std::size_t
    count() const
    {
        return cpus_.empty() ? 1 : cpus_.size();
    }

    /** Pin the calling thread to CPU `i` modulo count(). */
    void
    pin(std::size_t i)
    {
        if (cpus_.empty())
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[i % cpus_.size()], &one);
        sched_setaffinity(0, sizeof(one), &one);
    }

  private:
    cpu_set_t mask_;
    std::vector<int> cpus_;
};

/**
 * Time `setup` kSetupsPerCpu times on every CPU (see CpuRotation),
 * calling the untimed `teardown` before each; setup_s is the median
 * of these times.  Neither may create a thread.
 */
constexpr std::size_t kSetupsPerCpu = 4;

template <typename Teardown, typename Setup>
std::vector<double>
timeSetupOnEachCpu(Teardown &&teardown, Setup &&setup)
{
    CpuRotation cpus;
    std::vector<double> took;
    for (std::size_t i = 0; i < kSetupsPerCpu * cpus.count(); ++i) {
        cpus.pin(i);
        teardown();
        const auto t0 = Clock::now();
        setup();
        took.push_back(secondsSince(t0));
    }
    return took;
}

/** Print the set-up times behind setup_s. */
inline void
printSetups(const std::vector<double> &setups)
{
    std::printf("set-ups (s):");
    for (const double s : setups)
        std::printf(" %.4f", s);
    std::printf("\n");
}
/** Ops a pass makes at least, so that p99 has 10 samples beyond it. */
constexpr std::uint64_t kMinOps = 1000;
/** Window of the ops_per_s median. */
constexpr double kRateWindowS = 0.5;

/**
 * Segments of a timed pass: 10, but none shorter than a second.  The
 * wire and scan workloads time each segment on a freshly built stack
 * or library, so one instance's placement and layout do not set the
 * whole run.
 */
inline int
segmentsFor(double seconds)
{
    return std::clamp(static_cast<int>(seconds), 1, 10);
}

/** What one pass of a workload measured. */
struct Outcome
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** End-to-end metrics by name (units live in main.cc). */
    std::map<std::string, double> e2e;
    /** Per-layer metrics of a traced pass, by name. */
    std::map<std::string, double> layer;
    /**
     * Values that must repeat bit for bit on every run with this
     * seed, traced or not: simulated results and count metrics.
     */
    std::map<std::string, double> exact;

    /**
     * Fill the host-time end-to-end metrics from timed intervals, and
     * p99_us, which main.cc prints and reports as latency.p99_us.
     */
    void
    timing(const std::vector<Timed> &intervals)
    {
        const TimingMetrics m = timingMetrics(intervals, kRateWindowS);
        e2e["ops_per_s"] = m.opsPerS;
        e2e["p50_us"] = m.p50Us.value_or(NAN);
        e2e["p99_us"] = m.p99Us.value_or(NAN);
        e2e["cpu_us_per_op"] = m.cpuUsPerOp;
        e2e["peak_rss_mb"] = peakRssMb();
    }

    /** Self time per request of every layer with spans. */
    void
    selfTimes(const Tracer &tracer)
    {
        for (const auto &[name, v] : tracer.selfTimeUs()) {
            if (v.second > 0)
                layer["self_us." + name] = v.first / v.second;
        }
    }

    /** Record an output-check failure (printed to stderr). */
    void
    wrong(const char *fmt, ...) __attribute__((format(printf, 2, 3)))
    {
        correct = false;
        if (++reported_ > 20)
            return;
        std::va_list ap;
        va_start(ap, fmt);
        std::fprintf(stderr, "perfbench: check failed: ");
        std::vfprintf(stderr, fmt, ap);
        std::fprintf(stderr, "\n");
        va_end(ap);
    }

  private:
    int reported_ = 0;
};

Outcome runWireTopk(const Options &opts, Tracer *tracer);
Outcome runWireStore(const Options &opts, Tracer *tracer);
Outcome runScanBitlevel(const Options &opts, Tracer *tracer);
Outcome runBaselineSim(const Options &opts, Tracer *tracer);

} // namespace perfbench

#endif // RIME_PERFBENCH_WORKLOADS_HH
