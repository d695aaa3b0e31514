/**
 * @file
 * The benchmark's own arithmetic: percentiles with a tail-sample
 * rule, the windowed-rate median, process CPU and peak-RSS
 * accounting, the span tracer (Chrome/Perfetto JSON plus per-layer
 * self time) and the one-line JSON report.  Header-only and free of
 * RIME dependencies, so selftest.cc checks it in isolation.
 */

#ifndef RIME_PERFBENCH_MEASURE_HH
#define RIME_PERFBENCH_MEASURE_HH

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline double
usBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::micro>(b - a).count();
}

/**
 * Nearest-rank q-quantile of `samples`, reported only when at least
 * `min_beyond` samples lie above its rank: a p99 needs >= 1000
 * samples.  Without the rule a short run's "p99" is its maximum.
 */
inline std::optional<double>
percentile(std::vector<double> samples, double q,
           std::size_t min_beyond = 10)
{
    const std::size_t n = samples.size();
    if (n == 0 || q < 0.0 || q > 1.0)
        return std::nullopt;
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(n)));
    rank = std::clamp<std::size_t>(rank, 1, n);
    if (n - rank < min_beyond)
        return std::nullopt;
    std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                     samples.end());
    return samples[rank - 1];
}

/** Plain median (mean of the middle pair); 0 when empty. */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * Interquartile mean: the mean of the middle half of the values (all
 * of them when fewer than 4).  Robust to outliers like a median, but
 * it moves smoothly when a run mixes a fast and a slow host state,
 * where a median jumps between the two.  0 when empty.
 */
inline double
interquartileMean(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t cut = v.size() / 4;
    double sum = 0.0;
    for (std::size_t i = cut; i < v.size() - cut; ++i)
        sum += v[i];
    return sum / static_cast<double>(v.size() - 2 * cut);
}

/**
 * Event rate (per second) of every whole window of a timed interval:
 * `event_s` are event times in seconds from its start, and it lasted
 * `span_s`.  A trailing partial window is dropped.
 */
inline std::vector<double>
windowRates(const std::vector<double> &event_s, double span_s,
            double window_s)
{
    if (window_s <= 0.0 || span_s < window_s)
        return {};
    const auto windows =
        static_cast<std::size_t>(std::floor(span_s / window_s));
    std::vector<double> rates(windows, 0.0);
    for (const double t : event_s) {
        if (t < 0.0)
            continue;
        const auto w = static_cast<std::size_t>(t / window_s);
        if (w < windows)
            rates[w] += 1.0;
    }
    for (double &r : rates)
        r /= window_s;
    return rates;
}

/** One block of a timed interval: its ops' latencies and CPU time. */
struct Block
{
    std::vector<double> latUs;
    double cpuS = 0.0;
};

/**
 * A percentile over blocks: the interquartile mean of the blocks' own
 * percentiles when every block can report one, so that a host
 * disturbance in a quarter of the blocks does not move the result;
 * otherwise the percentile of all samples pooled.
 */
inline std::optional<double>
blockPercentile(const std::vector<Block> &blocks, double q)
{
    std::vector<double> per;
    std::vector<double> pooled;
    for (const Block &b : blocks) {
        if (const auto p = percentile(b.latUs, q))
            per.push_back(*p);
        pooled.insert(pooled.end(), b.latUs.begin(), b.latUs.end());
    }
    if (!blocks.empty() && per.size() == blocks.size())
        return interquartileMean(std::move(per));
    return percentile(std::move(pooled), q);
}

/** Interquartile mean over blocks of CPU microseconds per op. */
inline double
blockCpuUsPerOp(const std::vector<Block> &blocks)
{
    std::vector<double> per;
    for (const Block &b : blocks) {
        if (!b.latUs.empty())
            per.push_back(b.cpuS * 1e6 /
                          static_cast<double>(b.latUs.size()));
    }
    return interquartileMean(std::move(per));
}

/**
 * Group ops into latency blocks: consecutive `window_s` windows of the
 * timed interval (by completion time `done_s`, seconds from its start,
 * which lasted `span_s`) merged until a block holds `min_samples`
 * samples.  Ops after the last whole window join the last block.
 * `cpu_s` is the process CPU time at each completion and `cpu0_s` at
 * the start; a block is charged the CPU time between its last
 * completion and the previous block's.
 */
inline std::vector<Block>
windowBlocks(const std::vector<double> &lat_us,
             const std::vector<double> &done_s,
             const std::vector<double> &cpu_s, double cpu0_s,
             double span_s, double window_s, std::size_t min_samples)
{
    std::vector<Block> blocks;
    Block cur;
    double prevCpu = cpu0_s, lastCpu = cpu0_s;
    std::size_t curWindow = 0;
    const auto close = [&] {
        cur.cpuS = lastCpu - prevCpu;
        prevCpu = lastCpu;
        blocks.push_back(std::move(cur));
        cur = Block();
    };
    const auto windows = static_cast<std::size_t>(
        window_s > 0.0 ? std::floor(span_s / window_s) : 0.0);
    for (std::size_t i = 0; i < lat_us.size(); ++i) {
        const auto w = static_cast<std::size_t>(
            window_s > 0.0 ? done_s[i] / window_s : 0.0);
        if (w != curWindow && w < windows) {
            // Crossing into a new whole window: close a full block.
            if (cur.latUs.size() >= min_samples)
                close();
            curWindow = w;
        }
        cur.latUs.push_back(lat_us[i]);
        lastCpu = cpu_s[i];
    }
    if (!cur.latUs.empty()) {
        if (cur.latUs.size() < min_samples && !blocks.empty()) {
            // Too small to stand alone: fold into the previous block.
            Block &last = blocks.back();
            last.latUs.insert(last.latUs.end(), cur.latUs.begin(),
                              cur.latUs.end());
            last.cpuS += lastCpu - prevCpu;
        } else {
            close();
        }
    }
    return blocks;
}

/** The timed ops of one interval, in completion order. */
struct Timed
{
    /** Latency of every op, microseconds. */
    std::vector<double> latUs;
    /** Completion times, seconds from the start of the interval. */
    std::vector<double> doneS;
    /** Process CPU seconds at each completion. */
    std::vector<double> cpuAt;
    /** Process CPU seconds at the start, and the interval's length. */
    double cpu0S = 0.0;
    double spanS = 0.0;
};

/** The host-time end-to-end metrics of one or several intervals. */
struct TimingMetrics
{
    double opsPerS = 0.0;
    std::optional<double> p50Us;
    std::optional<double> p99Us;
    double cpuUsPerOp = 0.0;
};

/**
 * Samples a latency block needs so its q-quantile has 10 beyond it
 * (1000 for p99), and at least 200.
 */
inline std::size_t
blockSamples(double q)
{
    return std::max<std::size_t>(
        200, static_cast<std::size_t>(std::ceil(10.0 / (1.0 - q) - 1e-9)));
}

/**
 * ops_per_s is the interquartile mean of the rates of every whole
 * `window_s` window of every interval.  p50 is the median of every
 * sample.  p99 is blockPercentile over latency blocks (windows merged
 * to blockSamples(q) samples), and CPU per op is the interquartile
 * mean over the p50-sized blocks, so that a disturbance confined to a
 * quarter of the windows or blocks moves none of them.  A median of
 * block medians would not do for p50: when a run's ops are spread over
 * vCPUs of different speeds, each block's median jumps between their
 * speeds, where the median of all samples moves with their mix.
 */
inline TimingMetrics
timingMetrics(const std::vector<Timed> &intervals, double window_s)
{
    const auto blocksFor = [&](double q) {
        std::vector<Block> all;
        for (const Timed &t : intervals) {
            for (Block &b : windowBlocks(t.latUs, t.doneS, t.cpuAt, t.cpu0S,
                                         t.spanS, window_s, blockSamples(q)))
                all.push_back(std::move(b));
        }
        return all;
    };
    TimingMetrics m;
    std::vector<double> rates;
    for (const Timed &t : intervals) {
        const auto r = windowRates(t.doneS, t.spanS, window_s);
        rates.insert(rates.end(), r.begin(), r.end());
    }
    m.opsPerS = interquartileMean(std::move(rates));
    std::vector<double> all;
    for (const Timed &t : intervals)
        all.insert(all.end(), t.latUs.begin(), t.latUs.end());
    m.p50Us = percentile(std::move(all), 0.50);
    m.p99Us = blockPercentile(blocksFor(0.99), 0.99);
    m.cpuUsPerOp = blockCpuUsPerOp(blocksFor(0.50));
    return m;
}

/** User + system CPU seconds of the whole process (all threads). */
inline double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
            static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

/**
 * Peak resident set of this process image so far, in MiB: VmHWM of
 * /proc/self/status.  getrusage's ru_maxrss is not used because Linux
 * carries it across execve, so it can report the parent's peak.
 */
inline double
peakRssMb()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return 0.0;
    char line[256];
    double kib = 0.0;
    while (std::fgets(line, sizeof(line), f)) {
        if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1)
            break;
    }
    std::fclose(f);
    return kib / 1024.0;
}

/**
 * Spans the benchmark records around its calls into each layer.
 * Spans stay in memory, with their parent links for selfTimeUs(); at
 * the end of the run the benchmark hands them to rime::Tracer, which
 * writes the Chrome/Perfetto JSON file.  Untraced passes have no
 * Tracer at all, so they pay one null check per call site.
 */
class Tracer
{
  public:
    struct Span
    {
        const char *layer = "";
        const char *name = "";
        /** Request id the span belongs to (one per request). */
        std::uint64_t id = 0;
        /** Requests the span covers (a batched submit covers several). */
        std::uint64_t ops = 1;
        /** Index of the parent span, or -1 for a root. */
        std::int64_t parent = -1;
        double startUs = 0.0;
        double endUs = 0.0;
    };

    Tracer() : origin_(Clock::now()) {}

    double
    nowUs() const
    {
        return usBetween(origin_, Clock::now());
    }

    double
    toUs(Clock::time_point t) const
    {
        return usBetween(origin_, t);
    }

    /** Record a finished span; returns its index. */
    std::int64_t
    add(const char *layer, const char *name, std::uint64_t id,
        double start_us, double end_us, std::uint64_t ops = 1,
        std::int64_t parent = -1)
    {
        spans_.push_back({layer, name, id, ops, parent, start_us,
                          end_us});
        return static_cast<std::int64_t>(spans_.size()) - 1;
    }

    /** Close a span recorded before its end was known. */
    void
    setEnd(std::int64_t span, double end_us)
    {
        spans_[static_cast<std::size_t>(span)].endUs = end_us;
    }

    const std::vector<Span> &spans() const { return spans_; }

    /**
     * Self time of every layer: each span's duration minus the part
     * of its interval its child spans cover, summed per layer.  The
     * second member is the request count those spans cover.
     */
    std::map<std::string, std::pair<double, double>>
    selfTimeUs() const
    {
        std::vector<std::vector<std::pair<double, double>>> kids(
            spans_.size());
        for (const Span &s : spans_) {
            if (s.parent >= 0)
                kids[static_cast<std::size_t>(s.parent)].push_back(
                    {s.startUs, s.endUs});
        }
        std::map<std::string, std::pair<double, double>> out;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            auto &iv = kids[i];
            std::sort(iv.begin(), iv.end());
            double covered = 0.0, cursor = s.startUs;
            for (const auto &[a0, b0] : iv) {
                const double a = std::max(a0, cursor);
                const double b = std::min(b0, s.endUs);
                if (b > a) {
                    covered += b - a;
                    cursor = b;
                }
            }
            auto &slot = out[s.layer];
            slot.first += std::max(0.0, s.endUs - s.startUs - covered);
            slot.second += static_cast<double>(s.ops);
        }
        return out;
    }

  private:
    Clock::time_point origin_;
    std::vector<Span> spans_;
};

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** The final result object the benchmark prints as its last line. */
struct Report
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;

    /**
     * One JSON line with exactly correct/attempted/failed/metrics.
     * Values keep every digit (%.17g); non-finite values are printed
     * as -1 and mark the report incorrect, because JSON has no NaN.
     */
    std::string
    json()
    {
        std::string out = "{\"correct\": ";
        std::string body;
        char buf[128];
        for (std::size_t i = 0; i < metrics.size(); ++i) {
            double v = metrics[i].value;
            if (!std::isfinite(v)) {
                correct = false;
                v = -1.0;
            }
            std::snprintf(buf, sizeof(buf), "%.17g", v);
            body += (i ? ", \"" : "\"") + metrics[i].name +
                "\": {\"value\": " + buf + ", \"unit\": \"" +
                metrics[i].unit + "\"}";
        }
        out += correct ? "true" : "false";
        std::snprintf(buf, sizeof(buf),
                      ", \"attempted\": %llu, \"failed\": %llu, ",
                      static_cast<unsigned long long>(attempted),
                      static_cast<unsigned long long>(failed));
        out += buf;
        out += "\"metrics\": {" + body + "}}";
        return out;
    }
};

} // namespace perfbench

#endif // RIME_PERFBENCH_MEASURE_HH
