/**
 * @file
 * Self-tests of the benchmark's own arithmetic (measure.hh): the
 * tail-sample rule of percentile(), the windowed-rate median, block
 * medians, CPU and peak-RSS accounting, per-layer self time, and the
 * report schema.
 * run.py runs this binary before every workload and refuses to report
 * when it fails.
 */

#include <time.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "measure.hh"

using namespace perfbench;

namespace
{

int failures = 0;

void
expect(bool ok, const char *what)
{
    if (!ok) {
        ++failures;
        std::fprintf(stderr, "selftest FAILED: %s\n", what);
    }
}

bool
near(double a, double b, double tol)
{
    return std::fabs(a - b) <= tol;
}

void
testPercentile()
{
    std::vector<double> v;
    for (int i = 1; i <= 1000; ++i)
        v.push_back(i);
    // 1000 samples: rank 990 has exactly 10 samples beyond it.
    const auto p99 = percentile(v, 0.99);
    expect(p99 && *p99 == 990.0, "p99 of 1..1000 is 990");
    expect(percentile(v, 0.999) == std::nullopt,
           "p99.9 of 1000 samples has 1 beyond: withheld");
    v.pop_back();
    expect(percentile(v, 0.99) == std::nullopt,
           "p99 of 999 samples has 9 beyond: withheld");
    const auto p50 = percentile(v, 0.5);
    expect(p50 && *p50 == 500.0, "p50 of 1..999 is 500");
    std::vector<double> shuffled = {5, 1, 4, 2, 3, 9, 8, 7, 6, 10,
                                    11, 12, 13, 14, 15, 16, 17, 18,
                                    19, 20};
    const auto p50s = percentile(shuffled, 0.5);
    expect(p50s && *p50s == 10.0, "percentile ignores input order");
    expect(percentile({}, 0.5) == std::nullopt, "empty: withheld");
    expect(median({3, 1, 2}) == 2.0 && median({4, 1, 3, 2}) == 2.5,
           "median of odd and even counts");
    expect(interquartileMean({100, 1, 2, 3, 4, 5, 6, -50}) == 3.5,
           "interquartile mean drops the outer quarters");
    expect(interquartileMean({1, 2, 6}) == 3.0 &&
               interquartileMean({}) == 0.0,
           "interquartile mean of fewer than 4 is the mean");
}

void
testWindowedMedian()
{
    // 10 windows of 1 s at 100 events/s, one window stalled to 0.
    std::vector<double> t;
    for (int w = 0; w < 10; ++w) {
        if (w == 3)
            continue;
        for (int i = 0; i < 100; ++i)
            t.push_back(w + i / 100.0);
    }
    expect(median(windowRates(t, 10.0, 1.0)) == 100.0,
           "one stalled window leaves the median rate");
    // A partial trailing window is ignored.
    t.push_back(10.5);
    expect(median(windowRates(t, 10.9, 1.0)) == 100.0,
           "partial window ignored");
    expect(windowRates(t, 0.5, 1.0).empty(),
           "no whole window: 0");
    // Rates are per second, not per window.
    std::vector<double> half;
    for (int i = 0; i < 200; ++i)
        half.push_back(i * 0.005);
    expect(median(windowRates(half, 1.0, 0.5)) == 200.0,
           "window rate scales to events per second");
}

void
testBlocks()
{
    // Four blocks of 1000 samples; one block is disturbed 10x.
    std::vector<Block> blocks(4);
    for (std::size_t b = 0; b < 4; ++b) {
        for (int i = 1; i <= 1000; ++i)
            blocks[b].latUs.push_back(b == 2 ? 10.0 * i : i);
        blocks[b].cpuS = b == 2 ? 1.0 : 0.5;
    }
    const auto p99 = blockPercentile(blocks, 0.99);
    expect(p99 && *p99 == 990.0,
           "block p99: interquartile mean ignores one bad block");
    expect(blockCpuUsPerOp(blocks) == 500.0,
           "block CPU per op: interquartile mean over blocks");
    // A block too small for p99 makes the pooled percentile apply.
    blocks[3].latUs.resize(500);
    std::vector<double> pooled;
    for (const Block &b : blocks)
        pooled.insert(pooled.end(), b.latUs.begin(), b.latUs.end());
    expect(blockPercentile(blocks, 0.99) == percentile(pooled, 0.99),
           "block p99 falls back to the pooled samples");

    // windowBlocks: 4 windows of 0.5 s with 1000 ops each and a
    // 1500-sample minimum merge into 2 blocks; the ops after the last
    // whole window join the last block; CPU is charged by difference.
    std::vector<double> lat, done, cpu;
    for (int i = 0; i < 4000; ++i) {
        lat.push_back(i);
        done.push_back(i * 0.0005);
        cpu.push_back(10.0 + (i < 2000 ? 0.0 : 1.0));
    }
    lat.push_back(1e6);
    done.push_back(2.05); // the drain, after the last whole window
    cpu.push_back(12.0);
    const auto wb = windowBlocks(lat, done, cpu, 9.0, 2.01, 0.5, 1500);
    expect(wb.size() == 2 && wb[0].latUs.size() == 2000 &&
               wb[1].latUs.size() == 2001,
           "windowBlocks merges windows up to the sample minimum");
    expect(near(wb[0].cpuS, 1.0, 1e-9) && near(wb[1].cpuS, 2.0, 1e-9),
           "windowBlocks charges CPU by difference");
    const auto one = windowBlocks(lat, done, cpu, 9.0, 2.01, 0.5, 5000);
    expect(one.size() == 1 && one[0].latUs.size() == 4001,
           "too few samples: one block");

    // timingMetrics: two intervals of 2 s at 1000 ops/s, latency 100 us
    // except one slow window (the first 0.5 s of the second interval).
    Timed a, b;
    for (int i = 0; i < 2000; ++i) {
        a.latUs.push_back(100.0);
        a.doneS.push_back(i * 0.001);
        a.cpuAt.push_back(1.0 + i * 1e-4);
        b.latUs.push_back(i < 500 ? 5000.0 : 100.0);
        b.doneS.push_back(i * 0.001);
        b.cpuAt.push_back(2.0 + i * 1e-4);
    }
    a.cpu0S = 1.0;
    b.cpu0S = 2.0;
    a.spanS = b.spanS = 2.0;
    const TimingMetrics m = timingMetrics({a, b}, 0.5);
    expect(near(m.opsPerS, 1000.0, 1e-9), "timing: window rate");
    expect(m.p50Us && *m.p50Us == 100.0,
           "timing: p50 is the median of every sample");
    expect(near(m.cpuUsPerOp, 100.0, 1e-6), "timing: CPU per op");
    // Each interval forms two 1000-sample p99 blocks: the second
    // interval's first block is slow, so the block p99s are
    // 100, 100, 5000, 100.
    expect(m.p99Us && *m.p99Us == 100.0,
           "timing: p99 over blocks ignores the slow block");
    expect(blockSamples(0.5) == 200 && blockSamples(0.99) == 1000,
           "block sizes give 10 samples beyond the quantile");
}

void
testCpuAndRss()
{
    // Two threads each burning 0.15 s of their own CPU time: the
    // process total must count both.
    const double cpu0 = processCpuSeconds();
    const auto spin = [] {
        const auto threadCpu = [] {
            timespec ts{};
            clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
            return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
        };
        const double c0 = threadCpu();
        volatile double x = 0;
        while (threadCpu() - c0 < 0.15)
            x = x + 1.0;
    };
    std::thread other(spin);
    spin();
    other.join();
    const double used = processCpuSeconds() - cpu0;
    expect(used >= 0.3 && used <= 0.45,
           "CPU accounting covers every thread");

    const double rss0 = peakRssMb();
    std::vector<char> block(64 << 20);
    // Volatile stores: the compiler may not elide the touched pages.
    volatile char *pages = block.data();
    for (std::size_t i = 0; i < block.size(); i += 4096)
        pages[i] = 1;
    const double rss1 = peakRssMb();
    expect(rss1 - rss0 >= 60.0, "peak RSS sees 64 MiB touched");
}

void
testSelfTime()
{
    Tracer t;
    const auto root = t.add("a", "root", 1, 0.0, 100.0);
    t.add("b", "child", 1, 10.0, 30.0, 1, root);
    t.add("b", "child", 1, 20.0, 50.0, 1, root); // overlaps the first
    t.add("c", "late", 2, 200.0, 210.0, 4);
    const auto self = t.selfTimeUs();
    expect(near(self.at("a").first, 60.0, 1e-9),
           "self time subtracts the union of child spans");
    expect(near(self.at("b").first, 50.0, 1e-9), "children: own time");
    expect(self.at("c").second == 4.0, "span op counts add up");
}

void
testReport()
{
    Report r;
    r.attempted = 7;
    r.failed = 1;
    r.metrics.push_back({"p50_us", 1.0 / 3.0, "us"});
    r.metrics.push_back({"setup_s", 2.5, "s"});
    const std::string j = r.json();
    expect(j == "{\"correct\": true, \"attempted\": 7, \"failed\": 1, "
                "\"metrics\": {\"p50_us\": {\"value\": "
                "0.33333333333333331, \"unit\": \"us\"}, \"setup_s\": "
                "{\"value\": 2.5, \"unit\": \"s\"}}}",
           "report schema and full-precision values");
    r.metrics.push_back({"bad", NAN, "us"});
    const std::string bad = r.json();
    expect(!r.correct && bad.rfind("{\"correct\": false", 0) == 0 &&
               bad.find("\"bad\": {\"value\": -1") != std::string::npos,
           "a non-finite value fails the report");
}

} // namespace

int
main()
{
    testPercentile();
    testWindowedMedian();
    testBlocks();
    testCpuAndRss();
    testSelfTime();
    testReport();
    if (failures)
        return 1;
    std::printf("perfbench selftest: ok\n");
    return 0;
}
