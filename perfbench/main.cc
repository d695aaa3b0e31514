/**
 * @file
 * The RIME stack benchmark:
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--work-dir <dir>]
 *
 * runs one workload, checks its outputs and prints the result object
 * as the last line of stdout.  --trace 0 reports the end-to-end
 * metrics.  --trace 1 runs the workload twice, untraced then traced,
 * each for half of --seconds, so that a traced run takes about as long
 * as an untraced one.  It reports the per-layer metrics of the traced
 * pass, the tracing overhead on each end-to-end metric (traced minus
 * untraced), and writes the spans as Chrome/Perfetto JSON under the
 * work directory.
 * The line before the result, "EXACT {...}", lists the values that
 * must repeat bit for bit on every run with the same seed.
 * Exit status: 0 when every check passed, 1 on a failed check, 2 on
 * a usage error.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/trace.hh"
#include "workloads.hh"

using namespace perfbench;

namespace
{

struct Named
{
    const char *name;
    const char *unit;
};

/**
 * End-to-end metrics, reported by every workload (BENCHMARK.json).
 * The latency percentiles are not among them: every run prints them,
 * and a traced run reports its untraced pass's as latency.p50_us and
 * latency.p99_us (README.md, "Noise evidence", says why).
 */
constexpr Named kEndToEnd[] = {
    {"setup_s", "s"},        {"ops_per_s", "1/s"},
    {"cpu_us_per_op", "us"}, {"peak_rss_mb", "MiB"},
    {"sim_mkps", "MKps"},    {"sim_nj_per_key", "nJ"},
};

/**
 * Per-layer metrics of a traced run.  A layer a workload does not
 * exercise reports 0 (README.md lists where each one applies).
 */
constexpr Named kPerLayer[] = {
    {"latency.p50_us", "us"},
    {"latency.p99_us", "us"},
    {"net.client_submit_us", "us"},
    {"net.overhead_us", "us"},
    {"net.stalled_requests", "count"},
    {"net.max_rtt_us", "us"},
    {"net.rtt_samples", "count"},
    {"service.queue_wait_us", "us"},
    {"service.batch_size", "ops"},
    {"service.ops_per_commit", "ops"},
    {"wire.encode_us_per_op", "us"},
    {"wire.decode_us_per_op", "us"},
    {"wire.bytes_per_op", "bytes"},
    {"journal.append_us_per_op", "us"},
    {"journal.commit_us", "us"},
    {"journal.bytes_per_op", "bytes"},
    {"rime.topk_us", "us"},
    {"rime.init_us", "us"},
    {"rime.store_us", "us"},
    {"rimehw.scan_step_us", "us"},
    {"rimehw.column_searches_per_extract", "count"},
    {"sim.extract_ns", "ns"},
    {"sim.store_ns", "ns"},
    {"parallel.speedup", "x"},
    {"parallel.threads", "count"},
    {"sort.ns_per_access", "ns"},
    {"cachesim.ns_per_access", "ns"},
    {"cachesim.maps", "M/s"},
    {"cachesim.l1_miss_ratio", "ratio"},
    {"cachesim.l2_miss_ratio", "ratio"},
    {"memsim.probe_s", "s"},
    {"perfmodel.price_us", "us"},
    {"self_us.stack", "us"},
    {"self_us.net", "us"},
    {"self_us.service", "us"},
    {"self_us.session", "us"},
    {"self_us.wire", "us"},
    {"self_us.journal", "us"},
    {"self_us.rime", "us"},
    {"self_us.parallel", "us"},
    {"self_us.baseline", "us"},
    {"self_us.sort", "us"},
    {"self_us.cachesim", "us"},
    {"self_us.memsim", "us"},
    {"self_us.perfmodel", "us"},
};

/** Spans written to the trace file at most (the file stays small). */
constexpr std::size_t kMaxTraceSpans = 200000;

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "wire_topk|wire_store|scan_bitlevel|baseline_sim "
                 "--seed <n> --seconds <s> --trace <0|1> "
                 "[--work-dir <dir>]\n",
                 why);
    return 2;
}

Outcome
runWorkload(const Options &opts, Tracer *tracer)
{
    if (opts.workload == "wire_topk")
        return runWireTopk(opts, tracer);
    if (opts.workload == "wire_store")
        return runWireStore(opts, tracer);
    if (opts.workload == "scan_bitlevel")
        return runScanBitlevel(opts, tracer);
    return runBaselineSim(opts, tracer);
}

/**
 * Write the first `max_spans` spans as Chrome trace JSON: one complete
 * event per span, its layer as the category, and the request id, op
 * count and parent index as args.  False when the file is not there.
 */
bool
writeTrace(const Tracer &tracer, const std::string &path,
           std::size_t max_spans)
{
    {
        rime::Tracer out(path);
        const auto &spans = tracer.spans();
        for (std::size_t i = 0; i < std::min(max_spans, spans.size());
             ++i) {
            const Tracer::Span &s = spans[i];
            std::string args =
                rime::traceArgs({{"id", s.id}, {"ops", s.ops}});
            if (s.parent >= 0) {
                args += ", " + rime::traceArgs(
                    {{"parent", static_cast<std::uint64_t>(s.parent)}});
            }
            out.completeEvent(s.layer, s.name, s.startUs,
                              s.endUs - s.startUs, args);
        }
    } // ~rime::Tracer flushes the file
    return std::ifstream(path).good();
}

std::string
exactJson(const std::map<std::string, double> &exact)
{
    std::string s = "{";
    char buf[64];
    for (const auto &[name, v] : exact) {
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        s += (s.size() > 1 ? ", \"" : "\"") + name + "\": " + buf;
    }
    return s + "}";
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    bool haveW = false, haveSeed = false, haveSec = false,
         haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + a).c_str());
        const char *v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            opts.workload = v;
            haveW = true;
        } else if (a == "--seed") {
            opts.seed = std::strtoull(v, &end, 10);
            haveSeed = end && *end == '\0' && *v;
        } else if (a == "--seconds") {
            opts.seconds = std::strtod(v, &end);
            haveSec = end && *end == '\0' && opts.seconds > 0;
        } else if (a == "--trace") {
            haveTrace = !std::strcmp(v, "0") || !std::strcmp(v, "1");
            opts.trace = !std::strcmp(v, "1");
        } else if (a == "--work-dir") {
            opts.workDir = v;
        } else {
            return usage(("unknown option " + a).c_str());
        }
    }
    if (!haveW || !haveSeed || !haveSec || !haveTrace)
        return usage("--workload, --seed, --seconds and --trace are "
                     "all required");
    if (opts.workload != "wire_topk" && opts.workload != "wire_store" &&
        opts.workload != "scan_bitlevel" &&
        opts.workload != "baseline_sim")
        return usage(("unknown workload " + opts.workload).c_str());
    rime::setVerbose(false);

    if (opts.trace)
        opts.seconds /= 2;

    Report report;
    try {
        std::filesystem::create_directories(opts.workDir);
        const Outcome base = runWorkload(opts, nullptr);
        report.correct = base.correct;
        report.attempted = base.attempted;
        report.failed = base.failed;
        std::map<std::string, double> exact = base.exact;
        const double p50 = base.e2e.at("p50_us");
        const double p99 = base.e2e.at("p99_us");
        std::printf("latency: p50 %.1f us, p99 %.1f us\n", p50, p99);
        if (!std::isfinite(p50) || !std::isfinite(p99)) {
            std::fprintf(stderr, "perfbench: a latency percentile has "
                                 "fewer than 10 samples beyond it\n");
            report.correct = false;
        }
        if (!opts.trace) {
            for (const Named &m : kEndToEnd) {
                const auto it = base.e2e.find(m.name);
                report.metrics.push_back(
                    {m.name, it == base.e2e.end() ? NAN : it->second,
                     m.unit});
            }
        } else {
            Tracer tracer;
            Outcome traced = runWorkload(opts, &tracer);
            report.correct = report.correct && traced.correct;
            report.attempted += traced.attempted;
            report.failed += traced.failed;
            for (const auto &[name, v] : traced.exact) {
                const auto it = exact.find(name);
                if (it != exact.end() && it->second != v) {
                    std::fprintf(stderr,
                                 "perfbench: %s differs between the "
                                 "untraced (%.17g) and traced (%.17g) "
                                 "passes\n",
                                 name.c_str(), it->second, v);
                    report.correct = false;
                }
                exact[name] = v;
            }
            // The untraced pass's latencies: tracing would move them.
            traced.layer["latency.p50_us"] = p50;
            traced.layer["latency.p99_us"] = p99;
            for (const Named &m : kPerLayer) {
                const auto it = traced.layer.find(m.name);
                report.metrics.push_back(
                    {m.name, it == traced.layer.end() ? 0.0 : it->second,
                     m.unit});
            }
            for (const Named &m : kEndToEnd) {
                report.metrics.push_back(
                    {std::string("trace_overhead.") + m.name,
                     traced.e2e.at(m.name) - base.e2e.at(m.name),
                     m.unit});
            }
            const std::string path = opts.workDir + "/trace-" +
                opts.workload + ".json";
            std::filesystem::remove(path);
            if (!writeTrace(tracer, path, kMaxTraceSpans)) {
                std::fprintf(stderr, "perfbench: cannot write %s\n",
                             path.c_str());
                report.correct = false;
            } else {
                std::printf("trace: %s (%zu spans recorded)\n",
                            path.c_str(), tracer.spans().size());
            }
        }
        std::printf("EXACT %s\n", exactJson(exact).c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    const std::string line = report.json();
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
    return report.correct ? 0 : 1;
}
