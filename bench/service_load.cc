/**
 * @file
 * Closed-loop load generator for the multi-tenant RIME service.
 *
 * Sweeps tenants x shards x submission-queue depth; each tenant runs
 * one client thread keeping a small window of TopK requests in flight
 * against its own range (re-armed with an Init once the range drains).
 * Per cell it reports the aggregate extraction throughput, the
 * p50/p99 queue latency seen by served requests, and the reject rate
 * of the shed path (backpressure + quota), then emits
 * BENCH_service.json next to the binary.
 *
 * Throughput is *simulated* aggregate throughput, like every other
 * bench here: each shard owns an independent RimeLibrary whose
 * simulated clock advances only for its own work, so the aggregate is
 * total keys extracted over the busiest shard's simulated time
 * (Response::shardTick).  The headline number is the 2-shard /
 * 1-shard aggregate-throughput ratio on the multi-channel
 * configuration -- sharding halves the work each simulated device
 * serves, the same way extra channels split a scan.  Wall-clock
 * columns are reported for context only; they are host-dependent and
 * on a one-core runner the two-shard sweep cannot scale in wall time.
 *
 * RIME_BENCH_SCALE scales the number of epochs each tenant runs;
 * RIME_STATS picks the JSON stat-dump path (service scheduler stats
 * included); RIME_TRACE works as everywhere else (the shard
 * controllers emit "service" trace spans).
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.hh"
#include "common/logging.hh"
#include "service/service.hh"

using namespace rime;
using namespace rime::bench;
using namespace rime::service;

namespace
{

constexpr std::uint64_t kKeysPerSession = 8192;
constexpr std::uint64_t kTopK = 64;
constexpr std::size_t kWindow = 4;
constexpr std::size_t kBigQueue = 64;
constexpr std::size_t kTinyQueue = 4;

struct Cell
{
    unsigned shards = 1;
    unsigned tenants = 1;
    std::size_t queueCapacity = 0;
    double wallMs = 0.0;
    double simSeconds = 0.0;
    std::uint64_t items = 0;
    std::uint64_t served = 0;
    std::uint64_t rejected = 0;
    double throughputMKps = 0.0;
    double rejectRate = 0.0;
    double p50Us = 0.0;
    double p99Us = 0.0;
};

struct ClientResult
{
    std::uint64_t items = 0;
    std::uint64_t served = 0;
    std::uint64_t rejected = 0;
    Tick maxTick = 0;
    std::vector<double> queueNs;
};

/** Table-I RIME with a second channel: the multi-channel config. */
LibraryConfig
multiChannelRime()
{
    LibraryConfig cfg = tableOneRime();
    cfg.device.channels = 2;
    return cfg;
}

/**
 * One tenant's closed-loop script: per epoch re-arm the range with an
 * Init, then keep kWindow TopK(kTopK) requests in flight until the
 * range is drained.  Rejected completions are counted and resubmitted
 * after a yield -- the client backs off, the device never blocks.
 */
void
runClient(Session &s, Addr start, Addr end, std::uint64_t epochs,
          ClientResult &out)
{
    const std::uint64_t perEpoch = kKeysPerSession / kTopK;
    for (std::uint64_t epoch = 0; epoch < epochs; ++epoch) {
        for (;;) {
            const Response r =
                s.init(start, end, KeyMode::UnsignedFixed).get();
            if (r.ok())
                break;
            if (r.status != ServiceStatus::Rejected)
                fatal("service_load: init failed with %s",
                      serviceStatusName(r.status));
            ++out.rejected;
            std::this_thread::yield();
        }
        std::uint64_t toSubmit = perEpoch;
        std::deque<std::future<Response>> window;
        while (toSubmit > 0 || !window.empty()) {
            while (toSubmit > 0 && window.size() < kWindow) {
                window.push_back(s.topK(start, end, kTopK));
                --toSubmit;
            }
            Response r = window.front().get();
            window.pop_front();
            if (r.status == ServiceStatus::Rejected) {
                ++out.rejected;
                ++toSubmit;
                std::this_thread::yield();
                continue;
            }
            if (!r.ok())
                fatal("service_load: topK failed with %s",
                      serviceStatusName(r.status));
            ++out.served;
            out.items += r.items.size();
            out.maxTick = std::max(out.maxTick, r.shardTick);
            out.queueNs.push_back(r.queueWallNs);
        }
    }
}

Cell
runCell(unsigned shards, unsigned tenants, std::size_t queue_capacity,
        std::uint64_t epochs)
{
    using Clock = std::chrono::steady_clock;
    Cell cell;
    cell.shards = shards;
    cell.tenants = tenants;
    cell.queueCapacity = queue_capacity;

    ServiceConfig cfg;
    cfg.shards = shards;
    cfg.library = multiChannelRime();
    cfg.scheduler.queueCapacity = queue_capacity;
    RimeService svc(std::move(cfg));

    const std::uint64_t bytes =
        kKeysPerSession * sizeof(std::uint32_t);
    std::vector<std::shared_ptr<Session>> sessions;
    std::vector<std::pair<Addr, Addr>> ranges;
    for (unsigned t = 0; t < tenants; ++t) {
        SessionConfig sc;
        sc.tenant = "t" + std::to_string(t);
        sc.maxInFlight = kWindow + 2;
        auto s = svc.openSession(sc);
        const Response m = s->malloc(bytes).get();
        if (!m.ok())
            fatal("service_load: malloc failed");
        if (!s->storeArray(m.addr, randomRaws(kKeysPerSession, 500 + t))
                 .get()
                 .ok())
            fatal("service_load: store failed");
        sessions.push_back(std::move(s));
        ranges.emplace_back(m.addr, m.addr + bytes);
    }

    std::vector<ClientResult> results(tenants);
    std::vector<std::thread> clients;
    const auto t0 = Clock::now();
    for (unsigned t = 0; t < tenants; ++t) {
        clients.emplace_back([&, t] {
            runClient(*sessions[t], ranges[t].first, ranges[t].second,
                      epochs, results[t]);
        });
    }
    for (auto &c : clients)
        c.join();
    const auto t1 = Clock::now();

    cell.wallMs =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    std::vector<double> latencies;
    Tick busiest = 0;
    for (const auto &r : results) {
        cell.items += r.items;
        cell.served += r.served;
        cell.rejected += r.rejected;
        // Every shardTick is read off the serving shard's own clock,
        // so the max across all responses is the busiest shard's
        // simulated finish time: shards run in parallel in simulated
        // reality even on a one-core host.
        busiest = std::max(busiest, r.maxTick);
        latencies.insert(latencies.end(), r.queueNs.begin(),
                         r.queueNs.end());
    }
    cell.simSeconds = ticksToSeconds(busiest);
    cell.throughputMKps = cell.simSeconds > 0
        ? static_cast<double>(cell.items) / (cell.simSeconds * 1e6)
        : 0.0;
    cell.rejectRate = cell.served + cell.rejected > 0
        ? static_cast<double>(cell.rejected) /
            static_cast<double>(cell.served + cell.rejected)
        : 0.0;
    cell.p50Us = percentile(latencies, 0.50) / 1e3;
    cell.p99Us = percentile(latencies, 0.99) / 1e3;

    // Fold the service's scheduler/tenant stat tree into the process
    // registry before the service dies, so RIME_STATS sees it.
    for (auto &s : sessions)
        s->close();
    svc.collectStats(StatRegistry::process());
    return cell;
}

} // namespace

int
main()
{
    setVerbose(false);
    const auto epochs = static_cast<std::uint64_t>(
        std::max<long>(1, std::lround(2.0 * benchScale())));

    std::printf("=== service load (%llu keys/session, TopK %llu, "
                "window %zu, %llu epochs) ===\n",
                static_cast<unsigned long long>(kKeysPerSession),
                static_cast<unsigned long long>(kTopK), kWindow,
                static_cast<unsigned long long>(epochs));
    std::printf("%7s %8s %6s %10s %10s %12s %10s %10s %8s\n",
                "shards", "tenants", "queue", "sim ms", "wall ms",
                "MKeys/s", "p50 us", "p99 us", "reject");

    std::vector<Cell> cells;
    for (const std::size_t cap : {kTinyQueue, kBigQueue}) {
        for (const unsigned shards : {1u, 2u}) {
            for (const unsigned tenants : {1u, 2u, 4u, 8u}) {
                cells.push_back(runCell(shards, tenants, cap, epochs));
                const Cell &c = cells.back();
                std::printf("%7u %8u %6zu %10.3f %10.1f %12.3f %10.1f "
                            "%10.1f %7.1f%%\n",
                            c.shards, c.tenants, c.queueCapacity,
                            c.simSeconds * 1e3, c.wallMs,
                            c.throughputMKps, c.p50Us, c.p99Us,
                            100.0 * c.rejectRate);
            }
        }
    }

    // Headline: 2-shard vs 1-shard aggregate throughput with the big
    // queue, at the tenant counts that can actually use both shards.
    std::map<std::pair<unsigned, unsigned>, double> bigQueue;
    for (const Cell &c : cells) {
        if (c.queueCapacity == kBigQueue)
            bigQueue[{c.shards, c.tenants}] = c.throughputMKps;
    }
    double speedup = 0.0;
    for (const unsigned tenants : {4u, 8u}) {
        const double one = bigQueue[{1u, tenants}];
        const double two = bigQueue[{2u, tenants}];
        if (one > 0)
            speedup = std::max(speedup, two / one);
    }
    std::printf("2-shard speedup (best of 4/8 tenants, queue %zu): "
                "%.2fx %s\n", kBigQueue, speedup,
                speedup >= 1.5 ? "(>= 1.5x target)"
                               : "(BELOW 1.5x target)");

    std::ostringstream arr;
    arr << "[\n";
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const Cell &c = cells[i];
        arr << "    {\"shards\": " << c.shards
            << ", \"tenants\": " << c.tenants
            << ", \"queue_capacity\": " << c.queueCapacity
            << ", \"sim_seconds\": " << c.simSeconds
            << ", \"wall_ms\": " << c.wallMs
            << ", \"items\": " << c.items
            << ", \"served\": " << c.served
            << ", \"rejected\": " << c.rejected
            << ", \"throughput_mkeys\": " << c.throughputMKps
            << ", \"reject_rate\": " << c.rejectRate
            << ", \"queue_p50_us\": " << c.p50Us
            << ", \"queue_p99_us\": " << c.p99Us << "}"
            << (i + 1 < cells.size() ? "," : "") << "\n";
    }
    arr << "  ]";
    BenchJson("service_load")
        .field("keys_per_session",
               static_cast<std::uint64_t>(kKeysPerSession))
        .field("topk", static_cast<std::uint64_t>(kTopK))
        .field("window", static_cast<std::uint64_t>(kWindow))
        .field("epochs", static_cast<std::uint64_t>(epochs))
        .raw("cells", arr.str())
        .field("speedup_2shards", speedup)
        .field("speedup_target", 1.5)
        .field("speedup_ok", speedup >= 1.5)
        .write("BENCH_service.json");
    writeStatsJson("service");
    return 0;
}
