/**
 * @file
 * Wire-protocol load generator: the same closed-loop TopK workload
 * driven two ways against identical services -- through an in-process
 * Session, and through a RimeClient talking to a RimeServer over
 * loopback TCP -- so the wire path's overhead is measured against the
 * only honest baseline, itself without the socket.
 *
 * Three phases, all reported in BENCH_wire.json:
 *
 *  1. Depth sweep: pipeline depths 1/2/4/8 over the wire, reporting
 *     aggregate wall-clock op throughput and the p50/p99 RTT each
 *     request saw (submit to future-ready, queueing included).
 *
 *  2. Baseline ratio: wire throughput at depth 8 over in-process
 *     throughput at depth 8.  Target >= 0.85x on hosts with spare
 *     cores -- with batched submits on both sides
 *     (Session::submitBatch in process, RimeClient::submitBatch +
 *     the server's whole-read hand-off and writev response
 *     coalescing over the wire), the framed protocol, the event
 *     loop, and two thread hops may cost at most 15% of the
 *     in-process rate on loopback.  On a single-core host the wire
 *     turnaround cannot overlap shard execution, so the gate drops
 *     to >= 0.50x (see the phase-2 comment).  A batch-size sweep
 *     (service batchOps 1 vs 32) is emitted alongside, and every
 *     run reports its realized completion group size (avg batch).
 *
 *  3. Disconnect chaos: the same workload while the client tears its
 *     connection down at fixed op counts and reconnects (sessions
 *     reopened, range re-armed).  Transport errors are expected and
 *     counted; *protocol* errors (corrupt frames, undecodable
 *     messages) must stay exactly 0 -- disconnects at arbitrary
 *     byte positions must never desynchronize the framing.
 *
 *  4. Multi-client fairness: M concurrent clients, each with its own
 *     connection, session, and range, running the same closed loop
 *     against one server.  The event loop must not starve anyone:
 *     the worst per-client p99 RTT must stay under 2x the median
 *     per-client p99.
 *
 * Across all phases the JSON also records server_timeout_wakes: event
 * loop iterations that only the 100 ms poll safety net woke while a
 * reply was ready (RimeServer::timeoutWakes).  Any nonzero value
 * means a completion's wake was lost.
 *
 * Wall-clock numbers are host-dependent, like every wall column in
 * this tree; the JSON gate checks the *ratio* and the error counters,
 * not absolute rates.  RIME_BENCH_SCALE scales the op counts.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.hh"
#include "common/logging.hh"
#include "net/client.hh"
#include "net/server.hh"
#include "service/service.hh"

using namespace rime;
using namespace rime::bench;
using namespace rime::service;
using namespace rime::net;

namespace
{

using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kKeysPerRange = 4096;
constexpr std::uint64_t kTopK = 64;
constexpr std::size_t kMaxDepth = 8;

struct RunResult
{
    std::uint64_t served = 0;
    std::uint64_t rejected = 0;
    double wallMs = 0.0;
    double opsPerSec = 0.0;
    double p50Us = 0.0;
    double p99Us = 0.0;
    /**
     * Mean completions drained per window wakeup -- the realized
     * group size.  `depth` when server group completion, the wire
     * tier's response coalescing, and the client's batched refill all
     * hold together; ~1 when completions dribble back as singles.
     */
    double avgBatch = 0.0;
    /** RimeServer::timeoutWakes of the serving server (wire runs). */
    std::uint64_t serverTimeoutWakes = 0;
};

/**
 * The closed-loop core, generic over how a *batch* of requests is
 * submitted: keep `depth` TopK requests in flight until `ops`
 * responses were served; re-arm the drained range with an Init
 * whenever a TopK comes back Empty.  Rejected completions are
 * resubmitted after a yield.
 *
 * The window refills its whole deficit with ONE batched submit, and
 * after blocking on the head it sweeps every already-ready completion
 * behind it -- a server group commit completes several futures at
 * once, and draining them together makes the next refill a real
 * batch (one wire write, one shard hand-off) instead of dribbling
 * single requests.
 */
template <typename SubmitBatchFn>
RunResult
runClosedLoop(SubmitBatchFn &&submitBatch, Addr start, Addr end,
              std::uint64_t ops, std::size_t depth)
{
    RunResult out;
    std::deque<std::pair<std::future<Response>, Clock::time_point>>
        window;
    std::vector<double> rttUs;
    rttUs.reserve(ops);
    const auto submitOne = [&](Request req) {
        std::vector<Request> one;
        one.push_back(std::move(req));
        return std::move(submitBatch(std::move(one)).front());
    };

    const auto t0 = Clock::now();
    std::uint64_t submitted = 0;
    std::uint64_t drains = 0, drainOps = 0;
    while (out.served < ops) {
        const std::uint64_t want = ops + out.rejected;
        if (window.size() < depth && submitted < want) {
            const std::size_t n = std::min<std::size_t>(
                depth - window.size(),
                static_cast<std::size_t>(want - submitted));
            std::vector<Request> batch(n);
            for (Request &r : batch) {
                r.kind = RequestKind::TopK;
                r.start = start;
                r.end = end;
                r.count = kTopK;
            }
            const auto at = Clock::now();
            auto futures = submitBatch(std::move(batch));
            for (auto &f : futures)
                window.emplace_back(std::move(f), at);
            submitted += n;
        }
        std::vector<std::pair<Response, Clock::time_point>> done;
        {
            auto [future, at] = std::move(window.front());
            window.pop_front();
            done.emplace_back(future.get(), at);
        }
        while (!window.empty() &&
               window.front().first.wait_for(
                   std::chrono::seconds(0)) ==
                   std::future_status::ready) {
            done.emplace_back(window.front().first.get(),
                              window.front().second);
            window.pop_front();
        }
        ++drains;
        drainOps += done.size();
        for (auto &[resp, at] : done) {
            rttUs.push_back(std::chrono::duration<double, std::micro>(
                                Clock::now() - at)
                                .count());
            if (resp.status == ServiceStatus::Rejected) {
                ++out.rejected;
                std::this_thread::yield();
                continue;
            }
            if (resp.status == ServiceStatus::Empty || resp.ok()) {
                if (resp.status == ServiceStatus::Empty ||
                    resp.items.size() < kTopK) {
                    // Range drained: re-arm before counting on.
                    Request init;
                    init.kind = RequestKind::Init;
                    init.start = start;
                    init.end = end;
                    init.mode = KeyMode::UnsignedFixed;
                    init.wordBits = 32;
                    const Response ir =
                        submitOne(std::move(init)).get();
                    if (!ir.ok() &&
                        ir.status != ServiceStatus::Rejected) {
                        fatal("wire_load: re-init failed with %s",
                              serviceStatusName(ir.status));
                    }
                }
                ++out.served;
                continue;
            }
            fatal("wire_load: topK failed with %s",
                  serviceStatusName(resp.status));
        }
    }
    const auto t1 = Clock::now();
    out.avgBatch = drains
        ? static_cast<double>(drainOps) / static_cast<double>(drains)
        : 0.0;
    out.wallMs =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    out.opsPerSec = out.wallMs > 0
        ? static_cast<double>(out.served) / (out.wallMs / 1e3)
        : 0.0;
    out.p50Us = percentile(rttUs, 0.50);
    out.p99Us = percentile(rttUs, 0.99);
    return out;
}

/** Malloc + store + init one range on an in-process session. */
std::pair<Addr, Addr>
armRange(Session &s)
{
    const std::uint64_t bytes = kKeysPerRange * sizeof(std::uint32_t);
    const Response m = s.malloc(bytes).get();
    if (!m.ok())
        fatal("wire_load: malloc failed");
    if (!s.storeArray(m.addr, randomRaws(kKeysPerRange, 7)).get().ok())
        fatal("wire_load: store failed");
    if (!s.init(m.addr, m.addr + bytes, KeyMode::UnsignedFixed)
             .get()
             .ok())
        fatal("wire_load: init failed");
    return {m.addr, m.addr + bytes};
}

/** The same arming through a RimeClient. */
std::pair<Addr, Addr>
armRange(RimeClient &client, std::uint64_t session)
{
    const std::uint64_t bytes = kKeysPerRange * sizeof(std::uint32_t);
    Request r;
    r.kind = RequestKind::Malloc;
    r.bytes = bytes;
    const Response m = client.call(session, std::move(r));
    if (!m.ok())
        fatal("wire_load: remote malloc failed");
    r = Request();
    r.kind = RequestKind::StoreArray;
    r.start = m.addr;
    r.values = randomRaws(kKeysPerRange, 7);
    if (!client.call(session, std::move(r)).ok())
        fatal("wire_load: remote store failed");
    r = Request();
    r.kind = RequestKind::Init;
    r.start = m.addr;
    r.end = m.addr + bytes;
    r.mode = KeyMode::UnsignedFixed;
    r.wordBits = 32;
    if (!client.call(session, std::move(r)).ok())
        fatal("wire_load: remote init failed");
    return {m.addr, m.addr + bytes};
}

ServiceConfig
benchService()
{
    ServiceConfig cfg;
    cfg.shards = 1;
    cfg.library = tableOneRime();
    cfg.scheduler.queueCapacity = 64;
    return cfg;
}

RunResult
runInProcess(std::uint64_t ops, std::size_t depth)
{
    RimeService svc(benchService());
    SessionConfig sc;
    sc.tenant = "inproc";
    sc.maxInFlight = kMaxDepth + 2;
    auto s = svc.openSession(sc);
    const auto [start, end] = armRange(*s);
    RunResult r = runClosedLoop(
        [&](std::vector<Request> reqs) {
            return s->submitBatch(std::move(reqs), nullptr);
        },
        start, end, ops, depth);
    s->close();
    return r;
}

RunResult
runOverWire(std::uint64_t ops, std::size_t depth,
            std::size_t batch_ops = SchedulerConfig{}.batchOps)
{
    ServiceConfig cfg = benchService();
    cfg.scheduler.batchOps = batch_ops;
    RimeService svc(std::move(cfg));
    RimeServer server(svc, {.tcp = "tcp:127.0.0.1:0"});
    if (!server.start())
        fatal("wire_load: server failed to start");
    RimeClient client(
        {.endpoint =
             "tcp:127.0.0.1:" + std::to_string(server.tcpPort())});
    if (!client.connect())
        fatal("wire_load: client failed to connect");
    const std::uint64_t session =
        client.openSession("wire", 1, kMaxDepth + 2);
    if (session == 0)
        fatal("wire_load: remote open failed");
    const auto [start, end] = armRange(client, session);
    RunResult r = runClosedLoop(
        [&](std::vector<Request> reqs) {
            return client.submitBatch(session, std::move(reqs));
        },
        start, end, ops, depth);
    if (client.protocolErrors() != 0)
        fatal("wire_load: %llu protocol errors on a clean run",
              static_cast<unsigned long long>(
                  client.protocolErrors()));
    client.closeSession(session);
    client.disconnect();
    server.stop();
    r.serverTimeoutWakes = server.timeoutWakes();
    return r;
}

struct ChaosResult
{
    std::uint64_t served = 0;
    std::uint64_t failed = 0; ///< futures completed Closed/Rejected
    std::uint64_t disconnects = 0;
    std::uint64_t reconnects = 0;
    std::uint64_t transportErrors = 0;
    std::uint64_t protocolErrors = 0;
    std::uint64_t serverProtocolErrors = 0;
    std::uint64_t serverTimeoutWakes = 0;
};

/**
 * Depth-8 pipelining under forced disconnects: every `opsPerCut`
 * served ops the client drops the connection cold (in-flight futures
 * and all), reconnects, reopens its session and re-arms the range.
 */
ChaosResult
runChaos(std::uint64_t ops, std::uint64_t ops_per_cut)
{
    RimeService svc(benchService());
    RimeServer server(svc, {.tcp = "tcp:127.0.0.1:0"});
    if (!server.start())
        fatal("wire_load: chaos server failed to start");
    ClientConfig ccfg;
    ccfg.endpoint = "tcp:127.0.0.1:" + std::to_string(server.tcpPort());
    ccfg.backoffBaseMs = 1;
    RimeClient client(ccfg);
    if (!client.connect())
        fatal("wire_load: chaos client failed to connect");

    ChaosResult out;
    std::uint64_t session = 0;
    Addr start = 0, end = 0;
    std::uint64_t sinceCut = 0;
    std::deque<std::future<Response>> window;

    const auto rearm = [&] {
        session = client.openSession("chaos", 1, kMaxDepth + 2);
        if (session == 0)
            fatal("wire_load: chaos reopen failed");
        const auto range = armRange(client, session);
        start = range.first;
        end = range.second;
    };
    rearm();

    while (out.served < ops) {
        while (window.size() < kMaxDepth) {
            Request r;
            r.kind = RequestKind::TopK;
            r.start = start;
            r.end = end;
            r.count = kTopK;
            window.push_back(client.submit(session, std::move(r)));
        }
        Response resp = window.front().get();
        window.pop_front();
        if (resp.status == ServiceStatus::Closed) {
            // Our own cut (or its wake): drain the doomed window,
            // reconnect, reopen, re-arm.  Nothing is retried blindly.
            ++out.failed;
            while (!window.empty()) {
                (void)window.front().get();
                window.pop_front();
                ++out.failed;
            }
            if (!client.connect())
                fatal("wire_load: chaos reconnect failed");
            rearm();
            continue;
        }
        if (resp.status == ServiceStatus::Rejected) {
            ++out.failed;
            std::this_thread::yield();
            continue;
        }
        if (resp.status == ServiceStatus::Empty ||
            (resp.ok() && resp.items.size() < kTopK)) {
            Request init;
            init.kind = RequestKind::Init;
            init.start = start;
            init.end = end;
            init.mode = KeyMode::UnsignedFixed;
            init.wordBits = 32;
            (void)client.call(session, std::move(init));
            ++out.served;
        } else if (resp.ok()) {
            ++out.served;
        } else {
            fatal("wire_load: chaos topK failed with %s",
                  serviceStatusName(resp.status));
        }
        if (++sinceCut >= ops_per_cut && out.served < ops) {
            sinceCut = 0;
            ++out.disconnects;
            client.disconnect(); // futures in flight and all
        }
    }

    out.reconnects = client.reconnects();
    out.transportErrors = client.transportErrors();
    out.protocolErrors = client.protocolErrors();
    out.serverProtocolErrors = server.protocolErrors();
    client.disconnect();
    server.stop();
    out.serverTimeoutWakes = server.timeoutWakes();
    return out;
}

/**
 * Phase 4: `clients` concurrent RimeClients against one server, each
 * driving the closed loop on its own session/range.  Returns the
 * per-client results; fairness is judged on the p99 spread.  The
 * shared server's timeout-wake count goes to `timeout_wakes`.
 */
std::vector<RunResult>
runFairness(std::uint64_t ops, unsigned clients,
            std::uint64_t &timeout_wakes)
{
    RimeService svc(benchService());
    RimeServer server(svc, {.tcp = "tcp:127.0.0.1:0"});
    if (!server.start())
        fatal("wire_load: fairness server failed to start");
    const std::string endpoint =
        "tcp:127.0.0.1:" + std::to_string(server.tcpPort());

    std::vector<RunResult> results(clients);
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (unsigned c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            RimeClient client({.endpoint = endpoint});
            if (!client.connect())
                fatal("wire_load: fairness client %u failed to "
                      "connect",
                      c);
            const std::uint64_t session = client.openSession(
                "fair-" + std::to_string(c), 1, kMaxDepth + 2);
            if (session == 0)
                fatal("wire_load: fairness open failed");
            const auto [start, end] = armRange(client, session);
            results[c] = runClosedLoop(
                [&](std::vector<Request> reqs) {
                    return client.submitBatch(session,
                                              std::move(reqs));
                },
                start, end, ops, /*depth=*/4);
            if (client.protocolErrors() != 0)
                fatal("wire_load: fairness client %u saw protocol "
                      "errors",
                      c);
            client.closeSession(session);
        });
    }
    for (auto &t : threads)
        t.join();
    server.stop();
    timeout_wakes = server.timeoutWakes();
    return results;
}

} // namespace

int
main()
{
    setVerbose(false);
    ::setenv("RIME_THREADS", "1", 0); // deterministic single-core sim
    const auto ops = static_cast<std::uint64_t>(
        std::max<long>(64, std::lround(512.0 * benchScale())));

    std::printf("=== wire load (TopK %llu of %llu keys, %llu ops per "
                "run) ===\n",
                static_cast<unsigned long long>(kTopK),
                static_cast<unsigned long long>(kKeysPerRange),
                static_cast<unsigned long long>(ops));

    // Phase 1: the wire depth sweep.
    std::printf("%8s %10s %12s %10s %10s %10s\n", "depth", "wall ms",
                "ops/s", "p50 us", "p99 us", "avg batch");
    // Loop iterations, summed over every server this bench starts,
    // that the poll safety net woke with a reply ready.  Must be 0.
    std::uint64_t timeoutWakes = 0;
    std::vector<std::pair<std::size_t, RunResult>> sweep;
    for (const std::size_t depth : {1u, 2u, 4u, 8u}) {
        sweep.emplace_back(depth, runOverWire(ops, depth));
        const RunResult &r = sweep.back().second;
        timeoutWakes += r.serverTimeoutWakes;
        std::printf("%8zu %10.1f %12.1f %10.1f %10.1f %10.2f\n",
                    depth, r.wallMs, r.opsPerSec, r.p50Us, r.p99Us,
                    r.avgBatch);
    }

    // Phase 2: the in-process baseline at the same depth.  The ratio
    // legs run 4x the ops of the sweep and take the better of two
    // runs each -- short runs on a shared host jitter enough to flip
    // any gate.
    //
    // The target is hardware-dependent and honest about it: with
    // spare cores the wire turnaround (codec on both sides, two
    // socket hops, the event loop) overlaps shard execution and must
    // cost at most 15% (>= 0.85x).  On a single core nothing
    // overlaps -- every wire byte is CPU the shard could have spent
    // executing -- so the structural ceiling is exec/(exec+turnaround)
    // and the gate drops to 0.50x.
    const std::uint64_t ratioOps = ops * 4;
    const bool singleCore = std::thread::hardware_concurrency() <= 1;
    const double ratioTarget = singleCore ? 0.50 : 0.85;
    RunResult inproc = runInProcess(ratioOps, kMaxDepth);
    const RunResult inproc2 = runInProcess(ratioOps, kMaxDepth);
    if (inproc2.opsPerSec > inproc.opsPerSec)
        inproc = inproc2;
    RunResult wire8 = runOverWire(ratioOps, kMaxDepth);
    const RunResult wire8b = runOverWire(ratioOps, kMaxDepth);
    timeoutWakes += wire8.serverTimeoutWakes + wire8b.serverTimeoutWakes;
    if (wire8b.opsPerSec > wire8.opsPerSec)
        wire8 = wire8b;
    const double ratio =
        inproc.opsPerSec > 0 ? wire8.opsPerSec / inproc.opsPerSec : 0;
    std::printf("in-process depth-%zu: %.1f ops/s (p50 %.1f us, "
                "avg batch %.2f)\n",
                kMaxDepth, inproc.opsPerSec, inproc.p50Us,
                inproc.avgBatch);
    std::printf("wire depth-%zu: %.1f ops/s (avg batch %.2f)\n",
                kMaxDepth, wire8.opsPerSec, wire8.avgBatch);
    std::printf("wire/in-process throughput ratio: %.2fx %s %.2fx "
                "target%s)\n",
                ratio, ratio >= ratioTarget ? "(>=" : "(BELOW",
                ratioTarget,
                singleCore ? ", single-core host" : "");

    // Phase 2b: the service batch-size sweep at depth 8 -- how much
    // of the wire rate the whole-read hand-off buys.
    const RunResult wireB1 = runOverWire(ratioOps, kMaxDepth, 1);
    timeoutWakes += wireB1.serverTimeoutWakes;
    std::printf("wire depth-%zu batchOps sweep: 1 -> %.1f ops/s, "
                "32 -> %.1f ops/s\n",
                kMaxDepth, wireB1.opsPerSec, wire8.opsPerSec);

    // Phase 3: disconnect chaos at depth 8.
    const std::uint64_t chaosOps = std::max<std::uint64_t>(ops / 2, 64);
    const ChaosResult chaos = runChaos(chaosOps, chaosOps / 8);
    std::printf("chaos: %llu served, %llu failed, %llu disconnects, "
                "%llu reconnects, %llu transport errors, "
                "%llu protocol errors (%llu server-side)\n",
                static_cast<unsigned long long>(chaos.served),
                static_cast<unsigned long long>(chaos.failed),
                static_cast<unsigned long long>(chaos.disconnects),
                static_cast<unsigned long long>(chaos.reconnects),
                static_cast<unsigned long long>(chaos.transportErrors),
                static_cast<unsigned long long>(chaos.protocolErrors),
                static_cast<unsigned long long>(
                    chaos.serverProtocolErrors));

    // Phase 4: multi-client fairness.
    constexpr unsigned kFairClients = 4;
    const std::uint64_t fairOps = std::max<std::uint64_t>(ops / 2, 64);
    std::uint64_t fairTimeoutWakes = 0;
    const std::vector<RunResult> fairness =
        runFairness(fairOps, kFairClients, fairTimeoutWakes);
    std::vector<double> p99s;
    for (const RunResult &r : fairness)
        p99s.push_back(r.p99Us);
    std::vector<double> sorted = p99s;
    const double fairMedian = percentile(sorted, 0.5);
    const double fairMax =
        *std::max_element(p99s.begin(), p99s.end());
    const double fairSpread =
        fairMedian > 0 ? fairMax / fairMedian : 0.0;
    std::printf("fairness: %u clients x %llu ops, per-client p99",
                kFairClients,
                static_cast<unsigned long long>(fairOps));
    for (const double p : p99s)
        std::printf(" %.1f", p);
    std::printf(" us; max/median %.2fx %s\n", fairSpread,
                fairSpread < 2.0 ? "(< 2x target)"
                                 : "(ABOVE 2x target)");

    timeoutWakes += chaos.serverTimeoutWakes + fairTimeoutWakes;
    std::printf("server timeout wakes (all phases): %llu%s\n",
                static_cast<unsigned long long>(timeoutWakes),
                timeoutWakes == 0 ? "" : " (must be 0)");

    std::ostringstream arr;
    arr << "[\n";
    for (std::size_t i = 0; i < sweep.size(); ++i) {
        const auto &[depth, r] = sweep[i];
        arr << "    {\"depth\": " << depth << ", \"ops\": " << r.served
            << ", \"wall_ms\": " << r.wallMs
            << ", \"ops_per_sec\": " << r.opsPerSec
            << ", \"rejected\": " << r.rejected
            << ", \"rtt_p50_us\": " << r.p50Us
            << ", \"rtt_p99_us\": " << r.p99Us << "}"
            << (i + 1 < sweep.size() ? "," : "") << "\n";
    }
    arr << "  ]";

    std::ostringstream fairArr;
    fairArr << "[";
    for (std::size_t i = 0; i < p99s.size(); ++i)
        fairArr << p99s[i] << (i + 1 < p99s.size() ? ", " : "");
    fairArr << "]";

    std::ostringstream chaosJson;
    chaosJson << "{\"served\": " << chaos.served
              << ", \"failed\": " << chaos.failed
              << ", \"disconnects\": " << chaos.disconnects
              << ", \"reconnects\": " << chaos.reconnects
              << ", \"transport_errors\": " << chaos.transportErrors
              << ", \"protocol_errors\": " << chaos.protocolErrors
              << ", \"server_protocol_errors\": "
              << chaos.serverProtocolErrors << "}";

    BenchJson("wire_load")
        .field("keys_per_range", kKeysPerRange)
        .field("topk", kTopK)
        .field("ops", ops)
        .raw("wire_depth_sweep", arr.str())
        .field("inproc_ops_per_sec", inproc.opsPerSec)
        .field("inproc_rtt_p50_us", inproc.p50Us)
        .field("inproc_rtt_p99_us", inproc.p99Us)
        .field("inproc_avg_batch", inproc.avgBatch)
        .field("wire_ops_per_sec", wire8.opsPerSec)
        .field("wire_avg_batch", wire8.avgBatch)
        .field("wire_ratio", ratio)
        .field("single_core_host", singleCore)
        .field("ratio_target", ratioTarget)
        .field("ratio_ok", ratio >= ratioTarget)
        .raw("wire_batch_sweep",
             "[\n    {\"batch_ops\": 1, \"ops_per_sec\": " +
                 std::to_string(wireB1.opsPerSec) +
                 "},\n    {\"batch_ops\": 32, \"ops_per_sec\": " +
                 std::to_string(wire8.opsPerSec) + "}\n  ]")
        .raw("chaos", chaosJson.str())
        .field("chaos_protocol_errors_ok",
               chaos.protocolErrors == 0 &&
                   chaos.serverProtocolErrors == 0)
        .raw("fairness_p99_us", fairArr.str())
        .field("fairness_clients", kFairClients)
        .field("fairness_ops", fairOps)
        .field("fairness_p99_median_us", fairMedian)
        .field("fairness_p99_max_us", fairMax)
        .field("fairness_spread", fairSpread)
        .field("fairness_ok", fairSpread < 2.0)
        .field("server_timeout_wakes", timeoutWakes)
        .write("BENCH_wire.json");
    return 0;
}
