/**
 * @file
 * wire_topk and wire_store: one RimeClient drives an in-process
 * RimeServer over loopback TCP; the server fronts a one-shard
 * journaled RimeService on the FastRime backend.  Both run a closed
 * loop at depth 8 over an op script that is a pure function of the
 * op index and the seed, so the device sees the same op sequence on
 * every run and its simulated clock can be replayed exactly.
 */

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <filesystem>
#include <functional>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/bitio.hh"
#include "common/rng.hh"
#include "common/stat_registry.hh"
#include "net/client.hh"
#include "net/server.hh"
#include "rime/api.hh"
#include "service/journal.hh"
#include "service/service.hh"
#include "service/wire.hh"
#include "workloads.hh"

namespace perfbench
{
namespace
{

using rime::Addr;
using rime::KeyMode;
using rime::LibraryConfig;
using rime::RimeLibrary;
using rime::Tick;
using rime::net::RimeClient;
using rime::net::RimeServer;
using rime::service::Request;
using rime::service::RequestKind;
using rime::service::Response;
using rime::service::RimeService;
using rime::service::ServiceStatus;
using rime::service::Session;
namespace fs = std::filesystem;

constexpr std::size_t kDepth = 8;
/** Quota headroom over the depth, so no request is shed. */
constexpr unsigned kMaxInFlight = kDepth + 2;
constexpr std::uint64_t kTopK = 64;
constexpr std::uint64_t kTopkRanges = 16;
constexpr std::uint64_t kTopkKeys = 64 * 1024;
/** TopK requests that drain one range; the next op re-arms it. */
constexpr std::uint64_t kTopkPerArm = kTopkKeys / kTopK;
/** One full cycle: every range drained once and re-armed once. */
constexpr std::uint64_t kTopkPrefix = kTopkRanges * (kTopkPerArm + 1);
constexpr std::uint64_t kStoreRanges = 8;
constexpr std::uint64_t kStoreKeys = 16 * 1024;
/** Eight stores per range before the simulated read-back. */
constexpr std::uint64_t kStorePrefix = 8 * kStoreRanges;
/** An RTT above this is a stall (the 100 ms poll safety net). */
constexpr double kStallUs = 50e3;
constexpr unsigned kWordBytes = 4;

/** The Table-I RIME system on the FastRime backend. */
LibraryConfig
fastRimeConfig()
{
    LibraryConfig cfg;
    cfg.device.channels = 1;
    cfg.device.bitLevel = false;
    cfg.driver.startupPages = 1 << 16;
    cfg.driver.growthPages = 1 << 16;
    cfg.autoPublishStats = false;
    return cfg;
}

/** n uniform 32-bit keys of one stream of the run's seed. */
std::vector<std::uint64_t>
seededKeys(std::uint64_t seed, std::uint64_t stream, std::uint64_t n)
{
    rime::Rng rng(seed * 0x9E3779B97F4A7C15ULL +
                  (stream + 1) * 0xD1B54A32D192ED03ULL);
    std::vector<std::uint64_t> keys(n);
    for (auto &k : keys)
        k = rng() & 0xFFFFFFFFULL;
    return keys;
}

Request
initRequest(Addr start, std::uint64_t keys)
{
    Request r;
    r.kind = RequestKind::Init;
    r.start = start;
    r.end = start + keys * kWordBytes;
    r.mode = KeyMode::UnsignedFixed;
    r.wordBits = 32;
    return r;
}

/**
 * An op script: the request of op `op` and the check of its
 * response.  Scripts are pure functions of (seed, op index).
 */
struct Script
{
    virtual ~Script() = default;
    virtual Request request(std::uint64_t op) const = 0;
    /** Output check; on a mismatch, calls out.wrong(). */
    virtual void check(std::uint64_t op, const Response &resp,
                       Outcome &out) const = 0;
};

/**
 * wire_topk: op i works on range i % 16; each range takes 1024
 * TopK-64 requests (drained), then one Init re-arms it.
 */
struct TopkScript final : Script
{
    std::vector<Addr> bases;
    /** Sorted keys of every range: the oracle. */
    std::vector<std::vector<std::uint64_t>> sorted;

    static std::uint64_t range(std::uint64_t op)
    { return op % kTopkRanges; }
    /** Position in the range's cycle; kTopkPerArm is the re-arm. */
    static std::uint64_t pos(std::uint64_t op)
    { return (op / kTopkRanges) % (kTopkPerArm + 1); }

    Request
    request(std::uint64_t op) const override
    {
        const Addr base = bases[range(op)];
        if (pos(op) == kTopkPerArm)
            return initRequest(base, kTopkKeys);
        Request r;
        r.kind = RequestKind::TopK;
        r.start = base;
        r.end = base + kTopkKeys * kWordBytes;
        r.count = kTopK;
        return r;
    }

    void
    check(std::uint64_t op, const Response &resp,
          Outcome &out) const override
    {
        if (!resp.ok()) {
            out.wrong("topk op %llu: status %s",
                      static_cast<unsigned long long>(op),
                      rime::service::serviceStatusName(resp.status));
            return;
        }
        if (pos(op) == kTopkPerArm)
            return;
        const auto &want = sorted[range(op)];
        const std::uint64_t first = pos(op) * kTopK;
        bool same = resp.items.size() == kTopK;
        for (std::uint64_t j = 0; same && j < kTopK; ++j)
            same = resp.items[j].raw == want[first + j];
        if (!same) {
            out.wrong("topk op %llu: items differ from the sorted "
                      "oracle at ranks [%llu, %llu)",
                      static_cast<unsigned long long>(op),
                      static_cast<unsigned long long>(first),
                      static_cast<unsigned long long>(first + kTopK));
        }
    }
};

/** wire_store: op i stores 16 Ki fresh keys into range i % 8. */
struct StoreScript final : Script
{
    std::uint64_t seed = 0;
    std::vector<Addr> bases;

    static std::uint64_t range(std::uint64_t op)
    { return op % kStoreRanges; }

    std::vector<std::uint64_t>
    keys(std::uint64_t op) const
    {
        return seededKeys(seed, 1000 + op, kStoreKeys);
    }

    Request
    request(std::uint64_t op) const override
    {
        Request r;
        r.kind = RequestKind::StoreArray;
        r.start = bases[range(op)];
        r.values = keys(op);
        return r;
    }

    void
    check(std::uint64_t op, const Response &resp,
          Outcome &out) const override
    {
        if (!resp.ok()) {
            out.wrong("store op %llu: status %s",
                      static_cast<unsigned long long>(op),
                      rime::service::serviceStatusName(resp.status));
        }
    }
};

/** Service configuration shared by the served and in-process stacks. */
rime::service::ServiceConfig
serviceConfig(const std::string &journal_dir, bool fsync)
{
    rime::service::ServiceConfig cfg;
    cfg.shards = 1;
    cfg.library = fastRimeConfig();
    cfg.durability.dir = journal_dir;
    cfg.durability.fsyncEveryAppend = fsync;
    return cfg;
}

/**
 * One journaled service, reached either over the wire (client +
 * server) or in process (a Session).  Destruction tears the stack
 * down in dependency order and removes its journal directory.
 */
class Stack
{
  public:
    Stack(const Options &opts, bool fsync, bool over_wire)
    {
        static int serial = 0;
        dir_ = opts.workDir + "/journal-" + std::to_string(::getpid()) +
            "-" + std::to_string(serial++);
        fs::remove_all(dir_);
        fs::create_directories(dir_);
        svc_ = std::make_unique<RimeService>(serviceConfig(dir_, fsync));
        if (!over_wire) {
            rime::service::SessionConfig sc;
            sc.tenant = "bench";
            sc.maxInFlight = kMaxInFlight;
            session_ = svc_->openSession(sc);
            return;
        }
        server_ = std::make_unique<RimeServer>(
            *svc_,
            rime::net::ServerConfig{.tcp = "tcp:127.0.0.1:0", .unixPath = {}});
        if (!server_->start())
            throw std::runtime_error("server failed to start");
        client_ = std::make_unique<RimeClient>(rime::net::ClientConfig{
            .endpoint =
                "tcp:127.0.0.1:" + std::to_string(server_->tcpPort())});
        if (!client_->connect())
            throw std::runtime_error("client failed to connect");
        wireSession_ = client_->openSession("bench", 1, kMaxInFlight);
        if (wireSession_ == 0)
            throw std::runtime_error("remote session open failed");
    }

    ~Stack()
    {
        if (client_)
            client_->disconnect();
        if (server_)
            server_->stop();
        client_.reset();
        server_.reset();
        if (session_)
            session_->close();
        session_.reset();
        svc_.reset();
        std::error_code ec;
        fs::remove_all(dir_, ec);
    }

    Stack(const Stack &) = delete;
    Stack &operator=(const Stack &) = delete;

    std::vector<std::future<Response>>
    submitBatch(std::vector<Request> reqs)
    {
        if (client_)
            return client_->submitBatch(wireSession_, std::move(reqs));
        return session_->submitBatch(std::move(reqs), nullptr);
    }

    Response
    call(Request req)
    {
        std::vector<Request> one;
        one.push_back(std::move(req));
        return submitBatch(std::move(one)).front().get();
    }

    /** A set-up call, logged for the simulator replay. */
    Response
    setupCall(Request req)
    {
        log_.push_back(req);
        return call(std::move(req));
    }

    /** Malloc + optional store (+ Init) of one range; its base. */
    Addr
    armRange(std::uint64_t keys, const std::vector<std::uint64_t> *data,
             bool init)
    {
        Request m;
        m.kind = RequestKind::Malloc;
        m.bytes = keys * kWordBytes;
        const Response mr = setupCall(m);
        if (!mr.ok())
            throw std::runtime_error("set-up malloc failed");
        if (data) {
            Request s;
            s.kind = RequestKind::StoreArray;
            s.start = mr.addr;
            s.values = *data;
            if (!setupCall(std::move(s)).ok())
                throw std::runtime_error("set-up store failed");
        }
        if (init && !setupCall(initRequest(mr.addr, keys)).ok())
            throw std::runtime_error("set-up init failed");
        return mr.addr;
    }

    RimeService &service() { return *svc_; }
    const std::vector<Request> &setupLog() const { return log_; }
    const std::string &dir() const { return dir_; }

  private:
    std::string dir_;
    std::unique_ptr<RimeService> svc_;
    std::unique_ptr<RimeServer> server_;
    std::unique_ptr<RimeClient> client_;
    std::uint64_t wireSession_ = 0;
    std::shared_ptr<Session> session_;
    std::vector<Request> log_;
};

/** What the closed-loop segments of one pass observed, pooled. */
struct LoopResult
{
    std::uint64_t ops = 0;
    std::uint64_t failed = 0;
    /** One timed interval per segment (latency = submit -> ready). */
    std::vector<Timed> timed;
    std::vector<double> queueUs;
    double submitUs = 0.0;
};

/**
 * Closed loop at depth 8 for `seconds`, and until at least `min_ops`
 * ops were submitted: refill the window's whole deficit with one
 * batched submit, block on the oldest future, then sweep every ready
 * one behind it; then stop submitting and drain.  A slow request is
 * never retried, dropped or clipped.  Pools into `res`; returns the
 * served shard ticks of the first `keep` ops (fewer when the segment
 * served fewer).
 */
std::vector<Tick>
closedLoop(Stack &stack, const Script &script, double seconds,
           std::uint64_t min_ops, std::uint64_t keep, Outcome &out,
           Tracer *tracer, bool over_wire, LoopResult &res)
{
    // Over the wire the request's root span is the whole stack and
    // the submit is the client library; in process both are the
    // service's Session.
    const char *rootLayer = over_wire ? "stack" : "session";
    const char *submitLayer = over_wire ? "net" : "session";
    struct InFlight
    {
        std::uint64_t op;
        Clock::time_point at;
        Clock::time_point submitEnd;
        std::future<Response> future;
    };
    std::vector<Tick> ticks;
    Timed t;
    std::deque<InFlight> window;
    std::uint64_t next = 0;
    t.cpu0S = processCpuSeconds();
    const auto t0 = Clock::now();
    while (true) {
        if (t.spanS == 0.0 && next >= min_ops &&
            secondsSince(t0) >= seconds)
            t.spanS = secondsSince(t0);
        if (t.spanS == 0.0 && window.size() < kDepth) {
            const std::size_t n = kDepth - window.size();
            std::vector<Request> batch;
            batch.reserve(n);
            for (std::size_t i = 0; i < n; ++i)
                batch.push_back(script.request(next + i));
            const auto at = Clock::now();
            auto futures = stack.submitBatch(std::move(batch));
            const auto end = Clock::now();
            res.submitUs += usBetween(at, end);
            for (std::size_t i = 0; i < n; ++i)
                window.push_back({next + i, at, end,
                                  std::move(futures[i])});
            if (tracer) {
                tracer->add(submitLayer, "submitBatch", next,
                            tracer->toUs(at), tracer->toUs(end), n);
            }
            next += n;
        }
        if (window.empty())
            break;
        std::vector<std::pair<InFlight, Response>> done;
        {
            InFlight head = std::move(window.front());
            window.pop_front();
            Response r = head.future.get();
            done.emplace_back(std::move(head), std::move(r));
        }
        while (!window.empty() &&
               window.front().future.wait_for(std::chrono::seconds(0)) ==
                   std::future_status::ready) {
            Response r = window.front().future.get();
            done.emplace_back(std::move(window.front()), std::move(r));
            window.pop_front();
        }
        const auto now = Clock::now();
        const double cpuNow = processCpuSeconds();
        for (auto &[f, resp] : done) {
            t.latUs.push_back(usBetween(f.at, now));
            t.doneS.push_back(usBetween(t0, now) * 1e-6);
            t.cpuAt.push_back(cpuNow);
            ++res.ops;
            if (!resp.ok())
                ++res.failed;
            script.check(f.op, resp, out);
            if (f.op < keep)
                ticks.push_back(resp.shardTick); // ops complete in order
            if (tracer) {
                res.queueUs.push_back(resp.queueWallNs * 1e-3);
                const double a = tracer->toUs(f.at);
                const double b = tracer->toUs(now);
                const std::int64_t root =
                    tracer->add(rootLayer, "request", f.op, a, b);
                // The queue wait is known only as a duration; it is
                // placed right after the submit returned.
                const double q0 = tracer->toUs(f.submitEnd);
                tracer->add("service", "queueWait", f.op, q0,
                            std::min(b, q0 + resp.queueWallNs * 1e-3),
                            1, root);
            }
        }
    }
    res.timed.push_back(std::move(t));
    return ticks;
}

/**
 * The simulator replay: the set-up and prefix ops applied to a fresh
 * RimeLibrary through its public API, the way the shard controller
 * executes them.  The served stack must agree with it on every
 * simulated tick.
 */
class Replay
{
  public:
    Replay() : lib_(fastRimeConfig()) {}

    /** Apply one request; its response carries the tick after it. */
    Response
    apply(const Request &req)
    {
        Response r;
        r.status = ServiceStatus::Ok;
        switch (req.kind) {
          case RequestKind::Malloc:
            r.addr = lib_.rimeMalloc(req.bytes).value_or(~0ULL);
            break;
          case RequestKind::StoreArray:
            lib_.storeArray(req.start, req.values);
            break;
          case RequestKind::Init:
            lib_.rimeInit(req.start, req.end, req.mode, req.wordBits);
            break;
          case RequestKind::TopK:
          case RequestKind::Sort: {
            const std::uint64_t cap =
                (req.end - req.start) / lib_.wordBytes();
            const std::uint64_t n =
                req.kind == RequestKind::Sort ? cap : req.count;
            r.items.reserve(n);
            for (std::uint64_t i = 0; i < n; ++i) {
                const auto e = lib_.rimeMinChecked(req.start, req.end);
                if (!e.ok()) {
                    r.status = ServiceStatus::Empty;
                    break;
                }
                r.items.push_back(e.item);
            }
            break;
          }
          default:
            r.status = ServiceStatus::Rejected;
            break;
        }
        r.shardTick = lib_.now();
        return r;
    }

    RimeLibrary &lib() { return lib_; }

  private:
    RimeLibrary lib_;
};

/** A stat group's histogram mean, 0 when absent. */
double
histMean(rime::StatRegistry &reg, const std::string &group,
         const std::string &hist)
{
    if (!reg.has(group) || !reg.group(group).hasHist(hist))
        return 0.0;
    return reg.group(group).histograms().at(hist).mean();
}

/** A stat group's value, 0 when absent. */
double
statValue(rime::StatRegistry &reg, const std::string &group,
          const std::string &stat)
{
    return reg.has(group) ? reg.group(group).get(stat) : 0.0;
}

/**
 * A wire workload's timed part: closed-loop segments (segmentsFor),
 * each on a freshly built and armed stack.  A server whose event loop
 * wedges (the lost wakeup) stays wedged for its lifetime, so
 * segmenting bounds a wedge to its segment instead of the rest of the
 * run; its stalled requests still count in every latency metric.  The
 * server's threads are created anew in every segment, so their
 * placement on the host's CPUs is sampled once per segment rather than
 * once per run.  Each segment's build is one set-up sample.
 */
struct Segmented
{
    LoopResult loop;
    std::vector<double> setupS;
    /** Served prefix ticks of every segment. */
    std::vector<std::vector<Tick>> ticks;
    /** The last segment's stack, kept for stats and replays. */
    std::unique_ptr<Stack> stack;
    /** Ops the last segment served (ops 0 .. lastOps-1). */
    std::uint64_t lastOps = 0;
};

template <typename Build>
Segmented
runSegments(Build &&build, const Script &script, double seconds,
            std::uint64_t keep, Outcome &out, Tracer *tracer)
{
    Segmented seg;
    const int segments = segmentsFor(seconds);
    for (int i = 0; i < segments; ++i) {
        seg.stack.reset();
        const auto t0 = Clock::now();
        seg.stack = build();
        seg.setupS.push_back(secondsSince(t0));
        // The last segment tops the pass up to kMinOps, so that p99
        // always has 10 samples beyond it.
        const std::uint64_t minOps = i + 1 < segments ||
                seg.loop.ops >= kMinOps
            ? 0
            : kMinOps - seg.loop.ops;
        seg.ticks.push_back(closedLoop(*seg.stack, script,
                                       seconds / segments, minOps, keep,
                                       out, tracer, true, seg.loop));
        seg.lastOps = seg.loop.timed.back().latUs.size();
        const TimingMetrics m =
            timingMetrics({seg.loop.timed.back()}, kRateWindowS);
        std::printf("segment %d: set-up %.3f s, %llu ops, %.0f ops/s, "
                    "p50 %.1f us, p99 %.1f us, %.1f cpu us/op\n",
                    i, seg.setupS.back(),
                    static_cast<unsigned long long>(seg.lastOps),
                    m.opsPerS, m.p50Us.value_or(NAN),
                    m.p99Us.value_or(NAN), m.cpuUsPerOp);
    }
    return seg;
}

/** Fill the end-to-end metrics every wire workload reports. */
void
wireE2e(const Segmented &seg, Outcome &out)
{
    const LoopResult &loop = seg.loop;
    out.attempted = loop.ops;
    out.failed = loop.failed;
    out.e2e["setup_s"] = median(seg.setupS);
    out.timing(loop.timed);
    double maxRtt = 0.0;
    std::uint64_t stalled = 0;
    for (const Timed &t : loop.timed) {
        for (const double r : t.latUs) {
            maxRtt = std::max(maxRtt, r);
            stalled += r > kStallUs;
        }
    }
    std::printf("stalls: %llu requests over %.0f us, max RTT %.1f us, "
                "%llu RTT samples behind p50/p99\n",
                static_cast<unsigned long long>(stalled), kStallUs,
                maxRtt, static_cast<unsigned long long>(loop.ops));
    out.layer["net.stalled_requests"] = static_cast<double>(stalled);
    out.layer["net.max_rtt_us"] = maxRtt;
    out.layer["net.rtt_samples"] = static_cast<double>(loop.ops);
}

/** Every segment's served prefix ticks must equal the replay's. */
void
checkTicks(const Segmented &seg, const std::vector<Response> &replayed,
           Outcome &out)
{
    for (std::size_t s = 0; s < seg.ticks.size(); ++s) {
        const auto &served = seg.ticks[s];
        for (std::size_t i = 0; i < served.size(); ++i) {
            if (served[i] != replayed[i].shardTick) {
                out.wrong("segment %zu op %zu: served shard tick %llu, "
                          "replay %llu",
                          s, i, static_cast<unsigned long long>(served[i]),
                          static_cast<unsigned long long>(
                              replayed[i].shardTick));
                break;
            }
        }
    }
}

/** Traced-pass layer metrics shared by both wire workloads. */
void
wireLayers(Stack &stack, const Script &script, const LoopResult &loop,
           const std::vector<Response> &replayed, bool topk, bool fsync,
           const Options &opts, Tracer &tracer, Outcome &out)
{
    const std::uint64_t prefix = replayed.size();
    out.layer["net.client_submit_us"] =
        loop.submitUs / static_cast<double>(loop.ops);
    out.layer["service.queue_wait_us"] = median(loop.queueUs);

    rime::StatRegistry reg;
    stack.service().collectStats(reg);
    out.layer["service.batch_size"] =
        histMean(reg, "service.shard.0", "batchSizeHost");
    out.layer["service.ops_per_commit"] =
        histMean(reg, "service.shard.0", "commitBatchOpsHost");
    const std::string api = "service.shard.0.api";
    const auto perCall = [&](const char *ns, const char *calls) {
        const double c = statValue(reg, api, calls);
        return c > 0 ? statValue(reg, api, ns) * 1e-3 / c : 0.0;
    };
    // On wire_store only the read-back Sort extracts: no TopK.
    out.layer["rime.topk_us"] = topk
        ? perCall("extractWallNs", "extractCalls") * kTopK
        : 0.0;
    out.layer["rime.init_us"] = perCall("initWallNs", "initCalls");
    out.layer["rime.store_us"] =
        perCall("bulkStoreWallNs", "bulkStoreCalls");

    // Codec replay: the prefix's requests and responses, framed and
    // parsed exactly as the client and server do.
    double encUs = 0.0, decUs = 0.0, bytes = 0.0;
    std::vector<std::uint8_t> buf, payload;
    for (std::uint64_t op = 0; op < prefix; ++op) {
        rime::service::wire::Message req, resp;
        req.kind = rime::service::wire::MessageKind::Request;
        req.corrId = op + 1;
        req.sessionId = 1;
        req.req = script.request(op);
        resp.kind = rime::service::wire::MessageKind::Response;
        resp.corrId = op + 1;
        resp.resp = replayed[op];
        buf.clear();
        const double a = tracer.nowUs();
        rime::service::wire::encodeMessage(buf, req);
        rime::service::wire::encodeMessage(buf, resp);
        const double b = tracer.nowUs();
        bytes += static_cast<double>(buf.size());
        std::size_t off = 0;
        int decoded = 0;
        rime::service::wire::Message msg;
        while (rime::readFrame(buf.data(), buf.size(), off, payload) ==
               rime::FrameStatus::Ok) {
            decoded += rime::service::wire::decodeMessage(payload, msg);
        }
        const double c = tracer.nowUs();
        if (decoded != 2)
            out.wrong("codec replay op %llu: decode failed",
                      static_cast<unsigned long long>(op));
        tracer.add("wire", "encode", op, a, b);
        tracer.add("wire", "decode", op, b, c);
        encUs += b - a;
        decUs += c - b;
    }
    const double n = static_cast<double>(prefix);
    out.layer["wire.encode_us_per_op"] = encUs / n;
    out.layer["wire.decode_us_per_op"] = decUs / n;
    out.layer["wire.bytes_per_op"] = bytes / n;
    out.exact["wire.bytes_per_op"] = bytes / n;

    // Journal replay: the prefix's Op records through a fresh
    // JournalWriter, committed in groups of the default batch size.
    {
        const std::string dir = stack.dir() + "-replay";
        fs::create_directories(dir);
        rime::service::JournalWriter writer;
        writer.open(dir + "/replay.journal", fsync);
        const std::size_t batch =
            rime::service::SchedulerConfig{}.batchOps;
        // At least 16 commits, so the commit time is a median.
        const std::uint64_t records =
            std::max<std::uint64_t>(prefix, 16 * batch);
        double appendUs = 0.0, jbytes = 0.0;
        std::vector<double> commits;
        for (std::uint64_t i = 0; i < records; ++i) {
            const std::uint64_t op = i % prefix;
            rime::service::JournalRecord rec;
            rec.kind = rime::service::JournalRecordKind::Op;
            rec.seq = i + 1;
            rec.sessionId = 1;
            rec.req = script.request(op);
            rec.status = replayed[op].status;
            const double a = tracer.nowUs();
            const auto record = rime::service::encodeRecord(rec);
            writer.bufferAppend(rec.seq, record);
            const double b = tracer.nowUs();
            appendUs += b - a;
            tracer.add("journal", "append", op, a, b);
            // Frame header: u32 length + u32 crc32.
            if (i < prefix)
                jbytes += static_cast<double>(record.size() + 8);
            if ((i + 1) % batch == 0 || i + 1 == records) {
                const double c = tracer.nowUs();
                writer.commitBatch();
                const double d = tracer.nowUs();
                commits.push_back(d - c);
                tracer.add("journal", "commit", op, c, d,
                           (i % batch) + 1);
            }
        }
        writer.close();
        fs::remove_all(dir);
        out.layer["journal.append_us_per_op"] =
            appendUs / static_cast<double>(records);
        out.layer["journal.commit_us"] = median(commits);
        out.layer["journal.bytes_per_op"] = jbytes / n;
        out.exact["journal.bytes_per_op"] = jbytes / n;
    }

    // In-process baseline: the same requests at the same depth
    // through a Session on an identical journaled service.
    Outcome inProcess;
    Stack local(opts, fsync, /*over_wire=*/false);
    for (const Request &r : stack.setupLog())
        local.setupCall(r);
    LoopResult in;
    closedLoop(local, script, 1.0, 0, 0, inProcess, &tracer, false, in);
    if (!inProcess.correct)
        out.wrong("in-process session replay failed its checks");
    out.layer["net.overhead_us"] =
        timingMetrics(loop.timed, kRateWindowS).p50Us.value_or(NAN) -
        timingMetrics(in.timed, kRateWindowS).p50Us.value_or(NAN);
    out.selfTimes(tracer);
}

/** Replay the set-up log; the simulated ticks its stores took. */
Tick
replaySetup(Replay &replay, const Stack &stack)
{
    Tick storeTicks = 0;
    for (const Request &r : stack.setupLog()) {
        const Tick before = replay.lib().now();
        const Tick after = replay.apply(r).shardTick;
        if (r.kind == RequestKind::StoreArray)
            storeTicks += after - before;
    }
    return storeTicks;
}

} // namespace

Outcome
runWireTopk(const Options &opts, Tracer *tracer)
{
    Outcome out;
    TopkScript script;
    // The oracle is the benchmark's own work, so it is built once and
    // outside the timed set-ups.
    for (std::uint64_t r = 0; r < kTopkRanges; ++r) {
        script.sorted.push_back(seededKeys(opts.seed, r, kTopkKeys));
        std::sort(script.sorted[r].begin(), script.sorted[r].end());
    }
    const auto build = [&] {
        std::vector<Addr> bases;
        auto s = std::make_unique<Stack>(opts, /*fsync=*/false,
                                         /*over_wire=*/true);
        for (std::uint64_t r = 0; r < kTopkRanges; ++r) {
            const auto keys = seededKeys(opts.seed, r, kTopkKeys);
            bases.push_back(s->armRange(kTopkKeys, &keys, /*init=*/true));
        }
        if (!script.bases.empty() && bases != script.bases)
            out.wrong("a rebuilt stack allocated different addresses");
        script.bases = bases;
        return s;
    };
    Segmented seg =
        runSegments(build, script, opts.seconds, kTopkPrefix, out, tracer);
    wireE2e(seg, out);

    // Simulated metrics over the fixed prefix, from the replay.
    Replay replay;
    const Tick storeTicks = replaySetup(replay, *seg.stack);
    double storeKeys = 0.0;
    for (const Request &r : seg.stack->setupLog())
        storeKeys += static_cast<double>(r.values.size());
    const Tick tSetup = replay.lib().now();
    const double e0 = replay.lib().energyPJ();
    std::vector<Response> prefix;
    prefix.reserve(kTopkPrefix);
    double keysOut = 0.0, extractNs = 0.0;
    for (std::uint64_t op = 0; op < kTopkPrefix; ++op) {
        const Request req = script.request(op);
        const Tick before = replay.lib().now();
        const double a = tracer ? tracer->nowUs() : 0.0;
        prefix.push_back(replay.apply(req));
        if (tracer)
            tracer->add("rime", "replayOp", op, a, tracer->nowUs());
        script.check(op, prefix.back(), out);
        if (req.kind == RequestKind::TopK) {
            keysOut += static_cast<double>(prefix.back().items.size());
            extractNs += rime::ticksToNs(prefix.back().shardTick - before);
        }
    }
    checkTicks(seg, prefix, out);
    const double simS = rime::ticksToSeconds(replay.lib().now() - tSetup);
    out.e2e["sim_mkps"] = keysOut / simS / 1e6;
    out.e2e["sim_nj_per_key"] =
        (replay.lib().energyPJ() - e0) * 1e-3 / keysOut;
    out.exact["sim_mkps"] = out.e2e["sim_mkps"];
    out.exact["sim_nj_per_key"] = out.e2e["sim_nj_per_key"];

    if (tracer) {
        out.layer["sim.extract_ns"] = extractNs / keysOut;
        out.layer["sim.store_ns"] =
            rime::ticksToNs(storeTicks) / storeKeys;
        out.exact["sim.extract_ns"] = out.layer["sim.extract_ns"];
        out.exact["sim.store_ns"] = out.layer["sim.store_ns"];
        wireLayers(*seg.stack, script, seg.loop, prefix, /*topk=*/true,
                   /*fsync=*/false, opts, *tracer, out);
    }
    return out;
}

Outcome
runWireStore(const Options &opts, Tracer *tracer)
{
    Outcome out;
    StoreScript script;
    script.seed = opts.seed;
    const auto build = [&] {
        std::vector<Addr> bases;
        auto s = std::make_unique<Stack>(opts, /*fsync=*/true,
                                         /*over_wire=*/true);
        for (std::uint64_t r = 0; r < kStoreRanges; ++r) {
            const auto keys = seededKeys(opts.seed, 500 + r, kStoreKeys);
            bases.push_back(
                s->armRange(kStoreKeys, &keys, /*init=*/false));
        }
        if (!script.bases.empty() && bases != script.bases)
            out.wrong("a rebuilt stack allocated different addresses");
        script.bases = bases;
        return s;
    };
    Segmented seg =
        runSegments(build, script, opts.seconds, kStorePrefix, out, tracer);
    wireE2e(seg, out);

    // Read-back check on the last segment's stack: Init + Sort of
    // every range returns the sorted keys stored there last (or at
    // set-up when no op stored there since).
    for (std::uint64_t r = 0; r < kStoreRanges; ++r) {
        std::vector<std::uint64_t> want =
            seededKeys(opts.seed, 500 + r, kStoreKeys);
        for (std::uint64_t op = seg.lastOps; op-- > 0;) {
            if (StoreScript::range(op) == r) {
                want = script.keys(op);
                break;
            }
        }
        std::sort(want.begin(), want.end());
        Request sort;
        sort.kind = RequestKind::Sort;
        sort.start = script.bases[r];
        sort.end = sort.start + kStoreKeys * kWordBytes;
        const Response ir =
            seg.stack->call(initRequest(script.bases[r], kStoreKeys));
        const Response sr = seg.stack->call(sort);
        bool same = ir.ok() && sr.ok() && sr.items.size() == want.size();
        for (std::size_t i = 0; same && i < want.size(); ++i)
            same = sr.items[i].raw == want[i];
        if (!same) {
            out.wrong("wire_store range %llu: Init + Sort differs from "
                      "the keys stored last",
                      static_cast<unsigned long long>(r));
        }
    }

    // Simulated metrics over the fixed prefix: the stores, then an
    // Init + Sort of every range (stored keys made rankable, ranked).
    Replay replay;
    replaySetup(replay, *seg.stack);
    const Tick t0 = replay.lib().now();
    const double e0 = replay.lib().energyPJ();
    std::vector<Response> prefix;
    for (std::uint64_t op = 0; op < kStorePrefix; ++op)
        prefix.push_back(replay.apply(script.request(op)));
    checkTicks(seg, prefix, out);
    const Tick tStored = replay.lib().now();
    for (std::uint64_t r = 0; r < kStoreRanges; ++r) {
        const Addr base = script.bases[r];
        replay.apply(initRequest(base, kStoreKeys));
        Request sort;
        sort.kind = RequestKind::Sort;
        sort.start = base;
        sort.end = base + kStoreKeys * kWordBytes;
        const Response sr = replay.apply(sort);
        std::vector<std::uint64_t> want =
            script.keys(kStorePrefix - kStoreRanges + r);
        std::sort(want.begin(), want.end());
        bool same = sr.items.size() == want.size();
        for (std::size_t i = 0; same && i < want.size(); ++i)
            same = sr.items[i].raw == want[i];
        if (!same)
            out.wrong("replayed read-back of range %llu differs",
                      static_cast<unsigned long long>(r));
    }
    const double stored = static_cast<double>(kStorePrefix * kStoreKeys);
    const double sorted = static_cast<double>(kStoreRanges * kStoreKeys);
    const double simS = rime::ticksToSeconds(replay.lib().now() - t0);
    out.e2e["sim_mkps"] = (stored + sorted) / simS / 1e6;
    out.e2e["sim_nj_per_key"] =
        (replay.lib().energyPJ() - e0) * 1e-3 / (stored + sorted);
    out.exact["sim_mkps"] = out.e2e["sim_mkps"];
    out.exact["sim_nj_per_key"] = out.e2e["sim_nj_per_key"];

    if (tracer) {
        out.layer["sim.store_ns"] = rime::ticksToNs(tStored - t0) / stored;
        out.layer["sim.extract_ns"] =
            rime::ticksToNs(replay.lib().now() - tStored) / sorted;
        out.exact["sim.extract_ns"] = out.layer["sim.extract_ns"];
        out.exact["sim.store_ns"] = out.layer["sim.store_ns"];
        wireLayers(*seg.stack, script, seg.loop, prefix, /*topk=*/false,
                   /*fsync=*/true, opts, *tracer, out);
    }
    return out;
}

} // namespace perfbench
