/**
 * @file
 * Cluster-tier load generator: N RimeServer instances behind one
 * ClusterRouter, reported in BENCH_cluster.json.
 *
 * Four phases:
 *
 *  1. Scale-out sweep: N in {1,2,4,8} server instances, 4 sessions
 *     per instance, a fixed per-session TopK workload.  Aggregate
 *     throughput is *simulated*: total ranked items over the busiest
 *     instance's simulated clock (the wall clock of a real fleet is
 *     its slowest member; every instance simulates independently, so
 *     the busiest shard tick is exactly that).  Targets: >= 3x at 4
 *     instances (CI-gated), >= 6x at 8.
 *
 *  2. Tenant skew: a hot tenant submitting 10x the request rate of
 *     four cold tenants, with a cluster-wide quota on the hot one.
 *     The quota must bind (hot sheds > 0) while the cold tenants see
 *     zero rejects and a p99 under 25 ms -- a quarter of the server's
 *     100 ms poll safety net, so a single request stalled on that
 *     timeout fails the gate.
 *
 *  3. Failover exactness: rank halfway through a known key set,
 *     drain the homing instance live (with requests racing the
 *     freeze), finish on the peer.  The union of items extracted
 *     before and after must equal the reference set exactly -- no
 *     committed operation lost, none duplicated.
 *
 *  4. kill -KILL chaos (only when RIME_SERVER_BIN names a rime_server
 *     binary): three real server processes with fsync'd journals, one
 *     SIGKILLed mid-stream and respawned on the same journal; the
 *     router reconnects and resumes sessions by token.  Gates: zero
 *     committed-op loss (no duplicate, no foreign, no missing item)
 *     and reject rate < 1%.
 *
 * Phases 1-3 run in-process servers over loopback TCP; wall numbers
 * are host-dependent, the gates are ratios, counters, and simulated
 * time.  server_timeout_wakes sums RimeServer::timeoutWakes over those
 * in-process servers: replies that waited on the event loop's poll
 * safety net instead of their wake.  It must be 0.  (The chaos
 * phase's server processes do not export the counter.)
 * RIME_BENCH_SCALE scales op counts.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bench/bench_util.hh"
#include "cluster/router.hh"
#include "common/logging.hh"
#include "net/server.hh"
#include "service/service.hh"

using namespace rime;
using namespace rime::bench;
using namespace rime::cluster;
using namespace rime::service;
using namespace rime::net;

namespace
{

using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kKeysPerSession = 4096;

/**
 * RimeServer::timeoutWakes summed over every in-process Instance this
 * run has torn down (phases 1-3).  Must stay 0.
 */
std::uint64_t fleetTimeoutWakes = 0;

/** One in-process cluster member. */
struct Instance
{
    std::unique_ptr<RimeService> service;
    std::unique_ptr<RimeServer> server;
    std::string endpoint;

    ~Instance()
    {
        server->stop();
        fleetTimeoutWakes += server->timeoutWakes();
    }

    Instance()
    {
        ServiceConfig cfg;
        cfg.shards = 1;
        cfg.library = tableOneRime();
        service = std::make_unique<RimeService>(std::move(cfg));
        ServerConfig scfg;
        scfg.tcp = "tcp:127.0.0.1:0";
        server = std::make_unique<RimeServer>(*service, scfg);
        if (!server->start())
            fatal("cluster_load: server failed to start");
        endpoint =
            "tcp:127.0.0.1:" + std::to_string(server->tcpPort());
    }
};

ClientConfig
fastClient()
{
    ClientConfig cc;
    cc.connectAttempts = 3;
    cc.backoffBaseMs = 10;
    return cc;
}

RouterConfig
routerOver(const std::vector<std::unique_ptr<Instance>> &fleet)
{
    RouterConfig cfg;
    for (const auto &inst : fleet)
        cfg.members.push_back(
            MemberConfig{inst->endpoint, fastClient()});
    return cfg;
}

/** malloc + store + init `values` on a cluster session. */
Addr
armSession(ClusterSession &s, const std::vector<std::uint64_t> &values)
{
    Request r;
    r.kind = RequestKind::Malloc;
    r.bytes = values.size() * sizeof(std::uint32_t);
    const Response m = s.call(std::move(r));
    if (!m.ok())
        fatal("cluster_load: malloc failed");
    Request store;
    store.kind = RequestKind::StoreArray;
    store.start = m.addr;
    store.values = values;
    if (!s.call(std::move(store)).ok())
        fatal("cluster_load: store failed");
    Request init;
    init.kind = RequestKind::Init;
    init.start = m.addr;
    init.end = m.addr + values.size() * sizeof(std::uint32_t);
    init.mode = KeyMode::UnsignedFixed;
    init.wordBits = 32;
    if (!s.call(std::move(init)).ok())
        fatal("cluster_load: init failed");
    return m.addr;
}

Request
topkRequest(Addr base, std::uint64_t bytes, std::uint64_t count)
{
    Request r;
    r.kind = RequestKind::TopK;
    r.start = base;
    r.end = base + bytes;
    r.count = count;
    return r;
}

// ----------------------------------------------------------------------
// Phase 1: scale-out sweep
// ----------------------------------------------------------------------

struct ScalePoint
{
    unsigned instances = 0;
    unsigned sessions = 0;
    std::uint64_t items = 0;
    double simSeconds = 0.0;
    double itemsPerSec = 0.0;
};

ScalePoint
runScale(unsigned n, std::uint64_t ops_per_session)
{
    std::vector<std::unique_ptr<Instance>> fleet;
    for (unsigned i = 0; i < n; ++i)
        fleet.push_back(std::make_unique<Instance>());
    ClusterRouter router(routerOver(fleet));
    if (!router.connect())
        fatal("cluster_load: scale fleet connect failed");

    const unsigned nSessions = 4 * n;
    struct Armed
    {
        std::shared_ptr<ClusterSession> session;
        Addr base = 0;
    };
    std::vector<Armed> armed;
    for (unsigned i = 0; i < nSessions; ++i) {
        ClusterSessionConfig cfg;
        cfg.tenant = "scale-" + std::to_string(i);
        auto s = router.openSession(cfg);
        if (!s)
            fatal("cluster_load: scale openSession failed");
        const Addr base =
            armSession(*s, randomRaws(kKeysPerSession, 1000 + i));
        armed.push_back({std::move(s), base});
    }

    ScalePoint out;
    out.instances = n;
    out.sessions = nSessions;
    std::map<unsigned, Tick> memberTick;
    const std::uint64_t bytes =
        kKeysPerSession * sizeof(std::uint32_t);
    for (std::uint64_t op = 0; op < ops_per_session; ++op) {
        for (auto &a : armed) {
            const Response r =
                a.session->call(topkRequest(a.base, bytes, 64));
            if (!r.ok())
                fatal("cluster_load: scale topK failed");
            out.items += r.items.size();
            Tick &t = memberTick[a.session->member()];
            t = std::max(t, r.shardTick);
        }
    }
    Tick busiest = 0;
    for (const auto &[member, tick] : memberTick)
        busiest = std::max(busiest, tick);
    out.simSeconds = ticksToSeconds(busiest);
    out.itemsPerSec = out.simSeconds > 0
        ? static_cast<double>(out.items) / out.simSeconds
        : 0.0;
    for (auto &a : armed)
        a.session->close();
    return out;
}

// ----------------------------------------------------------------------
// Phase 2: tenant skew under admission control
// ----------------------------------------------------------------------

/**
 * Cold-tenant p99 bound of the skew gate.  Well under the server's
 * 100 ms poll timeout, so a stall on that safety net cannot pass.
 */
constexpr double kColdP99LimitUs = 25000.0;

struct SkewResult
{
    std::uint64_t rounds = 0;
    std::uint64_t hotServed = 0;
    std::uint64_t hotShed = 0;
    std::uint64_t coldServed = 0;
    std::uint64_t coldRejects = 0;
    double hotP99Us = 0.0;
    double coldP50Us = 0.0;
    double coldP99Us = 0.0;
};

SkewResult
runSkew(std::uint64_t rounds)
{
    std::vector<std::unique_ptr<Instance>> fleet;
    fleet.push_back(std::make_unique<Instance>());
    fleet.push_back(std::make_unique<Instance>());
    ClusterRouter router(routerOver(fleet));
    if (!router.connect())
        fatal("cluster_load: skew fleet connect failed");
    router.setTenantQuota("hot", TenantQuota{4, 1});

    struct Armed
    {
        std::shared_ptr<ClusterSession> session;
        Addr base = 0;
    };
    const auto open = [&](const std::string &tenant) {
        ClusterSessionConfig cfg;
        cfg.tenant = tenant;
        cfg.maxInFlight = 16;
        auto s = router.openSession(cfg);
        if (!s)
            fatal("cluster_load: skew openSession failed");
        const Addr base = armSession(
            *s, randomRaws(kKeysPerSession,
                           placementHash(tenant) & 0xFFFF));
        return Armed{std::move(s), base};
    };
    std::vector<Armed> hot{open("hot"), open("hot")};
    std::vector<Armed> cold{open("cold-a"), open("cold-b"),
                            open("cold-c"), open("cold-d")};

    const std::uint64_t bytes =
        kKeysPerSession * sizeof(std::uint32_t);
    const auto rearmIfDrained = [&](Armed &a, const Response &r) {
        if (r.status == ServiceStatus::Empty || r.items.size() < 8) {
            Request init;
            init.kind = RequestKind::Init;
            init.start = a.base;
            init.end = a.base + bytes;
            init.mode = KeyMode::UnsignedFixed;
            init.wordBits = 32;
            (void)a.session->call(std::move(init));
        }
    };

    SkewResult out;
    out.rounds = rounds;
    std::vector<double> hotRtt, coldRtt;
    for (std::uint64_t round = 0; round < rounds; ++round) {
        // 10 hot submissions racing each other against the quota...
        std::vector<std::pair<std::future<Response>, Clock::time_point>>
            inflight;
        for (unsigned i = 0; i < 10; ++i) {
            auto &a = hot[i % hot.size()];
            inflight.emplace_back(
                a.session->submit(topkRequest(a.base, bytes, 8)),
                Clock::now());
        }
        // ...while every cold tenant sends its one request.
        for (auto &a : cold) {
            const auto t0 = Clock::now();
            const Response r =
                a.session->call(topkRequest(a.base, bytes, 8));
            coldRtt.push_back(
                std::chrono::duration<double, std::micro>(
                    Clock::now() - t0)
                    .count());
            if (r.status == ServiceStatus::Rejected) {
                ++out.coldRejects;
            } else {
                ++out.coldServed;
                rearmIfDrained(a, r);
            }
        }
        for (std::size_t i = 0; i < inflight.size(); ++i) {
            auto &[future, t0] = inflight[i];
            const Response r = future.get();
            hotRtt.push_back(
                std::chrono::duration<double, std::micro>(
                    Clock::now() - t0)
                    .count());
            if (r.status == ServiceStatus::Rejected) {
                ++out.hotShed;
            } else {
                ++out.hotServed;
                rearmIfDrained(hot[i % hot.size()], r);
            }
        }
    }
    out.hotP99Us = percentile(hotRtt, 0.99);
    out.coldP50Us = percentile(coldRtt, 0.50);
    out.coldP99Us = percentile(coldRtt, 0.99);
    for (auto &a : hot)
        a.session->close();
    for (auto &a : cold)
        a.session->close();
    return out;
}

// ----------------------------------------------------------------------
// Phase 3: failover exactness
// ----------------------------------------------------------------------

struct FailoverResult
{
    std::uint64_t prefixItems = 0;
    std::uint64_t racedOk = 0;
    std::uint64_t racedShed = 0;
    std::uint64_t duplicates = 0;
    std::uint64_t foreign = 0;
    std::uint64_t missing = 0;
    std::uint64_t migrations = 0;
    std::uint64_t lost = 0;
};

FailoverResult
runFailover()
{
    std::vector<std::unique_ptr<Instance>> fleet;
    fleet.push_back(std::make_unique<Instance>());
    fleet.push_back(std::make_unique<Instance>());
    ClusterRouter router(routerOver(fleet));
    if (!router.connect())
        fatal("cluster_load: failover fleet connect failed");

    // A deduplicated key set so extraction exactness is set equality.
    std::vector<std::uint64_t> reference =
        randomRaws(kKeysPerSession, 4242);
    std::sort(reference.begin(), reference.end());
    reference.erase(
        std::unique(reference.begin(), reference.end()),
        reference.end());

    ClusterSessionConfig cfg;
    cfg.tenant = "failover";
    cfg.maxInFlight = 16;
    auto s = router.openSession(cfg);
    if (!s)
        fatal("cluster_load: failover openSession failed");
    const Addr base = armSession(*s, reference);
    const std::uint64_t bytes =
        reference.size() * sizeof(std::uint32_t);

    FailoverResult out;
    std::multiset<std::uint64_t> extracted;
    const auto absorb = [&](const Response &r) {
        for (const auto &item : r.items)
            extracted.insert(item.raw);
    };

    // Extract a prefix on the original home.
    for (unsigned i = 0; i < 8; ++i) {
        const Response r = s->call(topkRequest(base, bytes, 64));
        if (!r.ok())
            fatal("cluster_load: failover prefix topK failed");
        absorb(r);
        out.prefixItems += r.items.size();
    }

    // Race a few requests against the freeze, then drain the home.
    std::vector<std::future<Response>> raced;
    for (unsigned i = 0; i < 4; ++i)
        raced.push_back(s->submit(topkRequest(base, bytes, 64)));
    const unsigned home = s->member();
    if (router.drainInstance(home) != 1)
        fatal("cluster_load: drainInstance moved nothing");
    for (auto &f : raced) {
        const Response r = f.get();
        if (r.ok() || r.status == ServiceStatus::Empty) {
            absorb(r);
            ++out.racedOk;
        } else if (r.status == ServiceStatus::Rejected) {
            ++out.racedShed; // deterministic shed, retried below
        } else {
            fatal("cluster_load: raced request failed hard");
        }
    }

    // Finish extraction on the new home.
    while (true) {
        const Response r = s->call(topkRequest(base, bytes, 64));
        if (r.status == ServiceStatus::Empty)
            break;
        if (!r.ok())
            fatal("cluster_load: failover tail topK failed");
        absorb(r);
        if (r.items.empty())
            break;
    }

    for (const std::uint64_t v : reference) {
        const auto n = extracted.count(v);
        if (n == 0)
            ++out.missing;
        else if (n > 1)
            out.duplicates += n - 1;
    }
    for (const std::uint64_t v : extracted) {
        if (!std::binary_search(reference.begin(), reference.end(),
                                v)) {
            ++out.foreign;
        }
    }
    const RouterStats stats = router.stats();
    out.migrations = stats.migrations;
    out.lost = stats.lostSessions;
    s->close();
    return out;
}

// ----------------------------------------------------------------------
// Phase 4: kill -KILL chaos against real server processes
// ----------------------------------------------------------------------

/** Reserve a loopback TCP port (bind 0, read it back, release). */
unsigned
pickPort()
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        fatal("cluster_load: socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0)
        fatal("cluster_load: port probe bind failed");
    socklen_t len = sizeof(addr);
    ::getsockname(fd, reinterpret_cast<sockaddr *>(&addr), &len);
    const unsigned port = ntohs(addr.sin_port);
    ::close(fd);
    return port;
}

pid_t
spawnServer(const char *bin, unsigned port,
            const std::string &journal_dir)
{
    const pid_t pid = ::fork();
    if (pid < 0)
        fatal("cluster_load: fork failed");
    if (pid == 0) {
        ::setenv("RIME_JOURNAL_DIR", journal_dir.c_str(), 1);
        ::setenv("RIME_RESUME_GRACE_MS", "30000", 1);
        ::setenv("RIME_JOURNAL_FSYNC", "1", 1);
        ::setenv("RIME_THREADS", "1", 1);
        const std::string endpoint =
            "tcp:127.0.0.1:" + std::to_string(port);
        ::execl(bin, bin, endpoint.c_str(),
                static_cast<char *>(nullptr));
        std::perror("cluster_load: exec rime_server");
        ::_exit(127);
    }
    return pid;
}

struct ChaosResult
{
    bool ran = false;
    std::uint64_t served = 0;
    std::uint64_t rejects = 0;
    std::uint64_t closedResponses = 0;
    std::uint64_t duplicates = 0;
    std::uint64_t foreign = 0;
    std::uint64_t missing = 0;
    std::uint64_t resumed = 0;
    std::uint64_t lostSessions = 0;
    double rejectRate = 0.0;
};

ChaosResult
runChaos(const char *bin, std::uint64_t keys_per_session)
{
    constexpr unsigned kServers = 3;
    constexpr unsigned kSessions = 6;
    constexpr std::uint64_t kTop = 8;

    std::vector<unsigned> ports;
    std::vector<std::string> jdirs;
    std::vector<pid_t> pids;
    for (unsigned i = 0; i < kServers; ++i) {
        ports.push_back(pickPort());
        char tmpl[] = "/tmp/rime_cluster_XXXXXX";
        if (!::mkdtemp(tmpl))
            fatal("cluster_load: mkdtemp failed");
        jdirs.emplace_back(tmpl);
        pids.push_back(spawnServer(bin, ports[i], jdirs[i]));
    }
    const auto cleanup = [&] {
        for (const pid_t pid : pids) {
            if (pid > 0) {
                ::kill(pid, SIGKILL);
                ::waitpid(pid, nullptr, 0);
            }
        }
        for (const auto &dir : jdirs) {
            std::error_code ec;
            std::filesystem::remove_all(dir, ec);
        }
    };

    RouterConfig rcfg;
    for (unsigned i = 0; i < kServers; ++i) {
        ClientConfig cc;
        cc.connectAttempts = 20;
        cc.backoffBaseMs = 25;
        rcfg.members.push_back(MemberConfig{
            "tcp:127.0.0.1:" + std::to_string(ports[i]), cc});
    }
    ClusterRouter router(rcfg);
    if (!router.connect() ||
        router.membership().placeableCount() < kServers) {
        cleanup();
        fatal("cluster_load: chaos fleet did not come up");
    }

    struct ChaosSession
    {
        std::shared_ptr<ClusterSession> session;
        Addr base = 0;
        std::vector<std::uint64_t> reference; // sorted, unique
        std::set<std::uint64_t> seen;
        bool done = false;
    };
    std::vector<ChaosSession> sessions(kSessions);
    for (unsigned i = 0; i < kSessions; ++i) {
        ClusterSessionConfig cfg;
        cfg.tenant = "chaos-" + std::to_string(i);
        sessions[i].session = router.openSession(cfg);
        if (!sessions[i].session) {
            cleanup();
            fatal("cluster_load: chaos openSession failed");
        }
        auto keys = randomRaws(keys_per_session, 9000 + i);
        std::sort(keys.begin(), keys.end());
        keys.erase(std::unique(keys.begin(), keys.end()),
                   keys.end());
        sessions[i].reference = keys;
        sessions[i].base = armSession(*sessions[i].session, keys);
    }

    ChaosResult out;
    out.ran = true;
    std::uint64_t expected = 0;
    for (const auto &cs : sessions)
        expected += (cs.reference.size() + kTop - 1) / kTop;
    const std::uint64_t killAt = expected / 2;
    bool killed = false;
    const unsigned victim = sessions[0].session->member();

    // Wait (bounded) for the fleet to finish failover: probe until
    // the victim is reachable again and sessions were resumed.
    const auto recover = [&] {
        for (unsigned spin = 0; spin < 200; ++spin) {
            router.maintain();
            if (router.membership().member(victim).healthNow() ==
                MemberHealth::Healthy) {
                return;
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(25));
        }
    };

    bool progress = true;
    while (progress) {
        progress = false;
        for (auto &cs : sessions) {
            if (cs.done)
                continue;
            progress = true;
            const std::uint64_t bytes =
                cs.reference.size() * sizeof(std::uint32_t);
            const Response r = cs.session->call(
                topkRequest(cs.base, bytes, kTop));
            if (r.status == ServiceStatus::Closed) {
                ++out.closedResponses;
                if (out.closedResponses > 200) {
                    cs.done = true; // session lost; gate catches it
                    continue;
                }
                recover();
                continue;
            }
            if (r.status == ServiceStatus::Rejected) {
                ++out.rejects;
                router.maintain();
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(10));
                continue;
            }
            if (r.status == ServiceStatus::Empty) {
                cs.done = true;
                continue;
            }
            if (!r.ok()) {
                cleanup();
                fatal("cluster_load: chaos topK failed");
            }
            ++out.served;
            for (const auto &item : r.items) {
                if (!std::binary_search(cs.reference.begin(),
                                        cs.reference.end(),
                                        item.raw)) {
                    ++out.foreign;
                } else if (!cs.seen.insert(item.raw).second) {
                    ++out.duplicates;
                }
            }
            if (!killed && out.served >= killAt) {
                // The mid-stream murder: SIGKILL, then an immediate
                // respawn on the same journal -- the fsync'd WAL is
                // the only survivor, exactly the failure the resume
                // path exists for.
                killed = true;
                std::printf("chaos: kill -KILL member %u (pid %d), "
                            "respawning\n",
                            victim, pids[victim]);
                ::kill(pids[victim], SIGKILL);
                ::waitpid(pids[victim], nullptr, 0);
                pids[victim] =
                    spawnServer(bin, ports[victim], jdirs[victim]);
            }
        }
    }

    for (const auto &cs : sessions)
        out.missing += cs.reference.size() - cs.seen.size();
    const RouterStats stats = router.stats();
    out.resumed = stats.resumed;
    out.lostSessions = stats.lostSessions;
    out.rejectRate = out.served + out.rejects > 0
        ? static_cast<double>(out.rejects) /
            static_cast<double>(out.served + out.rejects)
        : 0.0;
    for (auto &cs : sessions)
        cs.session->close();
    router.disconnect();
    cleanup();
    return out;
}

} // namespace

int
main()
{
    setVerbose(false);
    ::setenv("RIME_THREADS", "1", 0); // deterministic single-core sim
    const double scale = benchScale();

    // Phase 1: scale-out sweep.
    const auto ops = static_cast<std::uint64_t>(
        std::max<long>(8, std::lround(32.0 * scale)));
    std::printf("=== cluster scale-out (4 sessions/instance, %llu "
                "TopK-64 ops/session) ===\n",
                static_cast<unsigned long long>(ops));
    std::printf("%10s %10s %12s %14s %10s\n", "instances", "sessions",
                "items", "sim seconds", "Mitems/s");
    std::vector<ScalePoint> sweep;
    for (const unsigned n : {1u, 2u, 4u, 8u}) {
        sweep.push_back(runScale(n, ops));
        const ScalePoint &p = sweep.back();
        std::printf("%10u %10u %12llu %14.6f %10.2f\n", p.instances,
                    p.sessions,
                    static_cast<unsigned long long>(p.items),
                    p.simSeconds, p.itemsPerSec / 1e6);
    }
    const double base = sweep.front().itemsPerSec;
    const double speedup4 = base > 0 ? sweep[2].itemsPerSec / base : 0;
    const double speedup8 = base > 0 ? sweep[3].itemsPerSec / base : 0;
    std::printf("speedup: %.2fx at 4 (target >= 3), %.2fx at 8 "
                "(target >= 6)\n",
                speedup4, speedup8);

    // Phase 2: tenant skew.
    const auto rounds = static_cast<std::uint64_t>(
        std::max<long>(16, std::lround(64.0 * scale)));
    const SkewResult skew = runSkew(rounds);
    std::printf("skew 10:1 over %llu rounds: hot %llu served / %llu "
                "shed (p99 %.0f us), cold %llu served / %llu "
                "rejected (p50 %.0f us, p99 %.0f us)\n",
                static_cast<unsigned long long>(skew.rounds),
                static_cast<unsigned long long>(skew.hotServed),
                static_cast<unsigned long long>(skew.hotShed),
                skew.hotP99Us,
                static_cast<unsigned long long>(skew.coldServed),
                static_cast<unsigned long long>(skew.coldRejects),
                skew.coldP50Us, skew.coldP99Us);

    // Phase 3: failover exactness.
    const FailoverResult fo = runFailover();
    std::printf("failover: %llu prefix items, %llu raced ok / %llu "
                "shed, %llu missing, %llu duplicate, %llu foreign, "
                "%llu migrations, %llu lost\n",
                static_cast<unsigned long long>(fo.prefixItems),
                static_cast<unsigned long long>(fo.racedOk),
                static_cast<unsigned long long>(fo.racedShed),
                static_cast<unsigned long long>(fo.missing),
                static_cast<unsigned long long>(fo.duplicates),
                static_cast<unsigned long long>(fo.foreign),
                static_cast<unsigned long long>(fo.migrations),
                static_cast<unsigned long long>(fo.lost));
    const bool failoverExact = fo.missing == 0 && fo.duplicates == 0 &&
        fo.foreign == 0 && fo.lost == 0;

    // Phase 4: kill -KILL chaos (needs the rime_server binary).
    ChaosResult chaos;
    if (const char *bin = std::getenv("RIME_SERVER_BIN")) {
        const auto chaosKeys = static_cast<std::uint64_t>(
            std::max<long>(512, std::lround(2048.0 * scale)));
        chaos = runChaos(bin, chaosKeys);
        std::printf("chaos: %llu served, %llu rejects (%.2f%%), %llu "
                    "closed, %llu missing, %llu duplicate, %llu "
                    "foreign, %llu resumed, %llu lost sessions\n",
                    static_cast<unsigned long long>(chaos.served),
                    static_cast<unsigned long long>(chaos.rejects),
                    chaos.rejectRate * 100.0,
                    static_cast<unsigned long long>(
                        chaos.closedResponses),
                    static_cast<unsigned long long>(chaos.missing),
                    static_cast<unsigned long long>(chaos.duplicates),
                    static_cast<unsigned long long>(chaos.foreign),
                    static_cast<unsigned long long>(chaos.resumed),
                    static_cast<unsigned long long>(
                        chaos.lostSessions));
    } else {
        std::printf("chaos: skipped (set RIME_SERVER_BIN to run)\n");
    }
    const bool chaosZeroLoss = !chaos.ran ||
        (chaos.duplicates == 0 && chaos.foreign == 0 &&
         chaos.missing == 0 && chaos.lostSessions == 0);
    const bool chaosRejectsOk = !chaos.ran || chaos.rejectRate < 0.01;
    std::printf("server timeout wakes (in-process fleet): %llu%s\n",
                static_cast<unsigned long long>(fleetTimeoutWakes),
                fleetTimeoutWakes == 0 ? "" : " (must be 0)");

    std::ostringstream arr;
    arr << "[\n";
    for (std::size_t i = 0; i < sweep.size(); ++i) {
        const ScalePoint &p = sweep[i];
        arr << "    {\"instances\": " << p.instances
            << ", \"sessions\": " << p.sessions
            << ", \"items\": " << p.items
            << ", \"sim_seconds\": " << p.simSeconds
            << ", \"items_per_sec\": " << p.itemsPerSec << "}"
            << (i + 1 < sweep.size() ? "," : "") << "\n";
    }
    arr << "  ]";

    std::ostringstream skewJson;
    skewJson << "{\"rounds\": " << skew.rounds
             << ", \"hot_served\": " << skew.hotServed
             << ", \"hot_shed\": " << skew.hotShed
             << ", \"hot_p99_us\": " << skew.hotP99Us
             << ", \"cold_served\": " << skew.coldServed
             << ", \"cold_rejects\": " << skew.coldRejects
             << ", \"cold_p50_us\": " << skew.coldP50Us
             << ", \"cold_p99_us\": " << skew.coldP99Us << "}";

    std::ostringstream foJson;
    foJson << "{\"prefix_items\": " << fo.prefixItems
           << ", \"raced_ok\": " << fo.racedOk
           << ", \"raced_shed\": " << fo.racedShed
           << ", \"missing\": " << fo.missing
           << ", \"duplicates\": " << fo.duplicates
           << ", \"foreign\": " << fo.foreign
           << ", \"migrations\": " << fo.migrations
           << ", \"lost\": " << fo.lost << "}";

    std::ostringstream chaosJson;
    chaosJson << "{\"ran\": " << (chaos.ran ? "true" : "false")
              << ", \"served\": " << chaos.served
              << ", \"rejects\": " << chaos.rejects
              << ", \"reject_rate\": " << chaos.rejectRate
              << ", \"closed_responses\": " << chaos.closedResponses
              << ", \"missing\": " << chaos.missing
              << ", \"duplicates\": " << chaos.duplicates
              << ", \"foreign\": " << chaos.foreign
              << ", \"resumed\": " << chaos.resumed
              << ", \"lost_sessions\": " << chaos.lostSessions << "}";

    BenchJson("cluster_load")
        .field("keys_per_session", kKeysPerSession)
        .field("ops_per_session", ops)
        .raw("scale_sweep", arr.str())
        .field("speedup_4", speedup4)
        .field("speedup_8", speedup8)
        .field("speedup_4_target", 3.0)
        .field("speedup_8_target", 6.0)
        .field("speedup_4_ok", speedup4 >= 3.0)
        .field("speedup_8_ok", speedup8 >= 6.0)
        .raw("skew", skewJson.str())
        .field("skew_ok",
               skew.coldRejects == 0 && skew.hotShed > 0 &&
                   skew.coldP99Us < kColdP99LimitUs)
        .raw("failover", foJson.str())
        .field("failover_zero_loss", failoverExact)
        .raw("chaos", chaosJson.str())
        .field("chaos_zero_committed_loss", chaosZeroLoss)
        .field("chaos_rejects_ok", chaosRejectsOk)
        .field("server_timeout_wakes", fleetTimeoutWakes)
        .write("BENCH_cluster.json");
    return 0;
}
