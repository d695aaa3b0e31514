/**
 * @file
 * Serving-layer tests: the multi-tenant RimeService must (a) produce
 * the same per-session extraction sequences no matter how many client
 * threads drive it, (b) produce bit-identical deterministic stat dumps
 * under the lockstep scheduler across RIME_THREADS and client-thread
 * counts, (c) shed load with immediate Rejected completions instead of
 * ever blocking on the device, and (d) isolate tenants (ownership,
 * reconfiguration, close-time reclamation).  The controller-affinity
 * guard of the underlying library and the service's foundation pieces
 * (bounded queue, shared thread pool) are covered here too.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/bounded_queue.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "rime/api.hh"
#include "service/service.hh"

using namespace rime;
using namespace rime::service;

namespace
{

/** Seeded per-session payload of 32-bit keys. */
std::vector<std::uint64_t>
sessionKeys(std::uint64_t seed, std::size_t n)
{
    Rng rng(7000 + seed);
    std::vector<std::uint64_t> keys(n);
    for (auto &k : keys)
        k = rng() & 0xFFFFFFFFULL;
    return keys;
}

/** malloc + store + init one session's range; returns [start, end). */
std::pair<Addr, Addr>
setupRange(Session &s, const std::vector<std::uint64_t> &keys)
{
    const std::uint64_t bytes = keys.size() * sizeof(std::uint32_t);
    const Response m = s.call([&] {
        Request r;
        r.kind = RequestKind::Malloc;
        r.bytes = bytes;
        return r;
    }());
    EXPECT_TRUE(m.ok());
    EXPECT_TRUE(s.storeArray(m.addr, keys).get().ok());
    EXPECT_TRUE(
        s.init(m.addr, m.addr + bytes, KeyMode::UnsignedFixed).get().ok());
    return {m.addr, m.addr + bytes};
}

ServiceConfig
fastServiceConfig(unsigned shards)
{
    ServiceConfig cfg;
    cfg.shards = shards;
    cfg.library.device.bitLevel = false;
    return cfg;
}

} // namespace

// ---------------------------------------------------------------------
// Foundations: the bounded MPSC queue and the shared thread pool.
// ---------------------------------------------------------------------

TEST(BoundedQueue, FifoTryPushBatchAndCapacity)
{
    BoundedQueue<int> q(3);
    EXPECT_EQ(q.capacity(), 3u);
    std::vector<int> first{1, 2};
    EXPECT_EQ(q.tryPushBatch(first), 2u);

    // A batch larger than the remaining capacity: the prefix that fits
    // is enqueued, the suffix is left untouched for the caller to shed.
    std::vector<int> over{3, 4, 5};
    EXPECT_EQ(q.tryPushBatch(over), 1u);
    EXPECT_EQ(over[1], 4);
    EXPECT_EQ(over[2], 5);
    EXPECT_EQ(q.size(), 3u);
    std::vector<int> full{4};
    EXPECT_EQ(q.tryPushBatch(full), 0u)
        << "push beyond capacity must shed";

    EXPECT_EQ(q.pop(), 1);
    EXPECT_EQ(q.pop(), 2);
    EXPECT_EQ(q.tryPushBatch(full), 1u);
    EXPECT_EQ(q.pop(), 3);
    EXPECT_EQ(q.pop(), 4);
    EXPECT_EQ(q.tryPop(), std::nullopt);
}

TEST(BoundedQueue, CloseDrainsTailThenReportsShutdown)
{
    BoundedQueue<int> q(4);
    EXPECT_TRUE(q.pushBlocking(7));
    std::vector<int> eight{8};
    EXPECT_EQ(q.tryPushBatch(eight), 1u);
    q.close();
    EXPECT_TRUE(q.closed());
    std::vector<int> nine{9};
    EXPECT_EQ(q.tryPushBatch(nine), 0u);
    EXPECT_FALSE(q.pushBlocking(9));
    EXPECT_EQ(q.pop(), 7);
    EXPECT_EQ(q.pop(), 8);
    EXPECT_EQ(q.pop(), std::nullopt) << "closed and drained";
}

TEST(BoundedQueue, BlockingPopAndPushHandOff)
{
    BoundedQueue<int> q(1);
    std::vector<int> one{1};
    ASSERT_EQ(q.tryPushBatch(one), 1u);

    // A producer blocked on a full queue completes once the consumer
    // makes room.
    std::thread producer([&] { EXPECT_TRUE(q.pushBlocking(2)); });
    EXPECT_EQ(q.pop(), 1);
    producer.join();
    EXPECT_EQ(q.pop(), 2);
    // A consumer blocked on an empty queue completes once a value
    // arrives.
    std::thread consumer([&] { EXPECT_EQ(q.pop(), 3); });
    EXPECT_TRUE(q.pushBlocking(3));
    consumer.join();
    q.close();
}

TEST(ThreadPoolService, ConcurrentExternalCallersSerialize)
{
    // Several shard controllers share the global pool; concurrent
    // run() calls from distinct threads must serialize, not panic or
    // lose tasks.
    ThreadPool pool(4);
    std::atomic<std::uint64_t> total{0};
    std::vector<std::thread> callers;
    for (int c = 0; c < 4; ++c) {
        callers.emplace_back([&] {
            for (int i = 0; i < 50; ++i) {
                pool.run(16, [&](unsigned) {
                    total.fetch_add(1, std::memory_order_relaxed);
                });
            }
        });
    }
    for (auto &t : callers)
        t.join();
    EXPECT_EQ(total.load(), 4u * 50u * 16u);
}

// ---------------------------------------------------------------------
// Controller-thread affinity guard of the library.
// ---------------------------------------------------------------------

TEST(Affinity, CrossThreadUseFatalsUntilRebound)
{
    RimeLibrary lib;
    const auto addr = lib.rimeMalloc(4096); // binds the main thread
    ASSERT_TRUE(addr.has_value());

    bool threw = false;
    std::thread foreign([&] {
        try {
            lib.rimeMalloc(64);
        } catch (const FatalError &) {
            threw = true;
        }
    });
    foreign.join();
    EXPECT_TRUE(threw) << "cross-thread API use must raise FatalError";

    // An explicit rebind legitimizes a sequential hand-off...
    std::thread handoff([&] {
        lib.rimeBindThread();
        EXPECT_TRUE(lib.rimeMalloc(64).has_value());
    });
    handoff.join();
    // ...after which the original thread is the foreign one.
    EXPECT_THROW(lib.rimeFree(*addr), FatalError);
    lib.rimeBindThread();
    lib.rimeFree(*addr);
}

TEST(Affinity, ChecksCanBeDisabled)
{
    LibraryConfig cfg;
    cfg.affinityChecks = false;
    RimeLibrary lib(cfg);
    ASSERT_TRUE(lib.rimeMalloc(64).has_value());
    std::thread other([&] {
        EXPECT_TRUE(lib.rimeMalloc(64).has_value());
    });
    other.join();
}

// ---------------------------------------------------------------------
// Service basics: one session end to end.
// ---------------------------------------------------------------------

TEST(ServiceBasics, SingleSessionEndToEnd)
{
    RimeService svc(fastServiceConfig(1));
    auto session = svc.openSession({.tenant = "solo"});
    EXPECT_EQ(session->tenant(), "solo");
    EXPECT_EQ(session->shard(), 0u);

    const auto keys = sessionKeys(1, 256);
    const auto [start, end] = setupRange(*session, keys);

    std::vector<std::uint64_t> expect = keys;
    std::sort(expect.begin(), expect.end());

    // topK returns the k smallest in order; sort streams everything.
    const Response top = session->topK(start, end, 10).get();
    ASSERT_TRUE(top.ok());
    ASSERT_EQ(top.items.size(), 10u);
    for (std::size_t i = 0; i < top.items.size(); ++i)
        EXPECT_EQ(top.items[i].raw, expect[i]) << "rank " << i;
    EXPECT_GT(top.shardTick, 0u);

    // A sort right after draining 10 items ends with Empty and the
    // partial tail; after a re-init it streams everything.
    const Response tail = session->sort(start, end).get();
    EXPECT_EQ(tail.status, ServiceStatus::Empty);
    EXPECT_EQ(tail.items.size(), keys.size() - 10);
    ASSERT_TRUE(session->init(start, end,
                              KeyMode::UnsignedFixed).get().ok());
    const Response rest = session->sort(start, end).get();
    ASSERT_TRUE(rest.ok());
    ASSERT_EQ(rest.items.size(), keys.size());
    for (std::size_t i = 0; i < rest.items.size(); ++i)
        ASSERT_EQ(rest.items[i].raw, expect[i]);

    // largest-first topK after a re-init.
    ASSERT_TRUE(session->init(start, end,
                              KeyMode::UnsignedFixed).get().ok());
    const Response bottom = session->topK(start, end, 5, true).get();
    ASSERT_TRUE(bottom.ok());
    ASSERT_EQ(bottom.items.size(), 5u);
    for (std::size_t i = 0; i < bottom.items.size(); ++i)
        EXPECT_EQ(bottom.items[i].raw, expect[expect.size() - 1 - i]);

    const Response h = session->health().get();
    ASSERT_TRUE(h.ok());
    EXPECT_TRUE(h.health.pristine());
    EXPECT_GT(h.allocatedBytes, 0u);

    ASSERT_TRUE(session->free(start).get().ok());
    session->close();
    // Closed sessions complete immediately instead of queueing.
    EXPECT_EQ(session->health().get().status, ServiceStatus::Closed);
}

TEST(ServiceBasics, AbsurdTopKCountDrainsInsteadOfCrashing)
{
    // A client-supplied count far beyond the range's capacity must not
    // take down the controller thread (the reservation is capped at
    // the range's word capacity); the stream simply drains the range
    // and ends with Empty.
    RimeService svc(fastServiceConfig(1));
    auto session = svc.openSession({.tenant = "greedy"});
    const auto keys = sessionKeys(9, 64);
    const auto [start, end] = setupRange(*session, keys);

    std::vector<std::uint64_t> expect = keys;
    std::sort(expect.begin(), expect.end());

    const Response r = session->topK(
        start, end, std::numeric_limits<std::uint64_t>::max()).get();
    EXPECT_EQ(r.status, ServiceStatus::Empty);
    ASSERT_EQ(r.items.size(), keys.size());
    for (std::size_t i = 0; i < r.items.size(); ++i)
        EXPECT_EQ(r.items[i].raw, expect[i]) << "rank " << i;
    session->close();
}

TEST(ServiceBasics, HealthProbesLeaveNoSessionsBehind)
{
    // Periodic health polling must not accumulate probe sessions: the
    // load snapshot stays empty and no _health tenant groups pollute
    // the stat tree.
    RimeService svc(fastServiceConfig(2));
    for (int i = 0; i < 8; ++i)
        EXPECT_TRUE(svc.health().pristine());
    for (const ShardLoad &load : svc.loads())
        EXPECT_EQ(load.sessions, 0u) << "shard " << load.shard;
    EXPECT_EQ(svc.statDumpJson().find("_health"), std::string::npos);
}

TEST(ServiceBasics, NamesAreStable)
{
    EXPECT_STREQ(requestKindName(RequestKind::TopK), "topK");
    EXPECT_STREQ(requestKindName(RequestKind::Health), "health");
    EXPECT_STREQ(serviceStatusName(ServiceStatus::Ok), "ok");
    EXPECT_STREQ(serviceStatusName(ServiceStatus::DeadlineExpired),
                 "deadline-expired");
    EXPECT_STREQ(serviceStatusName(ServiceStatus::Closed), "closed");
    EXPECT_STREQ(rejectReasonName(RejectReason::Backpressure),
                 "backpressure");
    EXPECT_STREQ(rejectReasonName(RejectReason::QuotaExceeded),
                 "quota-exceeded");
    EXPECT_STREQ(rejectReasonName(RejectReason::Reconfiguration),
                 "reconfiguration");
}

// ---------------------------------------------------------------------
// Replay equivalence: concurrency must not change what anyone reads.
// ---------------------------------------------------------------------

namespace
{

/** One session's full extraction transcript: (raw, address) pairs. */
using Transcript = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

/**
 * Run the canonical 4-session workload over 2 shards with
 * `client_threads` closed-loop client threads (window of 4 in-flight
 * extractions per session) and return each session's transcript.
 */
std::vector<Transcript>
runReplayWorkload(unsigned client_threads, std::size_t n,
                  std::size_t extracts)
{
    ServiceConfig cfg = fastServiceConfig(2);
    cfg.scheduler.queueCapacity = 256;
    RimeService svc(std::move(cfg));

    constexpr unsigned kSessions = 4;
    std::vector<std::shared_ptr<Session>> sessions;
    std::vector<std::pair<Addr, Addr>> ranges;
    for (unsigned i = 0; i < kSessions; ++i) {
        sessions.push_back(svc.openSession({
            .tenant = "t" + std::to_string(i),
            .maxInFlight = 8,
            .shard = static_cast<int>(i % 2),
        }));
        ranges.push_back(setupRange(*sessions[i], sessionKeys(i, n)));
    }

    std::vector<Transcript> transcripts(kSessions);
    auto driveSession = [&](unsigned i) {
        auto &s = *sessions[i];
        const auto [start, end] = ranges[i];
        std::deque<std::future<Response>> window;
        std::size_t submitted = 0;
        while (transcripts[i].size() < extracts) {
            while (submitted < extracts && window.size() < 4) {
                window.push_back(s.min(start, end));
                ++submitted;
            }
            Response r = window.front().get();
            window.pop_front();
            ASSERT_TRUE(r.ok()) << serviceStatusName(r.status);
            ASSERT_EQ(r.items.size(), 1u);
            transcripts[i].emplace_back(r.items[0].raw,
                                        r.items[0].index);
        }
    };

    if (client_threads <= 1) {
        // Serial replay: each session's script runs to completion
        // alone, in session order.
        for (unsigned i = 0; i < kSessions; ++i)
            driveSession(i);
    } else {
        std::vector<std::thread> clients;
        for (unsigned t = 0; t < client_threads; ++t) {
            clients.emplace_back([&, t] {
                for (unsigned i = t; i < kSessions; i += client_threads)
                    driveSession(i);
            });
        }
        for (auto &c : clients)
            c.join();
    }
    for (auto &s : sessions)
        s->close();
    return transcripts;
}

} // namespace

TEST(ServiceReplay, ConcurrentClientsMatchSerialPerSessionReplay)
{
    const std::size_t n = 256, extracts = 160;
    const auto serial = runReplayWorkload(1, n, extracts);
    const auto concurrent2 = runReplayWorkload(2, n, extracts);
    const auto concurrent4 = runReplayWorkload(4, n, extracts);

    for (std::size_t i = 0; i < serial.size(); ++i) {
        // The values any client reads are independent of how many
        // threads were driving the service.
        EXPECT_EQ(concurrent2[i], serial[i]) << "session " << i;
        EXPECT_EQ(concurrent4[i], serial[i]) << "session " << i;

        // And they are the right values: the sorted prefix.
        auto expect = sessionKeys(i, n);
        std::sort(expect.begin(), expect.end());
        for (std::size_t r = 0; r < extracts; ++r)
            ASSERT_EQ(serial[i][r].first, expect[r])
                << "session " << i << " rank " << r;
    }
}

// ---------------------------------------------------------------------
// Lockstep determinism: bit-identical stat dumps.
// ---------------------------------------------------------------------

namespace
{

/**
 * Seeded closed-loop soak under the lockstep scheduler: 4 sessions
 * (two tenants) over 2 bit-level shards, driven by `client_groups`
 * client threads.  Session i opens with weight `weights[i]` (default
 * 1) and keeps exactly that many requests in flight: a lockstep round
 * waits for `weight` requests of each session, so a session with
 * fewer in flight would block the round on a client that is itself
 * waiting on a later session's future.  Each setup wave therefore
 * pads a session's one Malloc or Init with weight - 1 Health probes
 * and splits its StoreArray into `weight` chunks, and each extraction
 * step submits `weight` same-range Min requests, which the round
 * serves as one coalesced batch capped at the weight.  Returns the
 * deterministic stat dump plus a digest of every extracted value (in
 * session-id order), so callers compare both state and
 * client-visible results.
 * `batch_ops` != 0 overrides the group-commit batch size.
 */
std::string
lockstepSoakDump(unsigned host_threads, unsigned client_groups,
                 std::size_t batch_ops = 0,
                 std::vector<unsigned> weights = {1, 1, 1, 1})
{
    ServiceConfig cfg;
    cfg.shards = 2;
    cfg.library.device.bitLevel = true;
    cfg.library.device.hostThreads = host_threads;
    cfg.scheduler.deterministic = true;
    cfg.scheduler.queueCapacity = 64;
    if (batch_ops != 0)
        cfg.scheduler.batchOps = batch_ops;
    RimeService svc(std::move(cfg));

    constexpr unsigned kSessions = 4;
    constexpr std::size_t kKeys = 96;
    constexpr std::size_t kExtracts = 24;
    EXPECT_EQ(weights.size(), kSessions);
    std::vector<std::shared_ptr<Session>> sessions;
    for (unsigned i = 0; i < kSessions; ++i) {
        sessions.push_back(svc.openSession({
            .tenant = i < 2 ? "alpha" : "beta",
            .weight = weights[i],
            .maxInFlight = 8,
            .shard = static_cast<int>(i % 2),
        }));
    }
    svc.start();

    // Setup phase, stepped: under lockstep every round waits for each
    // open session, so submissions proceed one wave at a time across
    // all sessions (submit-all, then wait-all).
    const std::uint64_t bytes = kKeys * sizeof(std::uint32_t);
    std::vector<std::pair<Addr, Addr>> ranges(kSessions);
    const auto padded = [&](unsigned i, std::future<Response> op,
                            std::vector<std::future<Response>> &wave) {
        wave.push_back(std::move(op));
        for (unsigned p = 1; p < weights[i]; ++p)
            wave.push_back(sessions[i]->health());
    };
    const auto waitAll = [](std::vector<std::future<Response>> &wave) {
        for (auto &f : wave)
            EXPECT_TRUE(f.get().ok());
        wave.clear();
    };
    {
        std::vector<std::future<Response>> wave;
        for (unsigned i = 0; i < kSessions; ++i)
            padded(i, sessions[i]->malloc(bytes), wave);
        // Each session's Malloc leads its weight - 1 Health probes.
        std::size_t k = 0;
        for (unsigned i = 0; i < kSessions; ++i) {
            const Response m = wave[k++].get();
            EXPECT_TRUE(m.ok());
            ranges[i] = {m.addr, m.addr + bytes};
            for (unsigned p = 1; p < weights[i]; ++p)
                EXPECT_TRUE(wave[k++].get().ok());
        }
        wave.clear();
        for (unsigned i = 0; i < kSessions; ++i) {
            const auto keys = sessionKeys(i, kKeys);
            const std::size_t chunk = kKeys / weights[i];
            for (unsigned c = 0; c < weights[i]; ++c) {
                const std::size_t lo = c * chunk;
                const std::size_t hi =
                    c + 1 == weights[i] ? kKeys : lo + chunk;
                wave.push_back(sessions[i]->storeArray(
                    ranges[i].first + lo * sizeof(std::uint32_t),
                    std::vector<std::uint64_t>(keys.begin() + lo,
                                               keys.begin() + hi)));
            }
        }
        waitAll(wave);
        for (unsigned i = 0; i < kSessions; ++i) {
            padded(i,
                   sessions[i]->init(ranges[i].first, ranges[i].second,
                                     KeyMode::UnsignedFixed),
                   wave);
        }
        waitAll(wave);
    }

    // Extraction phase: client threads each drive a disjoint group of
    // sessions, keeping every session exactly `weight` requests in
    // flight (submit-all, then wait-all, per step).
    std::vector<std::thread> clients;
    std::vector<std::vector<std::uint64_t>> extracted(kSessions);
    for (unsigned g = 0; g < client_groups; ++g) {
        clients.emplace_back([&, g] {
            std::vector<unsigned> mine;
            for (unsigned i = g; i < kSessions; i += client_groups)
                mine.push_back(i);
            for (std::size_t step = 0; step < kExtracts; ++step) {
                std::vector<std::future<Response>> futs;
                std::vector<unsigned> owner;
                for (const unsigned i : mine) {
                    for (unsigned w = 0; w < weights[i]; ++w) {
                        futs.push_back(sessions[i]->min(
                            ranges[i].first, ranges[i].second));
                        owner.push_back(i);
                    }
                }
                for (std::size_t k = 0; k < futs.size(); ++k) {
                    const Response r = futs[k].get();
                    EXPECT_TRUE(r.ok());
                    ASSERT_EQ(r.items.size(), 1u);
                    // Each thread owns a disjoint session group, so
                    // these rows never race.
                    extracted[owner[k]].push_back(r.items[0].raw);
                }
            }
        });
    }
    for (auto &c : clients)
        c.join();

    // Every session drained its own keys in ascending order, however
    // many of its requests a round served together.
    for (unsigned i = 0; i < kSessions; ++i) {
        auto sorted = sessionKeys(i, kKeys);
        std::sort(sorted.begin(), sorted.end());
        sorted.resize(extracted[i].size());
        EXPECT_EQ(extracted[i], sorted) << "session " << i;
    }

    // Close in session-id order: the lockstep rounds wait for the
    // sessions in that same order.
    for (auto &s : sessions)
        s->close();
    std::string out = svc.statDumpJson();
    out += "\nextracted:";
    for (const auto &vals : extracted)
        for (const std::uint64_t v : vals)
            out += " " + std::to_string(v);
    return out;
}

} // namespace

TEST(ServiceDeterminism, LockstepStatDumpBitIdentical)
{
    // The acceptance bar: the deterministic stat dump of a seeded
    // lockstep soak is byte-identical across RIME_THREADS-style host
    // thread counts *and* across client-thread counts.
    const std::string base = lockstepSoakDump(1, 1);
    EXPECT_FALSE(base.empty());
    EXPECT_NE(base.find("\"service\""), std::string::npos);
    EXPECT_NE(base.find("\"alpha\""), std::string::npos);
    EXPECT_EQ(base.find("Host"), std::string::npos)
        << "host-dependent stats leaked into the deterministic dump";
    EXPECT_EQ(base.find("WallNs"), std::string::npos);

    EXPECT_EQ(lockstepSoakDump(1, 2), base) << "client threads leaked";
    EXPECT_EQ(lockstepSoakDump(4, 1), base) << "host threads leaked";
    EXPECT_EQ(lockstepSoakDump(4, 4), base);
}

TEST(ServiceDeterminism, GroupCommitBatchSizeIsInvisibleInLockstep)
{
    // Group commit changes *when* completions are delivered, never
    // what they contain: the deterministic dump and every extracted
    // value must be byte-identical whether completions flush one at a
    // time or in deferred batches of 32, including with host threads
    // and concurrent clients in play.
    const std::string base = lockstepSoakDump(1, 1, /*batch_ops=*/1);
    EXPECT_EQ(lockstepSoakDump(1, 1, 32), base)
        << "batchOps leaked into deterministic state or results";
    EXPECT_EQ(lockstepSoakDump(4, 2, 32), base);
}

TEST(ServiceDeterminism, WeightedLockstepRoundsAreBitIdentical)
{
    // Weights 2 and 3 on both shards: every round serves several
    // requests of one session, and the coalescing window is capped at
    // the round budget.  The dump must not depend on host threads,
    // client threads or the group-commit batch.
    const std::vector<unsigned> weights = {2, 3, 3, 2};
    const std::string base = lockstepSoakDump(1, 1, 0, weights);
    EXPECT_NE(base, lockstepSoakDump(1, 1))
        << "weights left the served script unchanged";
    EXPECT_EQ(lockstepSoakDump(4, 2, 1, weights), base);
}

// ---------------------------------------------------------------------
// Load shedding: rejects complete immediately, nothing blocks.
// ---------------------------------------------------------------------

TEST(ServiceBackpressure, FullQueueRejectsWithoutBlocking)
{
    // Deterministic mode without start(): the controller is parked, so
    // the queue fills synchronously and the shed path is exact.
    ServiceConfig cfg = fastServiceConfig(1);
    cfg.scheduler.deterministic = true;
    cfg.scheduler.queueCapacity = 4;
    RimeService svc(std::move(cfg));
    auto session = svc.openSession({.maxInFlight = 64});

    std::vector<std::future<Response>> accepted;
    for (int i = 0; i < 4; ++i)
        accepted.push_back(session->health());
    for (int i = 0; i < 3; ++i) {
        auto rejected = session->health();
        // The future is ready *now*: shedding never waits for the
        // device or the controller.
        ASSERT_EQ(rejected.wait_for(std::chrono::seconds(0)),
                  std::future_status::ready);
        const Response r = rejected.get();
        EXPECT_EQ(r.status, ServiceStatus::Rejected);
        EXPECT_EQ(r.reject, RejectReason::Backpressure);
    }

    svc.start();
    for (auto &f : accepted)
        EXPECT_TRUE(f.get().ok()) << "accepted requests still served";
    session->close();
}

TEST(ServiceQuota, InFlightCapRejectsImmediately)
{
    ServiceConfig cfg = fastServiceConfig(1);
    cfg.scheduler.deterministic = true; // parked controller
    cfg.scheduler.queueCapacity = 64;
    RimeService svc(std::move(cfg));
    auto session = svc.openSession({.maxInFlight = 2});

    auto a = session->health();
    auto b = session->health();
    auto over = session->health();
    ASSERT_EQ(over.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    const Response r = over.get();
    EXPECT_EQ(r.status, ServiceStatus::Rejected);
    EXPECT_EQ(r.reject, RejectReason::QuotaExceeded);

    svc.start();
    EXPECT_TRUE(a.get().ok());
    EXPECT_TRUE(b.get().ok());
    // Completions release quota slots: submitting again succeeds.
    EXPECT_TRUE(session->health().get().ok());
    session->close();
}

TEST(ServiceBatch, StraddlesQuotaAndQueueCapacityInOrder)
{
    // One batch crosses both shed lines at once: the in-flight cap
    // (QuotaExceeded, per request) and the shard queue's capacity
    // (the Backpressure suffix of what the quota admitted).  Parked
    // lockstep controller, so the queue fills synchronously.
    constexpr unsigned kCap = 5;
    ServiceConfig cfg = fastServiceConfig(1);
    cfg.scheduler.deterministic = true;
    cfg.scheduler.queueCapacity = 4;
    RimeService svc(std::move(cfg));
    auto session = svc.openSession({.maxInFlight = kCap});

    // One request ahead of the batch: 1 slot and 1 queue entry used.
    auto before = session->health();

    Request malloc_req;
    malloc_req.kind = RequestKind::Malloc;
    malloc_req.bytes = 4096;
    Request health_req;
    health_req.kind = RequestKind::Health;
    // Quota admits 4 (indices 0-3) and rejects 4-6; the queue takes 3
    // of the admitted (0-2) and sheds 3.
    std::vector<Request> reqs{malloc_req, health_req, malloc_req,
                              malloc_req, malloc_req, malloc_req,
                              malloc_req};
    std::atomic<unsigned> fired{0};
    auto futures = session->submitBatch(
        std::move(reqs), [&fired] { fired.fetch_add(1); });
    ASSERT_EQ(futures.size(), 7u);

    const auto shedAs = [](std::future<Response> &f,
                           RejectReason reason) {
        ASSERT_EQ(f.wait_for(std::chrono::seconds(0)),
                  std::future_status::ready);
        const Response r = f.get();
        EXPECT_EQ(r.status, ServiceStatus::Rejected);
        EXPECT_EQ(r.reject, reason);
    };
    shedAs(futures[3], RejectReason::Backpressure);
    for (std::size_t i = 4; i < futures.size(); ++i)
        shedAs(futures[i], RejectReason::QuotaExceeded);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(futures[i].wait_for(std::chrono::seconds(0)),
                  std::future_status::timeout)
            << "accepted request " << i << " completed while parked";
    }
    EXPECT_EQ(fired.load(), 0u) << "shed requests never notify";

    // Served in request order: the Health between the two Mallocs sees
    // exactly the first one's bytes.
    svc.start();
    const Response h0 = before.get();
    ASSERT_TRUE(h0.ok());
    EXPECT_EQ(h0.allocatedBytes, 0u);
    const Response m0 = futures[0].get();
    const Response h1 = futures[1].get();
    const Response m2 = futures[2].get();
    ASSERT_TRUE(m0.ok());
    ASSERT_TRUE(h1.ok());
    ASSERT_TRUE(m2.ok());
    EXPECT_GT(h1.allocatedBytes, 0u);
    EXPECT_LT(m0.addr, m2.addr);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (fired.load() < 3 && std::chrono::steady_clock::now() < deadline)
        std::this_thread::yield();
    EXPECT_EQ(fired.load(), 3u) << "one notify per accepted request";

    // Every slot came back, the shed ones included: a full-cap batch
    // sees no QuotaExceeded, and the shed Mallocs never allocated.
    std::vector<Request> again(kCap, health_req);
    auto later = session->submitBatch(std::move(again));
    const Response first = later.front().get();
    ASSERT_TRUE(first.ok());
    EXPECT_EQ(first.allocatedBytes, 2 * h1.allocatedBytes);
    for (std::size_t i = 1; i < later.size(); ++i) {
        const Response r = later[i].get();
        EXPECT_TRUE(r.ok() || r.reject == RejectReason::Backpressure)
            << "later request " << i << ": "
            << serviceStatusName(r.status) << "/"
            << rejectReasonName(r.reject);
    }
    EXPECT_EQ(fired.load(), 3u);
    session->close();
}

TEST(ServiceDeadline, SimTickDeadlinesExpireDeterministically)
{
    RimeService svc(fastServiceConfig(1));
    auto session = svc.openSession({});
    const auto keys = sessionKeys(9, 64);
    const auto [start, end] = setupRange(*session, keys);

    // The init alone advanced the shard clock well past tick 1: a
    // deadline of 1 is already expired when the scheduler dequeues.
    const Response late = session->min(start, end, 1).get();
    EXPECT_EQ(late.status, ServiceStatus::DeadlineExpired);
    EXPECT_TRUE(late.items.empty());
    EXPECT_GT(late.shardTick, 1u);

    // A generous deadline and no deadline both serve normally.
    EXPECT_TRUE(session->min(start, end,
                             late.shardTick * 1000).get().ok());
    EXPECT_TRUE(session->min(start, end).get().ok());
    session->close();
}

// ---------------------------------------------------------------------
// Tenant isolation.
// ---------------------------------------------------------------------

TEST(ServiceIsolation, OwnershipAndReconfigurationGuards)
{
    RimeService svc(fastServiceConfig(1));
    auto alice = svc.openSession({.tenant = "alice", .shard = 0});
    auto bob = svc.openSession({.tenant = "bob", .shard = 0});

    const auto keys = sessionKeys(21, 64);
    const auto [astart, aend] = setupRange(*alice, keys);

    const Response bm = bob->malloc(64 * sizeof(std::uint32_t)).get();
    ASSERT_TRUE(bm.ok());

    // Re-moding the device would clobber alice's live operation.
    const Response reconf = bob->init(bm.addr, bm.addr + 64,
                                      KeyMode::UnsignedFixed, 64).get();
    EXPECT_EQ(reconf.status, ServiceStatus::Rejected);
    EXPECT_EQ(reconf.reject, RejectReason::Reconfiguration);

    // A same-mode init on bob's own range is fine.
    EXPECT_TRUE(bob->init(bm.addr, bm.addr + 64 * sizeof(std::uint32_t),
                          KeyMode::UnsignedFixed).get().ok());

    // Bob cannot touch alice's range: extract, store, init, or free.
    const Response steal = bob->min(astart, aend).get();
    EXPECT_EQ(steal.status, ServiceStatus::Rejected);
    EXPECT_EQ(steal.reject, RejectReason::NotOwner);
    const Response poke = bob->storeArray(astart, {1, 2, 3}).get();
    EXPECT_EQ(poke.reject, RejectReason::NotOwner);
    const Response claim = bob->init(astart, aend,
                                     KeyMode::UnsignedFixed).get();
    EXPECT_EQ(claim.reject, RejectReason::NotOwner);
    const Response seize = bob->free(astart).get();
    EXPECT_EQ(seize.reject, RejectReason::NotOwner);

    // Alice is undisturbed: her stream still starts at the minimum.
    auto expect = keys;
    std::sort(expect.begin(), expect.end());
    const Response head = alice->min(astart, aend).get();
    ASSERT_TRUE(head.ok());
    EXPECT_EQ(head.items[0].raw, expect[0]);

    alice->close();
    bob->close();
}

TEST(ServiceIsolation, CloseReclaimsEverythingTheSessionOwned)
{
    RimeService svc(fastServiceConfig(1));
    auto observer = svc.openSession({.tenant = "observer", .shard = 0});
    const std::uint64_t baseline =
        observer->health().get().allocatedBytes;

    auto tenant = svc.openSession({.tenant = "shortlived", .shard = 0});
    ASSERT_TRUE(tenant->malloc(4096).get().ok());
    ASSERT_TRUE(tenant->malloc(8192).get().ok());
    EXPECT_GT(observer->health().get().allocatedBytes, baseline);

    tenant->close(); // close frees every allocation the session held
    EXPECT_EQ(observer->health().get().allocatedBytes, baseline);
    observer->close();
}

// ---------------------------------------------------------------------
// Placement and service-wide health.
// ---------------------------------------------------------------------

TEST(ServicePlacement, PoliciesSpreadSessions)
{
    ServiceConfig cfg = fastServiceConfig(3);
    cfg.placement = std::make_unique<LeastSessionsPlacement>();
    RimeService svc(std::move(cfg));
    EXPECT_EQ(svc.shards(), 3u);

    auto a = svc.openSession({});
    auto b = svc.openSession({});
    auto c = svc.openSession({});
    std::vector<bool> used(3, false);
    used[a->shard()] = used[b->shard()] = used[c->shard()] = true;
    EXPECT_TRUE(used[0] && used[1] && used[2])
        << "least-sessions placement must spread singles";

    const auto loads = svc.loads();
    ASSERT_EQ(loads.size(), 3u);
    for (const auto &l : loads)
        EXPECT_EQ(l.sessions, 1u);

    EXPECT_TRUE(svc.health().pristine());
    a->close();
    b->close();
    c->close();
}

TEST(ServiceStats, TreeContainsShardsAndTenants)
{
    RimeService svc(fastServiceConfig(2));
    auto s = svc.openSession({.tenant = "carol", .shard = 1});
    const auto keys = sessionKeys(5, 64);
    const auto [start, end] = setupRange(*s, keys);
    ASSERT_TRUE(s->topK(start, end, 8).get().ok());
    s->close();

    const std::string deterministic = svc.statDumpJson();
    EXPECT_NE(deterministic.find("\"shard\""), std::string::npos);
    EXPECT_NE(deterministic.find("\"carol\""), std::string::npos);
    EXPECT_EQ(deterministic.find("Host"), std::string::npos);

    // The host view exists too, for profiling runs.
    const std::string host = svc.statDumpJson(true);
    EXPECT_NE(host.find("queueWallNsHost"), std::string::npos);
    EXPECT_NE(host.find("batchSizeHost"), std::string::npos);
}

// ---------------------------------------------------------------------
// Soak: oversubscribed clients over bit-level shards (TSan target).
// ---------------------------------------------------------------------

TEST(ServiceSoak, OversubscribedMixedClients)
{
    // Both controllers scan on the shared pool: an explicit width
    // (the default one runs ranges this small inline) over ranges of
    // 1024 keys per chip, i.e. at least two 512-row units.
    ServiceConfig cfg;
    cfg.shards = 2;
    cfg.library.device.bitLevel = true;
    cfg.library.device.hostThreads = 4;
    cfg.scheduler.queueCapacity = 8; // provoke real backpressure
    RimeService svc(std::move(cfg));

    constexpr unsigned kSessions = 6;
    constexpr std::size_t kKeys = 8192;
    std::vector<std::shared_ptr<Session>> sessions;
    std::vector<std::pair<Addr, Addr>> ranges;
    for (unsigned i = 0; i < kSessions; ++i) {
        sessions.push_back(svc.openSession({
            .tenant = "soak" + std::to_string(i % 2),
            .maxInFlight = 4,
        }));
        ranges.push_back(setupRange(*sessions[i], sessionKeys(i, kKeys)));
    }
    const std::uint64_t dispatches0 = ThreadPool::global().dispatches();

    std::atomic<std::uint64_t> served{0}, shed{0};
    std::vector<std::thread> clients;
    for (unsigned t = 0; t < 4; ++t) {
        clients.emplace_back([&, t] {
            Rng rng(500 + t);
            for (int iter = 0; iter < 120; ++iter) {
                const unsigned i =
                    static_cast<unsigned>(rng.below(kSessions));
                auto &s = *sessions[i];
                const auto [start, end] = ranges[i];
                Response r;
                switch (rng.below(3)) {
                  case 0:
                    r = s.min(start, end).get();
                    break;
                  case 1:
                    r = s.max(start, end).get();
                    break;
                  default:
                    r = s.health().get();
                    break;
                }
                if (r.status == ServiceStatus::Rejected) {
                    shed.fetch_add(1, std::memory_order_relaxed);
                    std::this_thread::yield();
                } else {
                    EXPECT_TRUE(r.status == ServiceStatus::Ok ||
                                r.status == ServiceStatus::Empty)
                        << serviceStatusName(r.status);
                    served.fetch_add(1, std::memory_order_relaxed);
                }
            }
        });
    }
    for (auto &c : clients)
        c.join();

    EXPECT_EQ(served.load() + shed.load(), 4u * 120u)
        << "every submission completed exactly once";
    EXPECT_GT(served.load(), 0u);
    EXPECT_GT(ThreadPool::global().dispatches(), dispatches0)
        << "no min/max scan ran multi-shard on the pool";
    EXPECT_TRUE(svc.health().pristine());
    for (auto &s : sessions)
        s->close();
}
