/**
 * @file
 * The multi-tenant RIME service: a fleet of shard controllers (one
 * RimeLibrary each, see shard.hh) behind client Session handles.
 *
 * Clients open sessions (pinned to a shard by the placement policy or
 * an explicit pin), submit typed requests and receive a
 * std::future<Response> per request.  The submit path never blocks on
 * the device: a full shard queue or an exhausted per-session in-flight
 * quota completes the future immediately with Rejected and the reason,
 * so load is shed at the door instead of queueing without bound.
 *
 * Determinism: with SchedulerConfig::deterministic set, open every
 * session, then call start(); the lockstep schedulers then serve the
 * shards in an order that is a pure function of the per-session
 * request scripts.  statDumpJson() of such a run is bit-identical
 * across client-thread counts and RIME_THREADS values.
 *
 * Lifetime: sessions must not outlive their service.  The service
 * destructor stops every shard and completes all outstanding futures
 * with Closed; a Session::close() after that is a no-op.
 */

#ifndef RIME_SERVICE_SERVICE_HH
#define RIME_SERVICE_SERVICE_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/stat_registry.hh"
#include "service/placement.hh"
#include "service/request.hh"
#include "service/shard.hh"

namespace rime::service
{

class RimeService;

/** Per-session client configuration. */
struct SessionConfig
{
    /** Tenant label (stat grouping and tracing). */
    std::string tenant = "tenant";
    /** Requests granted per scheduler round (fair-share weight). */
    unsigned weight = 1;
    /** In-flight cap; submits beyond it are Rejected/QuotaExceeded. */
    unsigned maxInFlight = 8;
    /** Explicit shard pin; negative lets the placement policy pick. */
    int shard = -1;
};

/** Client handle of one open session. */
class Session
{
  public:
    ~Session();

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    std::uint64_t id() const { return state_->id; }
    const std::string &tenant() const { return state_->tenant; }
    unsigned shard() const { return state_->shard; }

    /**
     * Submit several requests with one shard queue lock and one
     * controller wakeup -- the only submission path.  Returns one
     * future per request, in request order.  Each request claims its
     * own in-flight slot: over-quota entries are Rejected/
     * QuotaExceeded in place, and whatever the shard queue cannot
     * take is shed as a Rejected/Backpressure suffix.  Shed or
     * post-close entries (status Rejected or Closed) are already
     * ready and never touch the shard queue.
     *
     * `notify` (optional) is installed on every accepted request and
     * runs right after its future becomes ready, on the completing
     * (controller) thread.  It is NOT invoked for shed entries --
     * callers driving an event loop must poll those futures once
     * after submit.  The hook must be cheap and non-blocking (it
     * runs inside the serve path).
     */
    std::vector<std::future<Response>> submitBatch(
        std::vector<Request> reqs, std::function<void()> notify = nullptr);

    /** Submit one request: a one-element submitBatch. */
    std::future<Response> submit(Request req);

    /** submit + wait: the synchronous convenience form. */
    Response call(Request req) { return submit(std::move(req)).get(); }

    // Typed conveniences over submit()/call().
    std::future<Response> malloc(std::uint64_t bytes);
    std::future<Response> free(Addr start);
    std::future<Response> init(Addr start, Addr end, KeyMode mode,
                               unsigned word_bits = 32);
    std::future<Response> storeArray(Addr start,
                                     std::vector<std::uint64_t> values);
    std::future<Response> min(Addr start, Addr end, Tick deadline = 0);
    std::future<Response> max(Addr start, Addr end, Tick deadline = 0);
    std::future<Response> topK(Addr start, Addr end,
                               std::uint64_t count, bool largest = false);
    std::future<Response> sort(Addr start, Addr end);
    std::future<Response> health();

    /**
     * Close the session: waits for the shard to serve the close, which
     * completes any queued requests with Closed and frees everything
     * the session still has allocated.  Idempotent; the destructor
     * closes too.
     */
    void close();

    /**
     * Release the handle WITHOUT closing the server-side session: the
     * destructor becomes a no-op and the session lives on (journaled,
     * parked for resumption, or drained to another instance).  The
     * wire tier detaches when a session's state moved elsewhere or
     * must survive this handle.
     */
    void detach() { closed_.store(true, std::memory_order_release); }

  private:
    friend class RimeService;

    Session(std::shared_ptr<SessionState> state,
            std::shared_ptr<const bool> alive);

    /** An immediately-completed future (rejects, closed session). */
    static std::future<Response> ready(ServiceStatus status,
                                       RejectReason reason);

    /**
     * Park (bounded) while a failover re-homes the session, then
     * resolve the serving controller.  A submit that outlasts the
     * backoff is shed with Rejected/Draining by the old controller.
     */
    ShardController *controller() const;

    std::shared_ptr<SessionState> state_;
    /** Expires when the service is destroyed (late close() no-op). */
    std::weak_ptr<const bool> serviceAlive_;
    std::atomic<bool> closed_{false};
};

/** Service-wide configuration. */
struct ServiceConfig
{
    /** Number of shards; each owns an independent RimeLibrary. */
    unsigned shards = 1;
    /** Configuration every shard library is built with. */
    LibraryConfig library{};
    SchedulerConfig scheduler{};
    /** Session placement; defaults to round-robin when null. */
    std::unique_ptr<PlacementPolicy> placement;
    /**
     * Crash safety (journal.hh).  With a journal directory set, every
     * shard write-ahead-journals its committed ops to
     * <dir>/shard<i>.journal (snapshots beside it), and a restarted
     * service with the same directory recovers the journaled state
     * before serving.
     */
    DurabilityConfig durability{};
};

/** The multi-tenant serving layer over a fleet of shard libraries. */
class RimeService
{
  public:
    explicit RimeService(ServiceConfig config = {});
    ~RimeService();

    RimeService(const RimeService &) = delete;
    RimeService &operator=(const RimeService &) = delete;

    unsigned shards() const
    { return static_cast<unsigned>(controllers_.size()); }

    /** Open a session; never blocks on the schedulers. */
    std::shared_ptr<Session> openSession(const SessionConfig &cfg = {});

    /**
     * Release the shard schedulers.  Work-conserving services start at
     * construction and this is a no-op; deterministic services serve
     * nothing until start() is called (open all sessions first).
     */
    void start();

    /** Stop every shard (tail served, futures completed). Idempotent. */
    void shutdown();

    /** Load snapshot of every shard (what placement policies see). */
    std::vector<ShardLoad> loads() const;

    /** Aggregate health over all shards (served via the queues). */
    RimeHealthReport health();

    /**
     * Client handles for the sessions restart-recovery rebuilt (open
     * ones only).  Call once, right after constructing a service on a
     * journal directory with prior state; each handle closes its
     * session on destruction like any other Session.
     */
    std::vector<std::shared_ptr<Session>> recoveredSessions();

    /**
     * Health-driven failover: evacuate every live session of `shard`
     * to healthy peers via drain/install hand-off (journaled on both
     * sides).  The shard keeps serving its library -- its chips may
     * still hold other state -- but placement stops sending new
     * sessions its way.  Requires a started, work-conserving service.
     * @return sessions successfully re-homed
     */
    unsigned drainShard(unsigned shard);

    /**
     * Probe every shard's device health and drain the ones with
     * retired or dead units (while a healthy peer exists).  Call
     * periodically from an operations loop.
     * @return shards newly drained
     */
    unsigned maintain();

    /**
     * Cross-process hand-off, drain side: freeze session `id`, drop it
     * from its shard (allocations freed, queued requests shed with
     * Rejected/Draining, Migrated record journaled) and return the
     * encoded SessionImage -- the bytes a peer instance's
     * installSessionImage() accepts.  Empty on failure (unknown id,
     * already closed or migrated).  The session's local handles are
     * dead afterwards; detach() them.
     */
    std::vector<std::uint8_t> drainSessionImage(std::uint64_t id);

    /**
     * Cross-process hand-off, install side: adopt a session image
     * drained from ANOTHER service instance.  The image's session id
     * is remapped to a fresh local id (the two instances' id spaces
     * are independent), the session is placed on a non-draining shard
     * and journaled there (Install record), and a live handle is
     * returned -- null when no shard can take the image (incompatible
     * word geometry everywhere, or all shards draining).
     */
    std::shared_ptr<Session>
    installSessionImage(const std::vector<std::uint8_t> &image);

    /**
     * Collect the full service stat tree into `out`:
     * "service.shard.<i>" scheduler stats (plus the shed counters as
     * "*Host" values), "service.shard.<i>.api|driver|device|chip.<c>"
     * from each shard library, and "service.tenant.<t>.s<id>" per
     * session.  Call when quiescent (sessions closed or all clients
     * idle): the controllers own their stats while serving.
     */
    void collectStats(StatRegistry &out) const;

    /** collectStats into a fresh registry, dumped as JSON. */
    std::string statDumpJson(bool include_host = false) const;

  private:
    /** Adopt journal/snapshot state the shards recovered at build. */
    void recoverSessions();
    /** Serve one Health request against `shard` (probe session). */
    Response probeShard(unsigned shard);
    /** Re-home one session (drain `from`, install on a peer). */
    bool migrateSession(const std::shared_ptr<SessionState> &state,
                        unsigned from);
    /**
     * Drain control: drain the session off shard `from` and return its
     * encoded image.  Empty when the session closed or drained while
     * the control was queued, or the shard stopped.
     */
    std::vector<std::uint8_t>
    drainImage(const std::shared_ptr<SessionState> &state,
               unsigned from);
    /**
     * Install control: offer `image` to `count` shards from `first`
     * (mod shards), skipping draining ones, until one adopts and pins
     * the session.  False when none could.
     */
    bool installImage(const std::shared_ptr<SessionState> &state,
                      const std::vector<std::uint8_t> &image,
                      unsigned first, unsigned count);

    ServiceConfig config_;
    std::vector<std::unique_ptr<ShardController>> controllers_;
    std::vector<std::shared_ptr<SessionState>> sessions_;
    mutable std::mutex sessionsMutex_;
    std::atomic<std::uint64_t> nextSessionId_{1};
    bool started_ = false;
    bool stopped_ = false;
    /** Destroyed first (declared last): sessions see expiry. */
    std::shared_ptr<const bool> alive_{std::make_shared<bool>(true)};
};

} // namespace rime::service

#endif // RIME_SERVICE_SERVICE_HH
