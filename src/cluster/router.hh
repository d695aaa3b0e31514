/**
 * @file
 * ClusterRouter: N RimeServer processes, one ranking namespace.
 *
 * The router exposes the familiar Session/Request surface
 * (openSession -> submit -> future<Response>) and fans it out over a
 * fleet of server processes, each reached through its own RimeClient.
 * Three concerns live here and nowhere else:
 *
 *  - Placement.  Sessions are homed by consistent hash of their
 *    tenant + session key on a ring over the placeable members
 *    (HashRing, placement.hh), with a bounded-load cap: when the
 *    ring's pick already carries more than loadFactor times the fair
 *    share of sessions, the key falls through the ring's preference
 *    order, and when every ring pick is over the bound (or not
 *    placeable) the least-loaded member takes it.  Deterministic
 *    membership -> deterministic ring -> the same session key homes
 *    to the same instance across router restarts.
 *
 *  - Admission.  Every tenant has a cluster-wide in-flight cap
 *    (TenantAdmission) acquired before the wire and released on
 *    completion; over-cap requests are shed Rejected/QuotaExceeded at
 *    the router, so one hot tenant saturates its own quota instead of
 *    an instance's queues.
 *
 *  - Failover.  drainInstance() (operator) and maintain() (health
 *    probes: Degraded devices, Shutdown notices, dead connections)
 *    generalize the in-process drain/migrate of PR 7 across
 *    processes: per session, freeze (`migrating`), DrainSession on
 *    the old instance (the server cuts a journaled SessionImage),
 *    InstallSession on the ring's next choice, re-home the handle.
 *    Requests racing the freeze are shed Rejected/Draining before
 *    they touch the wire -- deterministic, never lost; requests
 *    already on the old instance's queue complete or shed there
 *    (drainSession's FIFO discipline).  A member that dies without a
 *    drain (kill -9) is reconnected by maintain() and its sessions
 *    reattached via resume tokens against the restarted server's
 *    journal-recovered state.
 */

#ifndef RIME_CLUSTER_ROUTER_HH
#define RIME_CLUSTER_ROUTER_HH

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cluster/admission.hh"
#include "cluster/membership.hh"
#include "service/placement.hh"
#include "service/request.hh"

namespace rime::cluster
{

class ClusterRouter;

/** Router-level session configuration (mirrors SessionConfig). */
struct ClusterSessionConfig
{
    std::string tenant = "tenant";
    unsigned weight = 1;
    /** Per-session in-flight cap enforced by the owning instance. */
    unsigned maxInFlight = 8;
};

/** Client handle of one cluster session. */
class ClusterSession
{
  public:
    ~ClusterSession() { close(); }

    ClusterSession(const ClusterSession &) = delete;
    ClusterSession &operator=(const ClusterSession &) = delete;

    std::uint64_t id() const { return state_->id; }
    const std::string &tenant() const { return state_->tenant; }

    /** Instance currently homing the session. */
    unsigned
    member() const
    {
        std::lock_guard<std::mutex> lock(state_->mutex);
        return state_->member;
    }

    /**
     * Submit one request.  Shed paths (tenant over quota, session
     * mid-failover, closed) complete immediately and never block;
     * otherwise the request is pipelined to the owning instance.
     */
    std::future<service::Response> submit(service::Request req);

    service::Response
    call(service::Request req)
    {
        return submit(std::move(req)).get();
    }

    /** Close the remote session.  Idempotent; destructor closes. */
    void close();

  private:
    friend class ClusterRouter;

    /** Routing state; `mutex` guards the member/remoteId/flags. */
    struct State
    {
        std::uint64_t id = 0;
        std::string tenant;
        std::uint64_t key = 0;
        unsigned weight = 1;
        unsigned maxInFlight = 8;
        std::shared_ptr<TenantAdmission::Tenant> admission;

        mutable std::mutex mutex;
        unsigned member = 0;        ///< homing instance index
        std::uint64_t remoteId = 0; ///< session id on that instance
        bool migrating = false;     ///< failover in progress: shed
        bool closed = false;
    };

    explicit ClusterSession(ClusterRouter &router,
                            std::shared_ptr<State> state)
        : router_(router), state_(std::move(state))
    {
    }

    ClusterRouter &router_;
    std::shared_ptr<State> state_;
};

/** Router knobs. */
struct RouterConfig
{
    std::vector<MemberConfig> members;
    /** Ring points per member. */
    unsigned vnodes = service::HashRing::kDefaultVnodes;
    /**
     * Bounded-load factor: a ring pick already homing more than
     * loadFactor * ceil(totalSessions / placeableMembers) sessions is
     * skipped.  1.0 = strict balance; 0 disables the bound.
     */
    double loadFactor = 1.25;
    /** Consecutive failed probes before a member is Down. */
    unsigned failThreshold = 2;
};

/** Aggregate router counters (monotonic; read any time). */
struct RouterStats
{
    std::uint64_t submitted = 0;
    std::uint64_t shedQuota = 0;
    std::uint64_t shedDraining = 0;
    std::uint64_t shedClosed = 0;
    std::uint64_t migrations = 0;
    std::uint64_t failedMigrations = 0;
    std::uint64_t resumed = 0;
    std::uint64_t lostSessions = 0;
};

/** The scale-out front end over a fleet of RimeServer processes. */
class ClusterRouter
{
  public:
    explicit ClusterRouter(RouterConfig config);
    ~ClusterRouter();

    ClusterRouter(const ClusterRouter &) = delete;
    ClusterRouter &operator=(const ClusterRouter &) = delete;

    /** Connect the fleet.  @return true when >= 1 member is up. */
    bool connect();

    /** Drop every connection (sessions stay open server-side). */
    void disconnect();

    Membership &membership() { return membership_; }
    TenantAdmission &admission() { return admission_; }

    /** Cluster-wide tenant quota (see TenantAdmission). */
    void
    setTenantQuota(const std::string &tenant, TenantQuota quota)
    {
        admission_.setQuota(tenant, quota);
    }

    /**
     * Open a session on the instance its key hashes to (bounded-load
     * consistent hashing, least-loaded fallback).  Null when no
     * placeable member accepts it.
     */
    std::shared_ptr<ClusterSession>
    openSession(const ClusterSessionConfig &cfg = {});

    /** Release deterministic schedulers on every reachable member. */
    void start();

    /**
     * Operator drain: evacuate every session homed on `idx` to
     * healthy peers (freeze -> DrainSession -> InstallSession ->
     * re-home) and stop placing there.  @return sessions re-homed
     */
    unsigned drainInstance(unsigned idx);

    /**
     * One operations pass: probe every member, drain the Degraded
     * and Shutdown-advised ones, reconnect Down ones and resume their
     * sessions from the restarted server's journal state.  Call
     * periodically.  @return sessions re-homed or resumed
     */
    unsigned maintain();

    RouterStats stats() const;

  private:
    friend class ClusterSession;

    std::future<service::Response>
    submit(const std::shared_ptr<ClusterSession::State> &state,
           service::Request req);
    void
    closeSession(const std::shared_ptr<ClusterSession::State> &state);

    /**
     * Members to try for `key`, best first: ring preference order
     * filtered to placeable, bounded-load-eligible picks, then the
     * remaining placeable members least-loaded first.
     */
    std::vector<unsigned> placementOrder(std::uint64_t key) const;
    /** Rebuild the ring from current member health. */
    void rebuildRing();
    /** Freeze + drain + install + re-home one session off `from`. */
    bool migrate(const std::shared_ptr<ClusterSession::State> &state,
                 unsigned from);
    /** Reattach sessions homed on a member that came back. */
    unsigned resumeSessions(unsigned idx);

    RouterConfig config_;
    Membership membership_;
    TenantAdmission admission_;

    /** Ring over placeable members; rebuilt on health transitions. */
    mutable std::mutex ringMutex_;
    service::HashRing ring_;

    mutable std::mutex sessionsMutex_;
    std::vector<std::shared_ptr<ClusterSession::State>> sessions_;
    std::atomic<std::uint64_t> nextSessionId_{1};

    std::atomic<std::uint64_t> submitted_{0};
    std::atomic<std::uint64_t> shedQuota_{0};
    std::atomic<std::uint64_t> shedDraining_{0};
    std::atomic<std::uint64_t> shedClosed_{0};
    std::atomic<std::uint64_t> migrations_{0};
    std::atomic<std::uint64_t> failedMigrations_{0};
    std::atomic<std::uint64_t> resumed_{0};
    std::atomic<std::uint64_t> lostSessions_{0};
};

} // namespace rime::cluster

#endif // RIME_CLUSTER_ROUTER_HH
