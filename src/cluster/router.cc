#include "router.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace rime::cluster
{

using service::RejectReason;
using service::Request;
using service::Response;
using service::ServiceStatus;

namespace
{

std::future<Response>
readyResponse(ServiceStatus status, RejectReason reason)
{
    std::promise<Response> promise;
    Response r;
    r.status = status;
    r.reject = reason;
    promise.set_value(std::move(r));
    return promise.get_future();
}

} // namespace

// ----------------------------------------------------------------------
// ClusterSession
// ----------------------------------------------------------------------

std::future<Response>
ClusterSession::submit(Request req)
{
    return router_.submit(state_, std::move(req));
}

void
ClusterSession::close()
{
    router_.closeSession(state_);
}

// ----------------------------------------------------------------------
// ClusterRouter
// ----------------------------------------------------------------------

ClusterRouter::ClusterRouter(RouterConfig config)
    : config_(std::move(config)),
      membership_(config_.members, config_.failThreshold)
{
    if (config_.members.empty())
        fatal("a ClusterRouter needs at least one member");
}

ClusterRouter::~ClusterRouter()
{
    disconnect();
}

bool
ClusterRouter::connect()
{
    const unsigned up = membership_.connectAll();
    rebuildRing();
    return up > 0;
}

void
ClusterRouter::disconnect()
{
    for (unsigned i = 0; i < membership_.size(); ++i)
        membership_.member(i).client->disconnect();
}

void
ClusterRouter::start()
{
    for (unsigned i = 0; i < membership_.size(); ++i) {
        Member &m = membership_.member(i);
        if (m.client->connected())
            m.client->start();
    }
}

void
ClusterRouter::rebuildRing()
{
    service::HashRing ring;
    for (unsigned i = 0; i < membership_.size(); ++i) {
        if (membership_.member(i).placeable())
            ring.addNode(i, config_.vnodes);
    }
    std::lock_guard<std::mutex> lock(ringMutex_);
    ring_ = std::move(ring);
}

std::vector<unsigned>
ClusterRouter::placementOrder(std::uint64_t key) const
{
    std::vector<unsigned> preference;
    {
        std::lock_guard<std::mutex> lock(ringMutex_);
        preference = ring_.preferenceOrder(key);
    }

    // Bounded-load cap: a member already homing more than loadFactor
    // times the fair share is skipped in ring order (it stays a last
    // resort through the least-loaded tail below).
    std::size_t total = 0;
    unsigned placeable = 0;
    for (unsigned i = 0; i < membership_.size(); ++i) {
        const Member &m = membership_.member(i);
        if (!m.placeable())
            continue;
        ++placeable;
        total += m.sessions.load(std::memory_order_relaxed);
    }
    std::size_t bound = SIZE_MAX;
    if (config_.loadFactor > 0 && placeable > 0) {
        const double fair =
            static_cast<double>(total + 1) / placeable;
        bound = static_cast<std::size_t>(
            std::ceil(config_.loadFactor * fair));
        bound = std::max<std::size_t>(bound, 1);
    }

    std::vector<unsigned> order;
    for (const unsigned idx : preference) {
        const Member &m = membership_.member(idx);
        if (m.placeable() &&
            m.sessions.load(std::memory_order_relaxed) < bound) {
            order.push_back(idx);
        }
    }
    // Least-loaded tail: every placeable member not already picked,
    // fewest sessions first (lowest index breaks ties).
    std::vector<unsigned> rest;
    for (unsigned i = 0; i < membership_.size(); ++i) {
        if (membership_.member(i).placeable() &&
            std::find(order.begin(), order.end(), i) == order.end()) {
            rest.push_back(i);
        }
    }
    std::sort(rest.begin(), rest.end(),
              [this](unsigned a, unsigned b) {
                  const auto la = membership_.member(a).sessions.load(
                      std::memory_order_relaxed);
                  const auto lb = membership_.member(b).sessions.load(
                      std::memory_order_relaxed);
                  return la != lb ? la < lb : a < b;
              });
    order.insert(order.end(), rest.begin(), rest.end());
    return order;
}

std::shared_ptr<ClusterSession>
ClusterRouter::openSession(const ClusterSessionConfig &cfg)
{
    auto state = std::make_shared<ClusterSession::State>();
    state->id =
        nextSessionId_.fetch_add(1, std::memory_order_relaxed);
    state->tenant = cfg.tenant;
    state->weight = std::max(1u, cfg.weight);
    state->maxInFlight = std::max(1u, cfg.maxInFlight);
    state->key = service::placementHash(cfg.tenant) ^
        service::placementMix(state->id);
    state->admission = admission_.tenant(cfg.tenant);

    for (const unsigned idx : placementOrder(state->key)) {
        Member &m = membership_.member(idx);
        const std::uint64_t remote = m.client->openSession(
            cfg.tenant, state->weight, state->maxInFlight);
        if (remote == 0)
            continue;
        state->member = idx;
        state->remoteId = remote;
        m.sessions.fetch_add(1, std::memory_order_relaxed);
        {
            std::lock_guard<std::mutex> lock(sessionsMutex_);
            sessions_.push_back(state);
        }
        return std::shared_ptr<ClusterSession>(
            new ClusterSession(*this, std::move(state)));
    }
    return nullptr; // no placeable member accepted the session
}

std::future<Response>
ClusterRouter::submit(
    const std::shared_ptr<ClusterSession::State> &state, Request req)
{
    // The lock spans the check and the wire write, so a failover
    // cannot interleave: either the request is on the old instance's
    // connection *before* its DrainSession (the shard completes or
    // sheds it there) or it observes `migrating` and is shed here.
    std::lock_guard<std::mutex> lock(state->mutex);
    if (state->closed) {
        shedClosed_.fetch_add(1, std::memory_order_relaxed);
        return readyResponse(ServiceStatus::Closed,
                             RejectReason::None);
    }
    if (state->migrating) {
        shedDraining_.fetch_add(1, std::memory_order_relaxed);
        return readyResponse(ServiceStatus::Rejected,
                             RejectReason::Draining);
    }
    auto admission = state->admission;
    if (!admission->tryAcquire()) {
        shedQuota_.fetch_add(1, std::memory_order_relaxed);
        return readyResponse(ServiceStatus::Rejected,
                             RejectReason::QuotaExceeded);
    }
    Member &m = membership_.member(state->member);
    m.inFlight.fetch_add(1, std::memory_order_relaxed);
    submitted_.fetch_add(1, std::memory_order_relaxed);
    Member *mp = &m;
    return m.client->submit(
        state->remoteId, std::move(req),
        [admission, mp] {
            admission->release();
            mp->inFlight.fetch_sub(1, std::memory_order_relaxed);
        });
}

void
ClusterRouter::closeSession(
    const std::shared_ptr<ClusterSession::State> &state)
{
    unsigned member = 0;
    std::uint64_t remote = 0;
    {
        std::lock_guard<std::mutex> lock(state->mutex);
        if (state->closed)
            return;
        state->closed = true;
        member = state->member;
        remote = state->remoteId;
    }
    Member &m = membership_.member(member);
    m.client->closeSession(remote); // best effort; journal covers us
    m.sessions.fetch_sub(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(sessionsMutex_);
    std::erase_if(sessions_,
                  [&](const auto &s) { return s == state; });
}

bool
ClusterRouter::migrate(
    const std::shared_ptr<ClusterSession::State> &state,
    unsigned from)
{
    std::uint64_t remote = 0;
    {
        std::lock_guard<std::mutex> lock(state->mutex);
        if (state->closed || state->member != from)
            return false;
        state->migrating = true;
        remote = state->remoteId;
    }
    Member &old = membership_.member(from);
    const std::vector<std::uint8_t> image =
        old.client->drainSession(remote);
    if (image.empty()) {
        // Transport failure or the session closed under us; unfreeze
        // (a dead member's sessions go through resume, not drain).
        std::lock_guard<std::mutex> lock(state->mutex);
        state->migrating = false;
        failedMigrations_.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    old.sessions.fetch_sub(1, std::memory_order_relaxed);

    for (const unsigned idx : placementOrder(state->key)) {
        if (idx == from)
            continue;
        Member &peer = membership_.member(idx);
        const std::uint64_t installed =
            peer.client->installSession(image);
        if (installed == 0)
            continue;
        peer.sessions.fetch_add(1, std::memory_order_relaxed);
        {
            std::lock_guard<std::mutex> lock(state->mutex);
            state->member = idx;
            state->remoteId = installed;
            state->migrating = false;
        }
        migrations_.fetch_add(1, std::memory_order_relaxed);
        return true;
    }

    // No peer took the image.  It stays journaled on the old instance
    // (Migrated record), so a restart there can still re-home it; for
    // this router's clients the session is gone.
    warn("cluster session %llu: drained off member %u but no peer "
         "can install it",
         static_cast<unsigned long long>(state->id), from);
    {
        std::lock_guard<std::mutex> lock(state->mutex);
        state->closed = true;
        state->migrating = false;
    }
    lostSessions_.fetch_add(1, std::memory_order_relaxed);
    failedMigrations_.fetch_add(1, std::memory_order_relaxed);
    return false;
}

unsigned
ClusterRouter::drainInstance(unsigned idx)
{
    if (idx >= membership_.size())
        fatal("drainInstance(%u) of a %zu-member cluster", idx,
              membership_.size());
    membership_.setDraining(idx);
    rebuildRing();

    std::vector<std::shared_ptr<ClusterSession::State>> targets;
    {
        std::lock_guard<std::mutex> lock(sessionsMutex_);
        for (const auto &state : sessions_) {
            std::lock_guard<std::mutex> slock(state->mutex);
            if (!state->closed && state->member == idx)
                targets.push_back(state);
        }
    }
    unsigned moved = 0;
    for (const auto &state : targets) {
        if (migrate(state, idx))
            ++moved;
    }
    return moved;
}

unsigned
ClusterRouter::resumeSessions(unsigned idx)
{
    std::vector<std::shared_ptr<ClusterSession::State>> targets;
    {
        std::lock_guard<std::mutex> lock(sessionsMutex_);
        for (const auto &state : sessions_) {
            std::lock_guard<std::mutex> slock(state->mutex);
            if (!state->closed && state->member == idx)
                targets.push_back(state);
        }
    }
    Member &m = membership_.member(idx);
    unsigned back = 0;
    for (const auto &state : targets) {
        std::uint64_t remote = 0;
        {
            std::lock_guard<std::mutex> lock(state->mutex);
            if (state->closed || state->member != idx)
                continue;
            state->migrating = true; // shed until reattached
            remote = state->remoteId;
        }
        const bool resumed = m.client->resumeSession(remote);
        std::lock_guard<std::mutex> lock(state->mutex);
        if (resumed) {
            state->migrating = false;
            ++back;
        } else {
            // Grace expired or the journal lost it: gone for good.
            state->closed = true;
            state->migrating = false;
            m.sessions.fetch_sub(1, std::memory_order_relaxed);
            lostSessions_.fetch_add(1, std::memory_order_relaxed);
        }
    }
    resumed_.fetch_add(back, std::memory_order_relaxed);
    return back;
}

unsigned
ClusterRouter::maintain()
{
    unsigned actions = 0;
    for (unsigned i = 0; i < membership_.size(); ++i) {
        Member &m = membership_.member(i);
        const MemberHealth before = m.healthNow();
        if (before == MemberHealth::Down) {
            // Freeze the member's sessions so a racing submit sheds
            // (Draining) instead of poking an unresumed session on a
            // freshly reconnected server.
            std::lock_guard<std::mutex> lock(sessionsMutex_);
            for (const auto &state : sessions_) {
                std::lock_guard<std::mutex> slock(state->mutex);
                if (!state->closed && state->member == i)
                    state->migrating = true;
            }
        }
        membership_.probe(i);
        const MemberHealth after = m.healthNow();
        // A reconnect delta catches the fast-restart case: the server
        // died and came back between two probes, so the member never
        // looked Down but its server-side sessions are gone (parked in
        // the restarted process, waiting for a resume token).
        const bool cameBack =
            m.client->reconnects() != m.seenReconnects;
        m.seenReconnects = m.client->reconnects();
        if ((before == MemberHealth::Down || cameBack) &&
            (after == MemberHealth::Healthy ||
             after == MemberHealth::Degraded)) {
            actions += resumeSessions(i); // the instance came back
        }
    }
    rebuildRing();
    for (unsigned i = 0; i < membership_.size(); ++i) {
        const MemberHealth h = membership_.member(i).healthNow();
        if (h != MemberHealth::Degraded &&
            h != MemberHealth::Draining) {
            continue;
        }
        // Evacuate without re-marking: Degraded may recover, Draining
        // is already sticky; either way nothing new places here.
        std::vector<std::shared_ptr<ClusterSession::State>> targets;
        {
            std::lock_guard<std::mutex> lock(sessionsMutex_);
            for (const auto &state : sessions_) {
                std::lock_guard<std::mutex> slock(state->mutex);
                if (!state->closed && state->member == i)
                    targets.push_back(state);
            }
        }
        for (const auto &state : targets) {
            if (migrate(state, i))
                ++actions;
        }
    }
    return actions;
}

RouterStats
ClusterRouter::stats() const
{
    RouterStats s;
    s.submitted = submitted_.load(std::memory_order_relaxed);
    s.shedQuota = shedQuota_.load(std::memory_order_relaxed);
    s.shedDraining = shedDraining_.load(std::memory_order_relaxed);
    s.shedClosed = shedClosed_.load(std::memory_order_relaxed);
    s.migrations = migrations_.load(std::memory_order_relaxed);
    s.failedMigrations =
        failedMigrations_.load(std::memory_order_relaxed);
    s.resumed = resumed_.load(std::memory_order_relaxed);
    s.lostSessions = lostSessions_.load(std::memory_order_relaxed);
    return s;
}

} // namespace rime::cluster
