#include "shard.hh"

#include <algorithm>
#include <utility>

#include <unistd.h>

#include "common/logging.hh"
#include "common/trace.hh"
#include "service/request.hh"

namespace rime::service
{

namespace
{

/**
 * Client-visible base of the alias space handed to post-migration
 * mallocs.  A migrated session's existing bases shadow shard-local
 * addresses, so a fresh local address could collide with one of them;
 * aliases live far above any physical region and are assigned from a
 * per-session cursor, which journal replay recomputes identically.
 */
constexpr Addr kAliasBase = 1ULL << 62;

/** Nanoseconds of host wall time elapsed since `start`. */
double
hostNsSince(std::chrono::steady_clock::time_point start)
{
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start).count());
}

bool
isExtraction(RequestKind kind)
{
    return kind == RequestKind::Min || kind == RequestKind::Max;
}

/**
 * The completion funnel: every queued request not finished by the
 * group commit (flushBatchLocked) finishes here.  The in-flight slot
 * is dropped *before* the future completes -- a closed-loop client may
 * resubmit the instant it observes the completion, and must find its
 * quota slot free -- and the notify hook fires *after* the promise is
 * fulfilled so a waker (the wire server's event loop) always finds
 * the future ready.
 */
void
finish(SessionState::Pending &pending, Response &&r)
{
    pending.session->inFlight.fetch_sub(1, std::memory_order_release);
    const std::function<void()> notify = std::move(pending.notify);
    pending.promise.set_value(std::move(r));
    if (notify)
        notify();
}

/** A response that carries only a status (and a reject reason). */
Response
statusOnly(ServiceStatus status, RejectReason reject = RejectReason::None)
{
    Response r;
    r.status = status;
    r.reject = reject;
    return r;
}

/** Clamp nonsense knob values once, at construction. */
SchedulerConfig
normalized(SchedulerConfig config)
{
    if (config.batchOps == 0)
        config.batchOps = 1;
    return config;
}

ServiceStatus
fromRimeStatus(RimeStatus status)
{
    switch (status) {
      case RimeStatus::Ok:
        return ServiceStatus::Ok;
      case RimeStatus::Empty:
        return ServiceStatus::Empty;
      case RimeStatus::VerifyFailed:
        return ServiceStatus::VerifyFailed;
      case RimeStatus::DataLoss:
        return ServiceStatus::DataLoss;
    }
    return ServiceStatus::Ok;
}

} // namespace

std::shared_ptr<SessionState>
makeSessionState(std::uint64_t id, std::string tenant, unsigned weight,
                 unsigned maxInFlight)
{
    auto s = std::make_shared<SessionState>();
    s->id = id;
    s->tenant = std::move(tenant);
    s->weight = std::max(1u, weight);
    s->maxInFlight = std::max(1u, maxInFlight);
    return s;
}

const char *
requestKindName(RequestKind kind)
{
    switch (kind) {
      case RequestKind::Malloc:
        return "malloc";
      case RequestKind::Free:
        return "free";
      case RequestKind::Init:
        return "init";
      case RequestKind::StoreArray:
        return "storeArray";
      case RequestKind::Min:
        return "min";
      case RequestKind::Max:
        return "max";
      case RequestKind::TopK:
        return "topK";
      case RequestKind::Sort:
        return "sort";
      case RequestKind::Health:
        return "health";
    }
    return "unknown";
}

const char *
serviceStatusName(ServiceStatus status)
{
    switch (status) {
      case ServiceStatus::Ok:
        return "ok";
      case ServiceStatus::Empty:
        return "empty";
      case ServiceStatus::Rejected:
        return "rejected";
      case ServiceStatus::DeadlineExpired:
        return "deadline-expired";
      case ServiceStatus::OutOfMemory:
        return "out-of-memory";
      case ServiceStatus::VerifyFailed:
        return "verify-failed";
      case ServiceStatus::DataLoss:
        return "data-loss";
      case ServiceStatus::Closed:
        return "closed";
    }
    return "unknown";
}

const char *
rejectReasonName(RejectReason reason)
{
    switch (reason) {
      case RejectReason::None:
        return "none";
      case RejectReason::Backpressure:
        return "backpressure";
      case RejectReason::QuotaExceeded:
        return "quota-exceeded";
      case RejectReason::Reconfiguration:
        return "reconfiguration";
      case RejectReason::NotOwner:
        return "not-owner";
      case RejectReason::Draining:
        return "draining";
    }
    return "unknown";
}

ShardController::ShardController(unsigned index,
                                 const LibraryConfig &library,
                                 const SchedulerConfig &scheduler,
                                 ShardDurability durability)
    : index_(index), config_(normalized(scheduler)),
      durability_(std::move(durability)), lib_(library),
      inbox_(scheduler.queueCapacity),
      stats_("shard." + std::to_string(index))
{
    if (durability_.enabled()) {
        // Recovery runs here, on the constructing (service) thread,
        // strictly before the controller thread exists; the library
        // rebinds in controllerLoop(), so this sequential hand-off is
        // legal under the affinity guard.  The journal opens *after*
        // replay so recovered records are not re-appended.
        recover();
        journal_.open(durability_.journalPath,
                      durability_.fsyncEveryAppend);
    }
    controller_ = std::thread([this] { controllerLoop(); });
}

ShardController::~ShardController()
{
    stop();
}

void
ShardController::begin()
{
    {
        std::lock_guard<std::mutex> lock(beginMutex_);
        begun_ = true;
    }
    beginCv_.notify_all();
}

void
ShardController::stop()
{
    {
        std::lock_guard<std::mutex> lock(beginMutex_);
        if (stopped_)
            return;
        stopped_ = true;
        begun_ = true;
    }
    beginCv_.notify_all();
    inbox_.close();
    if (controller_.joinable())
        controller_.join();
}

void
ShardController::registerSession(std::shared_ptr<SessionState> session)
{
    session->shard.store(index_, std::memory_order_release);
    session->controller.store(this, std::memory_order_release);
    std::lock_guard<std::mutex> lock(sessionsMutex_);
    sessions_.push_back(std::move(session));
}

std::size_t
ShardController::submitDataBatch(std::vector<Pending> &batch)
{
    const std::size_t accepted = inbox_.tryPushBatch(batch);
    if (accepted > 0)
        inboxDepth_.fetch_add(accepted, std::memory_order_relaxed);
    if (accepted < batch.size()) {
        rejectedBackpressure_.fetch_add(batch.size() - accepted,
                                        std::memory_order_relaxed);
    }
    return accepted;
}

Response
ShardController::control(Pending::Control kind,
                         std::shared_ptr<SessionState> session,
                         std::vector<std::uint8_t> image)
{
    Pending pending;
    pending.control = kind;
    pending.image = std::move(image);
    pending.enqueued = std::chrono::steady_clock::now();
    session->inFlight.fetch_add(1, std::memory_order_acq_rel);
    pending.session = std::move(session);
    auto done = pending.promise.get_future();
    if (!inbox_.pushBlocking(std::move(pending))) {
        // Shard already stopped; its shutdown path completed or will
        // complete everything, and the slot accounting died with it.
        return statusOnly(ServiceStatus::Closed);
    }
    inboxDepth_.fetch_add(1, std::memory_order_relaxed);
    return done.get();
}

std::size_t
ShardController::sessionCount() const
{
    std::lock_guard<std::mutex> lock(sessionsMutex_);
    std::size_t open = 0;
    for (const auto &s : sessions_) {
        if (!s->closed)
            ++open;
    }
    return open;
}

std::vector<std::shared_ptr<SessionState>>
ShardController::sessionSnapshot() const
{
    std::lock_guard<std::mutex> lock(sessionsMutex_);
    return sessions_;
}

void
ShardController::dropSession(const SessionState &s)
{
    std::lock_guard<std::mutex> lock(sessionsMutex_);
    std::erase_if(sessions_, [&s](const auto &p) { return p.get() == &s; });
}

void
ShardController::controllerLoop()
{
    {
        // Deterministic mode holds the controller until start(): the
        // round composition then depends only on the sessions opened
        // before the gate, not on open-vs-serve races.
        std::unique_lock<std::mutex> lock(beginMutex_);
        beginCv_.wait(lock, [this] { return begun_; });
    }
    // The controller owns the shard library from here on; rebinding is
    // explicit because the service may have touched the library while
    // constructing it.
    lib_.rimeBindThread();

    while (true) {
        drainInbox();
        if (!anyPendingWork()) {
            // About to block: commit the deferred batch first, or a
            // closed-loop client waiting on a withheld future would
            // never submit the work this pop is waiting for.
            flushBatch();
            // Idle: block for the next submission (or shutdown).
            auto next = inbox_.pop();
            if (!next)
                break;
            inboxDepth_.fetch_sub(1, std::memory_order_relaxed);
            route(std::move(*next));
            continue;
        }
        if (config_.deterministic)
            lockstepRound();
        else
            sweep();
    }
    failAllPending();
}

void
ShardController::drainInbox()
{
    {
        std::lock_guard<std::mutex> lock(statsMutex_);
        stats_.hist("queueDepthHost")
            .record(static_cast<double>(inbox_.size()));
    }
    while (auto pending = inbox_.tryPop()) {
        inboxDepth_.fetch_sub(1, std::memory_order_relaxed);
        route(std::move(*pending));
    }
}

void
ShardController::route(Pending &&pending)
{
    SessionState &s = *pending.session;
    if (s.closed) {
        // Arrived after the session's Close was served (shutdown
        // races): nothing can be executed on its behalf anymore.
        finish(pending, statusOnly(ServiceStatus::Closed));
        return;
    }
    if (pending.control == Pending::Control::Install) {
        // Served inline: the sweep skips migrated-away sessions, and
        // the install is exactly what revives this one.  Same thread
        // as serveHead, so only the stat lock is due.  The deferred
        // batch commits first so completions stay in serve order.
        std::lock_guard<std::mutex> stats_lock(statsMutex_);
        flushBatchLocked();
        installSession(s, pending);
        return;
    }
    if (s.migratedAway ||
        s.controller.load(std::memory_order_acquire) != this) {
        // The session drained away (or was already re-homed) while
        // this request sat in the inbox: its state lives elsewhere
        // now.  Shed it -- closes included -- so the client retries
        // against the new shard instead of parking in a fifo no sweep
        // visits anymore.
        rejectedDraining_.fetch_add(1, std::memory_order_relaxed);
        finish(pending, statusOnly(ServiceStatus::Rejected,
                                   RejectReason::Draining));
        return;
    }
    s.fifo.push_back(std::move(pending));
}

bool
ShardController::anyPendingWork() const
{
    std::lock_guard<std::mutex> lock(sessionsMutex_);
    for (const auto &s : sessions_) {
        if (!s->closed && !s->fifo.empty())
            return true;
    }
    return false;
}

bool
ShardController::waitFor(SessionState &s)
{
    while (s.fifo.empty()) {
        if (s.closed || s.migratedAway)
            return false;
        auto pending = inbox_.tryPop();
        if (!pending) {
            // About to block for this session's next request: commit
            // the deferred batch so its closed-loop client (and every
            // other tenant in the round) can observe completions and
            // keep the lockstep pipeline moving.
            flushBatch();
            pending = inbox_.pop();
            if (!pending)
                return false; // service stopping
        }
        inboxDepth_.fetch_sub(1, std::memory_order_relaxed);
        route(std::move(*pending));
    }
    return true;
}

void
ShardController::lockstepRound()
{
    // Serve the sessions open at the start of the round, in id order.
    // Each is granted `weight` requests and the round *waits* for them
    // (a closed-loop client always has one in flight, so the wait is
    // bounded by the client's own turnaround).
    auto round = sessionSnapshot();
    for (const auto &sp : round) {
        SessionState &s = *sp;
        if (s.closed || s.migratedAway)
            continue;
        unsigned budget = s.weight;
        while (budget > 0 && !s.closed && !s.migratedAway) {
            if (!waitFor(s))
                break;
            budget -= std::min(budget, serveHead(s, budget));
        }
        if (s.closed)
            dropSession(s);
    }
}

void
ShardController::sweep()
{
    // Work-conserving weighted round-robin: up to `weight` queued
    // requests per open session, never waiting for an idle one.
    auto round = sessionSnapshot();
    for (const auto &sp : round) {
        SessionState &s = *sp;
        if (s.closed || s.migratedAway)
            continue;
        unsigned budget = s.weight;
        while (budget > 0 && !s.closed && !s.migratedAway &&
               !s.fifo.empty()) {
            budget -= std::min(budget, serveHead(s, budget));
        }
        if (s.closed)
            dropSession(s);
    }
}

unsigned
ShardController::serveHead(SessionState &s, unsigned budget)
{
    // One serve step = one critical section against stat collectors:
    // everything below writes scheduler stats, session stats, or the
    // shard library's live stat groups.
    std::lock_guard<std::mutex> stats_lock(statsMutex_);
    Pending head = std::move(s.fifo.front());
    s.fifo.pop_front();
    if (head.control == Pending::Control::Close) {
        // Controls complete their own futures inline; the deferred
        // data ops ahead of them must commit and complete first.
        flushBatchLocked();
        closeSession(s, head);
        return 1;
    }
    if (head.control == Pending::Control::Drain) {
        flushBatchLocked();
        drainSession(s, head);
        return 1;
    }

    // Coalesce a run of same-direction extractions on the same range
    // into one batch: one trace/accounting envelope, back-to-back
    // device merges.
    std::vector<Pending> batch;
    batch.push_back(std::move(head));
    if (isExtraction(batch.front().req.kind)) {
        // Copy the match key: a reference into `batch` would dangle
        // once push_back reallocates it.
        const RequestKind kind = batch.front().req.kind;
        const Addr start = batch.front().req.start;
        const Addr end = batch.front().req.end;
        // Work-conserving mode widens the window past the round
        // budget up to the group-commit batch: a drained batch of
        // same-range extractions rides one envelope instead of one
        // per sweep.  Lockstep keeps the budget cap -- a round must
        // serve exactly the requests it waited for, or the device
        // order would depend on client pipelining instead of the
        // session scripts.
        const std::size_t cap = config_.deterministic
            ? budget
            : std::max<std::size_t>(budget, config_.batchOps);
        while (batch.size() < cap && !s.fifo.empty()) {
            const Pending &next = s.fifo.front();
            if (next.control != Pending::Control::Data ||
                next.req.kind != kind ||
                next.req.start != start ||
                next.req.end != end) {
                break;
            }
            batch.push_back(std::move(s.fifo.front()));
            s.fifo.pop_front();
        }
    }

    TraceSpan span("service", requestKindName(batch.front().req.kind));
    span.arg("shard", index_);
    span.arg("session", s.id);
    span.arg("batch",
             static_cast<std::uint64_t>(batch.size()));
    stats_.hist("batchSizeHost")
        .record(static_cast<double>(batch.size()));
    for (auto &pending : batch)
        serveOne(s, pending);
    return static_cast<unsigned>(batch.size());
}

void
ShardController::serveOne(SessionState &s, Pending &pending)
{
    const double queue_ns = hostNsSince(pending.enqueued);
    stats_.hist("queueWallNsHost").record(queue_ns);

    Response r = applyOp(s, pending.req);
    r.shardTick = lib_.now();
    r.queueWallNs = queue_ns;

    // Write-ahead discipline: the op reaches the journal before the
    // client can observe its completion, so every committed op is
    // journaled (the converse -- journaled but never acknowledged --
    // is resolved at recovery; see test_recovery.cc).  With a journal
    // the record is only *buffered* here and the future withheld: the
    // group commit makes the batch durable and completes them in
    // serve order (the quota slot is released there too, just before
    // each completion).
    journalOp(s, pending.req, r);
    // Withhold the completion (journal or not): completions then land
    // in clusters at the flush points, which is what lets the wire
    // tier ship a whole group of responses as one vectored write and
    // the client refill with one batched submit.  With a journal the
    // same flush is the group commit.
    deferred_.push_back({std::move(pending), std::move(r)});
    if (deferred_.size() >= config_.batchOps)
        flushBatchLocked();
}

void
ShardController::flushBatch()
{
    if (deferred_.empty() && !journal_.batchPending())
        return;
    std::lock_guard<std::mutex> lock(statsMutex_);
    flushBatchLocked();
}

void
ShardController::flushBatchLocked()
{
    if (deferred_.empty() && !journal_.batchPending())
        return;
    // One write + one fsync covers the whole batch (group commit);
    // crashing before this line loses only never-acknowledged ops.
    journal_.commitBatch();
    if (!deferred_.empty()) {
        // Realized batch sizes depend on client pipelining and host
        // timing, so the counters are Host-suffixed (excluded from
        // deterministic dumps).
        stats_.inc("groupCommitsHost");
        stats_.hist("commitBatchOpsHost")
            .record(static_cast<double>(deferred_.size()));
    }
    // Fulfil every future first, then fire the notifies.  A notify
    // wakes the wire server's event loop, and on a loaded (or single
    // core) host the scheduler may preempt this thread for the woken
    // one right there: notifying per completion would let the loop
    // harvest a one-response dribble and the group the batch was
    // built for fragments back to singles.  With the split, whoever
    // wakes finds the whole batch ready.
    std::vector<std::function<void()>> notifies;
    notifies.reserve(deferred_.size());
    for (auto &d : deferred_) {
        // Slot before future, as in finish().
        d.pending.session->inFlight.fetch_sub(
            1, std::memory_order_release);
        if (d.pending.notify)
            notifies.push_back(std::move(d.pending.notify));
    }
    // Fulfil newest-first: a pipelining caller blocks on its oldest
    // future, so completing that one last means its waiter -- which
    // may preempt this thread the instant it becomes runnable --
    // finds the whole batch ready and drains (then resubmits) it as
    // a group.  Within one commit the promises are independent, so
    // the order carries no meaning.
    for (auto it = deferred_.rbegin(); it != deferred_.rend(); ++it)
        it->pending.promise.set_value(std::move(it->response));
    deferred_.clear();
    for (const auto &notify : notifies)
        notify();
    // Snapshots cover only committed sequences, so the cadence check
    // runs at commit time, not per buffered record.
    maybeSnapshot();
}

Response
ShardController::applyOp(SessionState &s, const Request &req)
{
    stats_.inc("requests");
    s.stats.inc("requests");
    Response r;
    if (req.deadline != 0 && lib_.now() >= req.deadline) {
        // Expired against the shard's *simulated* clock: never touches
        // the device, and replays deterministically under lockstep.
        r.status = ServiceStatus::DeadlineExpired;
        stats_.inc("deadlineExpired");
        s.stats.inc("deadlineExpired");
        return r;
    }
    r.status = ServiceStatus::Ok;
    switch (req.kind) {
      case RequestKind::Malloc: {
        auto addr = lib_.rimeMalloc(req.bytes);
        if (!addr) {
            r.status = ServiceStatus::OutOfMemory;
            break;
        }
        if (s.addrTranslate.empty()) {
            // Never migrated: client addresses are shard-local.
            r.addr = *addr;
        } else {
            // Migrated: existing client bases shadow local addresses,
            // so hand out an alias and map it (replay recomputes the
            // cursor identically, keeping the alias deterministic).
            r.addr = kAliasBase + s.nextAliasOffset;
            s.nextAliasOffset += req.bytes;
            s.addrTranslate[r.addr] = {*addr, req.bytes};
        }
        s.allocations.insert(r.addr);
        stats_.inc("mallocs");
        break;
      }
      case RequestKind::Free: {
        if (!s.allocations.count(req.start)) {
            r.status = ServiceStatus::Rejected;
            r.reject = RejectReason::NotOwner;
            stats_.inc("rejectedNotOwner");
            break;
        }
        const Addr local = localBase(s, req.start);
        const std::uint64_t size =
            lib_.driver().allocationSize(local);
        std::erase_if(s.initedRanges, [&](const auto &range) {
            return range.first < req.start + size &&
                req.start < range.second;
        });
        std::erase_if(s.extractProgress, [&](const auto &entry) {
            return std::get<0>(entry.first) < req.start + size &&
                req.start < std::get<1>(entry.first);
        });
        lib_.rimeFree(local);
        s.allocations.erase(req.start);
        s.addrTranslate.erase(req.start);
        stats_.inc("frees");
        break;
      }
      case RequestKind::Init: {
        const bool reconfigures =
            lib_.device().wordBits() != req.wordBits ||
            lib_.device().mode() != req.mode;
        if (reconfigures && othersHaveInits(s)) {
            // rimeInit with a new word width or type mode reconfigures
            // the whole device and discards every live operation --
            // including other tenants'.  Shed instead of corrupting.
            r.status = ServiceStatus::Rejected;
            r.reject = RejectReason::Reconfiguration;
            stats_.inc("rejectedReconfiguration");
            break;
        }
        if (req.end > req.start && !ownsRange(s, req.start, req.end)) {
            r.status = ServiceStatus::Rejected;
            r.reject = RejectReason::NotOwner;
            stats_.inc("rejectedNotOwner");
            break;
        }
        Addr start = req.start, end = req.end;
        xlateRange(s, start, end);
        lib_.rimeInit(start, end, req.mode, req.wordBits);
        if (req.end > req.start) {
            s.initedRanges.insert({req.start, req.end});
            // A re-init resets the range's exclusion state: the
            // extraction stream starts over.
            std::erase_if(s.extractProgress, [&](const auto &entry) {
                return std::get<0>(entry.first) < req.end &&
                    req.start < std::get<1>(entry.first);
            });
        }
        stats_.inc("inits");
        break;
      }
      case RequestKind::StoreArray: {
        const Addr end = req.start +
            static_cast<Addr>(req.values.size()) * lib_.wordBytes();
        if (!ownsRange(s, req.start, end)) {
            r.status = ServiceStatus::Rejected;
            r.reject = RejectReason::NotOwner;
            stats_.inc("rejectedNotOwner");
            break;
        }
        lib_.storeArray(xlateAddr(s, req.start), req.values);
        stats_.inc("stores");
        break;
      }
      case RequestKind::Min:
      case RequestKind::Max: {
        if (!ownsRange(s, req.start, req.end)) {
            r.status = ServiceStatus::Rejected;
            r.reject = RejectReason::NotOwner;
            stats_.inc("rejectedNotOwner");
            break;
        }
        const bool find_max = req.kind == RequestKind::Max;
        Addr start = req.start, end = req.end;
        xlateRange(s, start, end);
        const RimeExtract e = find_max
            ? lib_.rimeMaxChecked(start, end)
            : lib_.rimeMinChecked(start, end);
        r.status = fromRimeStatus(e.status);
        if (e.ok()) {
            r.items.push_back(e.item);
            stats_.inc("extractItems");
            s.stats.inc("extractItems");
            ++s.extractProgress[{req.start, req.end, find_max}];
        }
        break;
      }
      case RequestKind::TopK:
      case RequestKind::Sort: {
        if (!ownsRange(s, req.start, req.end)) {
            r.status = ServiceStatus::Rejected;
            r.reject = RejectReason::NotOwner;
            stats_.inc("rejectedNotOwner");
            break;
        }
        const bool largest =
            req.kind == RequestKind::TopK && req.largest;
        Addr start = req.start, end = req.end;
        xlateRange(s, start, end);
        // The range can never produce more than its word capacity, so
        // cap the reservation there: `count` is client-supplied and an
        // absurd TopK ask must not bad_alloc the controller thread.
        const std::uint64_t capacity =
            (req.end - req.start) / lib_.wordBytes();
        std::uint64_t count = req.count;
        if (req.kind == RequestKind::Sort)
            count = capacity;
        r.items.reserve(std::min(count, capacity));
        for (std::uint64_t i = 0; i < count; ++i) {
            const RimeExtract e = largest
                ? lib_.rimeMaxChecked(start, end)
                : lib_.rimeMinChecked(start, end);
            if (!e.ok()) {
                // Partial prefix stays in items; the status tells the
                // client why the stream ended early.
                r.status = fromRimeStatus(e.status);
                break;
            }
            r.items.push_back(e.item);
        }
        stats_.inc("extractItems",
                   static_cast<double>(r.items.size()));
        s.stats.inc("extractItems",
                    static_cast<double>(r.items.size()));
        if (!r.items.empty()) {
            s.extractProgress[{req.start, req.end, largest}] +=
                r.items.size();
        }
        break;
      }
      case RequestKind::Health: {
        r.health = lib_.rimeHealth();
        r.allocatedBytes = lib_.driver().allocatedBytes();
        break;
      }
    }
    return r;
}

bool
ShardController::ownsRange(const SessionState &s, Addr start, Addr end)
{
    if (end < start)
        return false;
    for (const Addr base : s.allocations) {
        const std::uint64_t size =
            lib_.driver().allocationSize(localBase(s, base));
        if (start >= base && end <= base + size)
            return true;
    }
    return false;
}

Addr
ShardController::localBase(const SessionState &s, Addr base) const
{
    const auto it = s.addrTranslate.find(base);
    return it == s.addrTranslate.end() ? base : it->second.local;
}

Addr
ShardController::xlateAddr(const SessionState &s, Addr addr) const
{
    if (s.addrTranslate.empty())
        return addr;
    auto it = s.addrTranslate.upper_bound(addr);
    if (it == s.addrTranslate.begin())
        return addr;
    --it;
    if (addr < it->first + it->second.bytes)
        return it->second.local + (addr - it->first);
    return addr;
}

void
ShardController::xlateRange(const SessionState &s, Addr &start,
                            Addr &end) const
{
    if (s.addrTranslate.empty() || end < start)
        return;
    auto it = s.addrTranslate.upper_bound(start);
    if (it == s.addrTranslate.begin())
        return;
    --it;
    // Whole-range containment; an exclusive `end` may sit exactly on
    // the allocation boundary.
    if (start >= it->first && end <= it->first + it->second.bytes) {
        start = it->second.local + (start - it->first);
        end = it->second.local + (end - it->first);
    }
}

bool
ShardController::othersHaveInits(const SessionState &s) const
{
    std::lock_guard<std::mutex> lock(sessionsMutex_);
    for (const auto &other : sessions_) {
        if (other.get() != &s && !other->closed &&
            !other->initedRanges.empty()) {
            return true;
        }
    }
    return false;
}

void
ShardController::releaseSession(SessionState &s)
{
    // The allocator retires any operation state on the ranges.
    for (const Addr base : s.allocations)
        lib_.rimeFree(localBase(s, base));
    s.allocations.clear();
    s.initedRanges.clear();
    s.addrTranslate.clear();
    s.extractProgress.clear();
}

void
ShardController::closeSession(SessionState &s, Pending &pending)
{
    releaseSession(s);
    s.closed = true;
    stats_.inc("closes");

    // Journaled only for sessions the journal knows: a session that
    // closed without a single journaled op never existed durably.
    if (journal_.active() && s.journalOpened) {
        JournalRecord rec;
        rec.kind = JournalRecordKind::SessionClose;
        rec.sessionId = s.id;
        appendRecord(rec);
        journal_.commitBatch();
        maybeSnapshot();
    }

    // Requests the session still had queued behind the close.
    for (auto &queued : s.fifo)
        finish(queued, statusOnly(ServiceStatus::Closed));
    s.fifo.clear();

    Response done = statusOnly(ServiceStatus::Ok);
    done.shardTick = lib_.now();
    finish(pending, std::move(done));
}

void
ShardController::drainSession(SessionState &s, Pending &pending)
{
    if (s.closed || s.migratedAway) {
        finish(pending, statusOnly(ServiceStatus::Closed));
        return;
    }

    // Serialize the session *before* anything is released, and
    // journal the image with the Migrated record: a crash anywhere in
    // the hand-off window recovers the session from whichever side's
    // record landed (the service re-homes orphans; see
    // takeOrphanedMigrations).
    const SessionImage image = buildImage(s);
    std::vector<std::uint8_t> encoded = encodeSessionImage(image);
    if (journal_.active()) {
        journalSessionOpenIfNeeded(s);
        JournalRecord rec;
        rec.kind = JournalRecordKind::Migrated;
        rec.sessionId = s.id;
        rec.image = encoded;
        appendRecord(rec);
        journal_.commitBatch();
    }

    releaseSession(s);
    s.migratedAway = true;
    stats_.inc("drains");

    // Requests queued behind the drain belong to the session's next
    // home; shed them so the clients retry after the re-home.
    for (auto &queued : s.fifo) {
        rejectedDraining_.fetch_add(1, std::memory_order_relaxed);
        finish(queued, statusOnly(ServiceStatus::Rejected,
                                  RejectReason::Draining));
    }
    s.fifo.clear();
    dropSession(s);

    Response r = statusOnly(ServiceStatus::Ok);
    r.shardTick = lib_.now();
    r.image = std::move(encoded);
    finish(pending, std::move(r));
}

bool
ShardController::installVetoed(const SessionState &s,
                               const SessionImage &image) const
{
    const bool reconfigures =
        lib_.device().wordBits() != image.wordBytes * 8 ||
        lib_.device().mode() != image.mode;
    return reconfigures && othersHaveInits(s);
}

void
ShardController::adoptImage(std::shared_ptr<SessionState> state,
                            const SessionImage &image,
                            std::vector<std::uint8_t> encoded)
{
    SessionState &s = *state;
    installFromImage(s, image, /*fresh_alloc=*/true);
    s.migratedAway = false;
    // The Install record carries the session metadata, so no separate
    // SessionOpen is due on this shard.
    s.journalOpened = true;
    stats_.inc("installs");
    if (journal_.active()) {
        JournalRecord rec;
        rec.kind = JournalRecordKind::Install;
        rec.sessionId = s.id;
        rec.image = std::move(encoded);
        appendRecord(rec);
        journal_.commitBatch();
    }
    // Registered before any snapshot can run, so the snapshot that
    // covers the Install record also holds the session.
    registerSession(std::move(state));
}

void
ShardController::installSession(SessionState &s, Pending &pending)
{
    SessionImage image;
    if (!decodeSessionImage(pending.image, image)) {
        fatal("shard %u: undecodable migration image for session "
              "%llu", index_,
              static_cast<unsigned long long>(s.id));
    }
    if (installVetoed(s, image)) {
        // The service must pick another peer.
        stats_.inc("rejectedReconfiguration");
        finish(pending, statusOnly(ServiceStatus::Rejected,
                                   RejectReason::Reconfiguration));
        return;
    }
    adoptImage(pending.session, image, std::move(pending.image));
    maybeSnapshot();

    Response r = statusOnly(ServiceStatus::Ok);
    r.shardTick = lib_.now();
    finish(pending, std::move(r));
}

bool
ShardController::installRecovered(std::shared_ptr<SessionState> state,
                                  const SessionImage &image)
{
    if (installVetoed(*state, image))
        return false;
    adoptImage(std::move(state), image, encodeSessionImage(image));
    return true;
}

// ----------------------------------------------------------------------
// Durability: journaling, snapshots, recovery
// ----------------------------------------------------------------------

void
ShardController::appendRecord(JournalRecord &record)
{
    record.seq = ++journalSeq_;
    journal_.bufferAppend(record.seq, encodeRecord(record));
    ++opsSinceSnapshot_;
}

void
ShardController::journalSessionOpenIfNeeded(SessionState &s)
{
    if (s.journalOpened || !journal_.active())
        return;
    s.journalOpened = true;
    JournalRecord rec;
    rec.kind = JournalRecordKind::SessionOpen;
    rec.sessionId = s.id;
    rec.tenant = s.tenant;
    rec.weight = s.weight;
    rec.maxInFlight = s.maxInFlight;
    appendRecord(rec);
}

void
ShardController::journalOp(SessionState &s, const Request &req,
                           const Response &r)
{
    if (!journal_.active())
        return;
    journalSessionOpenIfNeeded(s);
    JournalRecord rec;
    rec.kind = JournalRecordKind::Op;
    rec.sessionId = s.id;
    rec.req = req;
    rec.status = r.status;
    rec.resultAddr = r.addr;
    // Buffered, not committed: the group commit (flushBatch) writes
    // the batch, fsyncs once, and checks the snapshot cadence.
    appendRecord(rec);
}

void
ShardController::maybeSnapshot()
{
    if (!journal_.active() || durability_.snapshotIntervalOps == 0 ||
        durability_.snapshotPath.empty() ||
        opsSinceSnapshot_ < durability_.snapshotIntervalOps) {
        return;
    }
    writeSnapshot();
}

void
ShardController::writeSnapshot()
{
    ShardSnapshot snap;
    snap.seq = journalSeq_;
    snap.tick = lib_.now();
    snap.wordBits = lib_.device().wordBits();
    snap.mode = lib_.device().mode();
    {
        BitWriter w;
        lib_.driver().dumpState(w);
        snap.driverState = w.take();
    }
    for (const auto &sp : sessionSnapshot()) {
        if (sp->closed || sp->migratedAway)
            continue;
        snap.sessions.push_back(buildImage(*sp));
    }
    writeSnapshotFile(durability_.snapshotPath, snap,
                      durability_.fsyncEveryAppend);
    JournalRecord rec;
    rec.kind = JournalRecordKind::SnapshotMark;
    appendRecord(rec);
    journal_.commitBatch();
    opsSinceSnapshot_ = 0;
    stats_.inc("snapshotsHost");
}

SessionImage
ShardController::buildImage(SessionState &s)
{
    SessionImage image;
    image.id = s.id;
    image.tenant = s.tenant;
    image.weight = s.weight;
    image.maxInFlight = s.maxInFlight;
    image.closed = s.closed.load(std::memory_order_relaxed);
    image.wordBytes = lib_.wordBytes();
    image.mode = lib_.device().mode();
    image.nextAliasOffset = s.nextAliasOffset;
    for (const Addr base : s.allocations) {
        SessionImage::Allocation alloc;
        alloc.addr = base;
        alloc.localAddr = localBase(s, base);
        alloc.bytes = lib_.driver().allocationSize(alloc.localAddr);
        const std::uint64_t words = alloc.bytes / lib_.wordBytes();
        alloc.values.reserve(words);
        for (std::uint64_t i = 0; i < words; ++i) {
            alloc.values.push_back(
                lib_.peekWord(alloc.localAddr + i * lib_.wordBytes()));
        }
        image.allocations.push_back(std::move(alloc));
    }
    image.initedRanges.assign(s.initedRanges.begin(),
                              s.initedRanges.end());
    for (const auto &[key, items] : s.extractProgress) {
        if (items == 0)
            continue;
        SessionImage::Progress p;
        p.start = std::get<0>(key);
        p.end = std::get<1>(key);
        p.findMax = std::get<2>(key);
        p.items = items;
        image.progress.push_back(p);
    }
    return image;
}

void
ShardController::installFromImage(SessionState &s,
                                  const SessionImage &image,
                                  bool fresh_alloc)
{
    s.allocations.clear();
    s.initedRanges.clear();
    s.addrTranslate.clear();
    s.extractProgress.clear();
    s.nextAliasOffset = image.nextAliasOffset;

    const unsigned want_bits = image.wordBytes * 8;
    if (lib_.device().wordBits() != want_bits ||
        lib_.device().mode() != image.mode) {
        // The values were peeked at the image's word geometry; match
        // it before storing them (installSession already vetoed the
        // reconfiguration when other tenants hold live operations).
        lib_.restoreConfigure(image.mode, want_bits);
    }

    for (const auto &alloc : image.allocations) {
        Addr local = alloc.localAddr;
        if (fresh_alloc) {
            const auto got = lib_.rimeMalloc(alloc.bytes);
            if (!got) {
                fatal("shard %u: no room to install session %llu "
                      "(%llu-byte allocation)", index_,
                      static_cast<unsigned long long>(image.id),
                      static_cast<unsigned long long>(alloc.bytes));
            }
            local = *got;
            if (!alloc.values.empty())
                lib_.storeArray(local, alloc.values);
        } else {
            // The restored driver already holds the extent; put the
            // words back in place without clock or wear side effects.
            for (std::uint64_t i = 0; i < alloc.values.size(); ++i) {
                lib_.pokeWord(local + i * image.wordBytes,
                              alloc.values[i]);
            }
        }
        s.allocations.insert(alloc.addr);
        if (local != alloc.addr)
            s.addrTranslate[alloc.addr] = {local, alloc.bytes};
    }

    for (const auto &[cstart, cend] : image.initedRanges) {
        Addr start = cstart, end = cend;
        xlateRange(s, start, end);
        lib_.rimeInit(start, end, image.mode, want_bits);
        s.initedRanges.insert({cstart, cend});
    }

    // Re-consume each range's recorded extraction count: this rebuilds
    // the exclusion state, so the next extraction continues exactly
    // where the stream stopped.
    for (const auto &p : image.progress) {
        Addr start = p.start, end = p.end;
        xlateRange(s, start, end);
        for (std::uint64_t i = 0; i < p.items; ++i) {
            const RimeExtract e = p.findMax
                ? lib_.rimeMaxChecked(start, end)
                : lib_.rimeMinChecked(start, end);
            if (!e.ok()) {
                fatal("shard %u: session %llu extraction stream "
                      "drained at %llu/%llu while restoring "
                      "[%llx, %llx)", index_,
                      static_cast<unsigned long long>(image.id),
                      static_cast<unsigned long long>(i),
                      static_cast<unsigned long long>(p.items),
                      static_cast<unsigned long long>(p.start),
                      static_cast<unsigned long long>(p.end));
            }
        }
        s.extractProgress[{p.start, p.end, p.findMax}] = p.items;
    }
}

void
ShardController::recover()
{
    JournalScan scan = readJournal(durability_.journalPath);
    if (scan.tail != FrameStatus::End) {
        // Torn or corrupt tail: drop it now so the bytes appended
        // after reopening stay readable by the next recovery.
        warn("shard %u: journal tail %s after %zu records; "
             "truncating to %zu bytes", index_,
             scan.tail == FrameStatus::Truncated ? "truncated"
                                                 : "corrupt",
             scan.records.size(), scan.cleanBytes);
        if (::truncate(durability_.journalPath.c_str(),
                       static_cast<off_t>(scan.cleanBytes)) != 0) {
            fatal("shard %u: cannot truncate torn journal '%s'",
                  index_, durability_.journalPath.c_str());
        }
    }

    std::uint64_t from = 0;
    std::uint64_t last_mark = 0;
    if (durability_.recoveryMode == RecoveryMode::Snapshot &&
        !durability_.snapshotPath.empty()) {
        ShardSnapshot snap;
        if (readSnapshotFile(durability_.snapshotPath, snap)) {
            restoreFromSnapshot(snap);
            from = snap.seq;
            last_mark = snap.seq;
        }
    }
    replayRecords(scan.records, from);

    journalSeq_ = std::max(scan.lastSeq, from);
    for (const auto &rec : scan.records) {
        if (rec.kind == JournalRecordKind::SnapshotMark)
            last_mark = std::max(last_mark, rec.seq);
    }
    // Sequence numbers are consecutive, so the gap counts the records
    // appended since the last snapshot opportunity.
    opsSinceSnapshot_ =
        journalSeq_ > last_mark ? journalSeq_ - last_mark : 0;
}

void
ShardController::restoreFromSnapshot(const ShardSnapshot &snapshot)
{
    lib_.restoreConfigure(snapshot.mode, snapshot.wordBits);
    {
        BitReader r(snapshot.driverState);
        if (!lib_.driver().restoreState(r)) {
            fatal("shard %u: snapshot '%s' has an unusable driver "
                  "state dump", index_,
                  durability_.snapshotPath.c_str());
        }
    }
    for (const auto &image : snapshot.sessions) {
        auto s = makeSessionState(image.id, image.tenant, image.weight,
                                  image.maxInFlight);
        s->journalOpened = true;
        installFromImage(*s, image, /*fresh_alloc=*/false);
        registerSession(std::move(s));
    }
    // The poke/re-init/re-extract sequence above advanced the clock;
    // the snapshot's tick is authoritative, so restore it last.
    lib_.restoreClock(snapshot.tick);
}

SessionState &
ShardController::replaySession(std::uint64_t id)
{
    std::lock_guard<std::mutex> lock(sessionsMutex_);
    // Latest match wins: a session that migrated away and later
    // migrated back exists twice, and records bind to the newest.
    for (auto it = sessions_.rbegin(); it != sessions_.rend(); ++it) {
        if ((*it)->id == id)
            return **it;
    }
    fatal("shard %u: journal names unknown session %llu", index_,
          static_cast<unsigned long long>(id));
}

void
ShardController::replayRecords(
    const std::vector<JournalRecord> &records, std::uint64_t fromSeq)
{
    for (const auto &rec : records) {
        if (rec.seq <= fromSeq)
            continue;
        switch (rec.kind) {
          case JournalRecordKind::SessionOpen: {
            auto s = makeSessionState(rec.sessionId, rec.tenant,
                                      rec.weight, rec.maxInFlight);
            s->journalOpened = true;
            registerSession(std::move(s));
            break;
          }
          case JournalRecordKind::Op: {
            const Response r =
                applyOp(replaySession(rec.sessionId), rec.req);
            if (r.status != rec.status) {
                fatal("shard %u: replay diverged at seq %llu (%s): "
                      "status %s, journal says %s", index_,
                      static_cast<unsigned long long>(rec.seq),
                      requestKindName(rec.req.kind),
                      serviceStatusName(r.status),
                      serviceStatusName(rec.status));
            }
            if (rec.req.kind == RequestKind::Malloc &&
                rec.status == ServiceStatus::Ok &&
                r.addr != rec.resultAddr) {
                fatal("shard %u: replay diverged at seq %llu: malloc "
                      "returned %llx, journal says %llx", index_,
                      static_cast<unsigned long long>(rec.seq),
                      static_cast<unsigned long long>(r.addr),
                      static_cast<unsigned long long>(rec.resultAddr));
            }
            break;
          }
          case JournalRecordKind::SessionClose: {
            SessionState &s = replaySession(rec.sessionId);
            releaseSession(s);
            s.closed = true;
            stats_.inc("closes");
            break;
          }
          case JournalRecordKind::Migrated: {
            SessionState &s = replaySession(rec.sessionId);
            releaseSession(s);
            s.migratedAway = true;
            // Where the live drain drops the session from the sweep,
            // replay keeps it (its stat group belongs in the dump) and
            // marks it closed instead.
            s.closed = true;
            stats_.inc("drains");
            // Kept as a re-home candidate: the service checks whether
            // the matching Install landed on some peer.
            SessionImage image;
            if (!decodeSessionImage(rec.image, image)) {
                fatal("shard %u: undecodable migration image at seq "
                      "%llu", index_,
                      static_cast<unsigned long long>(rec.seq));
            }
            orphanedMigrations_.push_back(std::move(image));
            break;
          }
          case JournalRecordKind::Install: {
            SessionImage image;
            if (!decodeSessionImage(rec.image, image)) {
                fatal("shard %u: undecodable install image at seq "
                      "%llu", index_,
                      static_cast<unsigned long long>(rec.seq));
            }
            // No veto: the original install already passed it.  The
            // journal is not open yet, so nothing is re-appended.
            adoptImage(makeSessionState(rec.sessionId, image.tenant,
                                        image.weight,
                                        image.maxInFlight),
                       image, {});
            break;
          }
          case JournalRecordKind::SnapshotMark:
            stats_.inc("snapshotsHost");
            break;
        }
    }
}

void
ShardController::collectStats(
    StatRegistry &out, const std::string &base,
    const std::vector<std::shared_ptr<SessionState>> &sessions) const
{
    std::lock_guard<std::mutex> lock(statsMutex_);
    StatGroup scheduler;
    scheduler.merge(stats_);
    // The shed counters are bumped by client threads losing races, so
    // they are host-scheduling dependent by construction.
    scheduler.set("rejectedBackpressureHost",
                  static_cast<double>(rejectedBackpressure()));
    scheduler.set("rejectedQuotaHost",
                  static_cast<double>(rejectedQuota()));
    scheduler.set("rejectedDrainingHost",
                  static_cast<double>(rejectedDraining()));
    out.mergeGroup(base, scheduler);
    out.mergeRegistry(lib_.statRegistry(), base + ".");
    for (const auto &state : sessions) {
        out.mergeGroup("service.tenant." + state->tenant + ".s" +
                           std::to_string(state->id),
                       state->stats);
    }
}

void
ShardController::failAllPending()
{
    // Shutdown: commit and complete the deferred batch first -- those
    // ops executed and their records are buffered; their clients get
    // real results, not Closed.
    flushBatch();
    // The inbox is closed and drained; complete whatever is still
    // parked in session FIFOs so no client blocks forever.
    auto round = sessionSnapshot();
    for (const auto &sp : round) {
        for (auto &queued : sp->fifo) {
            const bool close = queued.control == Pending::Control::Close;
            if (close)
                sp->closed = true;
            finish(queued, statusOnly(close ? ServiceStatus::Ok
                                            : ServiceStatus::Closed));
        }
        sp->fifo.clear();
        sp->closed = true;
    }
}

} // namespace rime::service
