#include "service.hh"

#include <algorithm>
#include <chrono>
#include <map>
#include <sstream>
#include <thread>
#include <utility>

#include "common/env.hh"
#include "common/logging.hh"

namespace rime::service
{

// ----------------------------------------------------------------------
// Session
// ----------------------------------------------------------------------

Session::Session(std::shared_ptr<SessionState> state,
                 std::shared_ptr<const bool> alive)
    : state_(std::move(state)), serviceAlive_(std::move(alive))
{
}

ShardController *
Session::controller() const
{
    // Bounded park: a failover usually re-homes a session in well
    // under this, and a submit that overruns it is shed (Draining) by
    // whichever controller it reaches, never blocked indefinitely.
    for (unsigned spin = 0;
         spin < 200 &&
         state_->migrating.load(std::memory_order_acquire);
         ++spin) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return state_->controller.load(std::memory_order_acquire);
}

Session::~Session()
{
    close();
}

std::future<Response>
Session::ready(ServiceStatus status, RejectReason reason)
{
    std::promise<Response> promise;
    Response r;
    r.status = status;
    r.reject = reason;
    promise.set_value(std::move(r));
    return promise.get_future();
}

std::future<Response>
Session::submit(Request req)
{
    std::vector<Request> one;
    one.push_back(std::move(req));
    return std::move(submitBatch(std::move(one)).front());
}

std::vector<std::future<Response>>
Session::submitBatch(std::vector<Request> reqs,
                     std::function<void()> notify)
{
    std::vector<std::future<Response>> out;
    out.reserve(reqs.size());
    if (state_->clientClosing.load(std::memory_order_acquire) ||
        serviceAlive_.expired()) {
        for (std::size_t i = 0; i < reqs.size(); ++i)
            out.push_back(ready(ServiceStatus::Closed,
                                RejectReason::None));
        return out;
    }

    ShardController *shard = controller();

    // Per-request quota claims: over quota is shed *here*, before the
    // request can occupy shard queue space.
    std::vector<SessionState::Pending> batch;
    batch.reserve(reqs.size());
    const auto now = std::chrono::steady_clock::now();
    for (auto &req : reqs) {
        if (state_->inFlight.fetch_add(1, std::memory_order_acq_rel)
            >= state_->maxInFlight) {
            state_->inFlight.fetch_sub(1, std::memory_order_release);
            shard->countQuotaReject();
            out.push_back(ready(ServiceStatus::Rejected,
                                RejectReason::QuotaExceeded));
            continue;
        }
        SessionState::Pending pending;
        pending.control = SessionState::Pending::Control::Data;
        pending.req = std::move(req);
        pending.session = state_;
        pending.notify = notify;
        pending.enqueued = now;
        out.push_back(pending.promise.get_future());
        batch.push_back(std::move(pending));
    }

    // One queue lock, one consumer wakeup for the accepted prefix.
    // Queue full: the overflow suffix's slots go back and the caller
    // learns immediately.  Nothing ever blocks waiting for the device.
    const std::size_t accepted =
        batch.empty() ? 0 : shard->submitDataBatch(batch);
    for (std::size_t i = accepted; i < batch.size(); ++i) {
        state_->inFlight.fetch_sub(1, std::memory_order_release);
        Response r;
        r.status = ServiceStatus::Rejected;
        r.reject = RejectReason::Backpressure;
        batch[i].promise.set_value(std::move(r));
    }
    return out;
}

std::future<Response>
Session::malloc(std::uint64_t bytes)
{
    Request req;
    req.kind = RequestKind::Malloc;
    req.bytes = bytes;
    return submit(std::move(req));
}

std::future<Response>
Session::free(Addr start)
{
    Request req;
    req.kind = RequestKind::Free;
    req.start = start;
    return submit(std::move(req));
}

std::future<Response>
Session::init(Addr start, Addr end, KeyMode mode, unsigned word_bits)
{
    Request req;
    req.kind = RequestKind::Init;
    req.start = start;
    req.end = end;
    req.mode = mode;
    req.wordBits = word_bits;
    return submit(std::move(req));
}

std::future<Response>
Session::storeArray(Addr start, std::vector<std::uint64_t> values)
{
    Request req;
    req.kind = RequestKind::StoreArray;
    req.start = start;
    req.values = std::move(values);
    return submit(std::move(req));
}

std::future<Response>
Session::min(Addr start, Addr end, Tick deadline)
{
    Request req;
    req.kind = RequestKind::Min;
    req.start = start;
    req.end = end;
    req.deadline = deadline;
    return submit(std::move(req));
}

std::future<Response>
Session::max(Addr start, Addr end, Tick deadline)
{
    Request req;
    req.kind = RequestKind::Max;
    req.start = start;
    req.end = end;
    req.deadline = deadline;
    return submit(std::move(req));
}

std::future<Response>
Session::topK(Addr start, Addr end, std::uint64_t count, bool largest)
{
    Request req;
    req.kind = RequestKind::TopK;
    req.start = start;
    req.end = end;
    req.count = count;
    req.largest = largest;
    return submit(std::move(req));
}

std::future<Response>
Session::sort(Addr start, Addr end)
{
    Request req;
    req.kind = RequestKind::Sort;
    req.start = start;
    req.end = end;
    return submit(std::move(req));
}

std::future<Response>
Session::health()
{
    Request req;
    req.kind = RequestKind::Health;
    return submit(std::move(req));
}

void
Session::close()
{
    if (closed_.exchange(true))
        return;
    state_->clientClosing.store(true, std::memory_order_release);
    if (serviceAlive_.expired())
        return; // the service already completed everything with Closed

    // A close racing a failover can reach the session's *old*
    // controller, which sheds it (Rejected/Draining); retry against
    // the re-homed session.  The close rides the same FIFO as the data
    // path, so it lands after everything already queued.
    for (unsigned attempt = 0; attempt < 3; ++attempt) {
        const Response r = controller()->control(
            SessionState::Pending::Control::Close, state_);
        if (r.status != ServiceStatus::Rejected ||
            r.reject != RejectReason::Draining) {
            return;
        }
    }
}

// ----------------------------------------------------------------------
// RimeService
// ----------------------------------------------------------------------

RimeService::RimeService(ServiceConfig config)
    : config_(std::move(config))
{
    if (config_.shards == 0)
        fatal("a RimeService needs at least one shard");
    if (!config_.placement)
        config_.placement = std::make_unique<RoundRobinPlacement>();
    if (!config_.durability.enabled())
        config_.durability = DurabilityConfig::fromEnv();
    // Group-commit batch override; explicit config is the fallback,
    // so benches sweeping the knob programmatically keep their value
    // unless the environment insists.
    config_.scheduler.batchOps = static_cast<std::size_t>(envU64(
        "RIME_BATCH_OPS",
        static_cast<std::uint64_t>(config_.scheduler.batchOps)));
    controllers_.reserve(config_.shards);
    for (unsigned i = 0; i < config_.shards; ++i) {
        ShardDurability durability;
        if (config_.durability.enabled()) {
            const std::string stem = config_.durability.dir +
                "/shard" + std::to_string(i);
            durability.journalPath = stem + ".journal";
            durability.snapshotPath = stem + ".snapshot";
            durability.snapshotIntervalOps =
                config_.durability.snapshotIntervalOps;
            durability.recoveryMode = config_.durability.recoveryMode;
            durability.fsyncEveryAppend =
                config_.durability.fsyncEveryAppend;
        }
        controllers_.push_back(std::make_unique<ShardController>(
            i, config_.library, config_.scheduler,
            std::move(durability)));
    }
    if (config_.durability.enabled())
        recoverSessions();
    if (!config_.scheduler.deterministic)
        start();
}

void
RimeService::recoverSessions()
{
    // Adopt every state the shards rebuilt -- closed and
    // migrated-away ones included, because their per-tenant stat
    // groups belong in the dump -- except the short-lived health
    // probes, which the live service forgets at close too.
    std::uint64_t max_id = 0;
    std::vector<std::shared_ptr<SessionState>> states;
    for (const auto &shard : controllers_) {
        for (auto &state : shard->recoveredStates()) {
            max_id = std::max(max_id, state->id);
            if (state->tenant == "_health")
                continue;
            states.push_back(std::move(state));
        }
    }
    {
        std::lock_guard<std::mutex> lock(sessionsMutex_);
        sessions_.insert(sessions_.end(), states.begin(),
                         states.end());
    }
    nextSessionId_.store(max_id + 1, std::memory_order_relaxed);

    // Re-home orphaned migrations: a Migrated record whose Install
    // never landed anywhere means the crash hit the hand-off window,
    // and the image in the record is the session's only copy.
    std::map<std::uint64_t, SessionImage> candidates;
    for (const auto &shard : controllers_) {
        for (auto &image : shard->takeOrphanedMigrations())
            candidates[image.id] = std::move(image);
    }
    for (auto &[id, image] : candidates) {
        bool covered = false;
        for (const auto &state : states) {
            if (state->id == id && !state->migratedAway) {
                covered = true;
                break;
            }
        }
        if (covered || image.closed)
            continue;
        auto state = makeSessionState(image.id, image.tenant,
                                      image.weight, image.maxInFlight);
        bool installed = false;
        for (const auto &shard : controllers_) {
            if (shard->installRecovered(state, image)) {
                installed = true;
                break;
            }
        }
        if (!installed) {
            // Journal state is intact (the Migrated record stays), so
            // a later restart with a compatible fleet can still adopt
            // the session.
            warn("session %llu: no shard can adopt its orphaned "
                 "migration; leaving it journaled",
                 static_cast<unsigned long long>(id));
            continue;
        }
        std::lock_guard<std::mutex> lock(sessionsMutex_);
        sessions_.push_back(std::move(state));
    }
}

std::vector<std::shared_ptr<Session>>
RimeService::recoveredSessions()
{
    std::vector<std::shared_ptr<Session>> out;
    std::lock_guard<std::mutex> lock(sessionsMutex_);
    for (const auto &state : sessions_) {
        if (state->closed.load(std::memory_order_acquire) ||
            state->migratedAway) {
            continue;
        }
        out.push_back(std::shared_ptr<Session>(
            new Session(state, alive_)));
    }
    return out;
}

RimeService::~RimeService()
{
    shutdown();
}

void
RimeService::start()
{
    if (started_)
        return;
    started_ = true;
    for (auto &shard : controllers_)
        shard->begin();
}

void
RimeService::shutdown()
{
    if (stopped_)
        return;
    stopped_ = true;
    // Expire the sessions' liveness token first: submits racing the
    // shutdown turn into immediate Closed completions.
    alive_.reset();
    for (auto &shard : controllers_)
        shard->stop();
}

std::vector<ShardLoad>
RimeService::loads() const
{
    std::vector<ShardLoad> loads;
    loads.reserve(controllers_.size());
    for (const auto &shard : controllers_) {
        loads.push_back(ShardLoad{shard->index(), shard->sessionCount(),
                                  shard->queueDepth(),
                                  shard->draining()});
    }
    return loads;
}

std::shared_ptr<Session>
RimeService::openSession(const SessionConfig &cfg)
{
    if (stopped_)
        fatal("openSession on a stopped RimeService");
    const std::uint64_t id =
        nextSessionId_.fetch_add(1, std::memory_order_relaxed);
    unsigned shard;
    if (cfg.shard >= 0) {
        shard = static_cast<unsigned>(cfg.shard);
        if (shard >= controllers_.size()) {
            fatal("session pinned to shard %u of a %zu-shard service",
                  shard, controllers_.size());
        }
    } else {
        // Keyed placement: identity = tenant + session id, so policies
        // that hash (ConsistentHashPlacement) spread a tenant's
        // sessions deterministically; policies that don't fall back to
        // their load-based place().
        const std::uint64_t key =
            placementHash(cfg.tenant) ^ placementMix(id);
        shard = config_.placement->place(loads(), key);
        if (shard >= controllers_.size()) {
            fatal("placement policy '%s' chose shard %u of %zu",
                  config_.placement->name(), shard,
                  controllers_.size());
        }
    }

    auto state =
        makeSessionState(id, cfg.tenant, cfg.weight, cfg.maxInFlight);
    controllers_[shard]->registerSession(state);
    {
        std::lock_guard<std::mutex> lock(sessionsMutex_);
        sessions_.push_back(state);
    }
    return std::shared_ptr<Session>(
        new Session(std::move(state), alive_));
}

Response
RimeService::probeShard(unsigned shard)
{
    SessionConfig cfg;
    cfg.tenant = "_health";
    cfg.shard = static_cast<int>(shard);
    auto probe = openSession(cfg);
    const Response r = probe->call(Request{});
    probe->close();
    {
        // Forget the probe's state: periodic health polling must
        // not grow sessions_ (and collectStats) without bound.
        // The shard side prunes its own list at close.
        std::lock_guard<std::mutex> lock(sessionsMutex_);
        std::erase_if(sessions_, [&](const auto &p) {
            return p == probe->state_;
        });
    }
    return r;
}

RimeHealthReport
RimeService::health()
{
    RimeHealthReport aggregate;
    for (unsigned i = 0; i < controllers_.size(); ++i) {
        const Response r = probeShard(i);
        if (!r.ok())
            continue; // shard stopping: report what we can
        aggregate.counts.degradedUnits += r.health.counts.degradedUnits;
        aggregate.counts.retiredUnits += r.health.counts.retiredUnits;
        aggregate.counts.deadUnits += r.health.counts.deadUnits;
        aggregate.counts.lostValues += r.health.counts.lostValues;
        aggregate.retiredBytes += r.health.retiredBytes;
    }
    return aggregate;
}

std::vector<std::uint8_t>
RimeService::drainImage(const std::shared_ptr<SessionState> &state,
                        unsigned from)
{
    Response r = controllers_[from]->control(
        SessionState::Pending::Control::Drain, state);
    if (!r.ok())
        return {};
    return std::move(r.image);
}

bool
RimeService::installImage(const std::shared_ptr<SessionState> &state,
                          const std::vector<std::uint8_t> &image,
                          unsigned first, unsigned count)
{
    for (unsigned offset = 0; offset < count; ++offset) {
        const unsigned pick = (first + offset) % shards();
        if (controllers_[pick]->draining())
            continue;
        // A shard vetoes (Rejected/Reconfiguration) a word geometry
        // that would re-mode other tenants' live operations; a stopped
        // one answers Closed.  Either way, try the next.  On success
        // the shard has already pinned the session.
        if (controllers_[pick]
                ->control(SessionState::Pending::Control::Install,
                          state, image)
                .ok()) {
            return true;
        }
    }
    return false;
}

bool
RimeService::migrateSession(
    const std::shared_ptr<SessionState> &state, unsigned from)
{
    // Park the client side first: submits spin on `migrating` instead
    // of racing the hand-off.
    state->migrating.store(true, std::memory_order_release);
    const std::vector<std::uint8_t> image = drainImage(state, from);
    bool moved = false;
    if (!image.empty()) {
        // Try every healthy peer; the image is journaled on the old
        // shard (Migrated record), so a crash here re-homes at next
        // recovery.
        moved = installImage(state, image, from + 1, shards() - 1);
        if (!moved) {
            warn("session %llu: drained off shard %u but no peer can "
                 "take it; recovery will re-home it from the journal",
                 static_cast<unsigned long long>(state->id), from);
        }
    }
    state->migrating.store(false, std::memory_order_release);
    return moved;
}

unsigned
RimeService::drainShard(unsigned shard)
{
    if (shard >= shards()) {
        fatal("drainShard(%u) on a %zu-shard service", shard,
              controllers_.size());
    }
    controllers_[shard]->setDraining();
    std::vector<std::shared_ptr<SessionState>> targets;
    {
        std::lock_guard<std::mutex> lock(sessionsMutex_);
        for (const auto &state : sessions_) {
            if (state->shard.load(std::memory_order_acquire) ==
                    shard &&
                !state->closed.load(std::memory_order_acquire)) {
                targets.push_back(state);
            }
        }
    }
    unsigned moved = 0;
    for (const auto &state : targets) {
        if (migrateSession(state, shard))
            ++moved;
    }
    return moved;
}

unsigned
RimeService::maintain()
{
    unsigned drained = 0;
    for (unsigned i = 0; i < shards(); ++i) {
        if (controllers_[i]->draining())
            continue;
        const Response r = probeShard(i);
        if (!r.ok())
            continue;
        if (r.health.counts.retiredUnits == 0 &&
            r.health.counts.deadUnits == 0) {
            continue;
        }
        bool peer = false;
        for (unsigned j = 0; j < shards(); ++j) {
            if (j != i && !controllers_[j]->draining()) {
                peer = true;
                break;
            }
        }
        if (!peer) {
            warn("shard %u is unhealthy but has no peer to drain to",
                 i);
            continue;
        }
        drainShard(i);
        ++drained;
    }
    return drained;
}

std::vector<std::uint8_t>
RimeService::drainSessionImage(std::uint64_t id)
{
    std::shared_ptr<SessionState> state;
    {
        std::lock_guard<std::mutex> lock(sessionsMutex_);
        for (const auto &s : sessions_) {
            if (s->id == id) {
                state = s;
                break;
            }
        }
    }
    if (!state || state->closed.load(std::memory_order_acquire))
        return {};

    // Park racing submits on `migrating` while the Drain control is in
    // flight; once it completes the session is gone from this instance
    // and late submits are shed (Rejected/Draining) by the old shard.
    state->migrating.store(true, std::memory_order_release);
    std::vector<std::uint8_t> image =
        drainImage(state, state->shard.load(std::memory_order_acquire));
    state->migrating.store(false, std::memory_order_release);
    // The state stays in sessions_ as migrated-away: its per-tenant
    // stat group belongs in dumps, and the journal's Migrated record
    // keeps the image recoverable if the peer install never lands.
    return image;
}

std::shared_ptr<Session>
RimeService::installSessionImage(const std::vector<std::uint8_t> &bytes)
{
    if (stopped_ || bytes.empty())
        return nullptr;
    SessionImage image;
    if (!decodeSessionImage(bytes, image) || image.closed)
        return nullptr;

    // Remap to a fresh local id: the draining instance's id space is
    // independent of ours and the image's id may already be taken.
    image.id = nextSessionId_.fetch_add(1, std::memory_order_relaxed);
    const std::vector<std::uint8_t> remapped =
        encodeSessionImage(image);

    auto state = makeSessionState(image.id, image.tenant, image.weight,
                                  image.maxInFlight);

    // Walk shards from the placement pick: a shard can veto the
    // install, so try every non-draining one deterministically.
    const std::uint64_t key =
        placementHash(image.tenant) ^ placementMix(image.id);
    const unsigned first =
        std::min(config_.placement->place(loads(), key),
                 shards() - 1);
    if (!installImage(state, remapped, first, shards()))
        return nullptr;
    {
        std::lock_guard<std::mutex> lock(sessionsMutex_);
        sessions_.push_back(state);
    }
    return std::shared_ptr<Session>(new Session(std::move(state), alive_));
}

void
RimeService::collectStats(StatRegistry &out) const
{
    std::vector<std::shared_ptr<SessionState>> all;
    {
        std::lock_guard<std::mutex> lock(sessionsMutex_);
        all = sessions_;
    }
    for (const auto &shard : controllers_) {
        std::vector<std::shared_ptr<SessionState>> pinned;
        for (const auto &state : all) {
            if (state->shard == shard->index())
                pinned.push_back(state);
        }
        shard->collectStats(
            out, "service.shard." + std::to_string(shard->index()),
            pinned);
    }
}

std::string
RimeService::statDumpJson(bool include_host) const
{
    StatRegistry registry;
    collectStats(registry);
    std::ostringstream os;
    registry.dumpJson(os, include_host);
    return os.str();
}

} // namespace rime::service
