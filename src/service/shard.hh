/**
 * @file
 * One shard of the RIME service: a RimeLibrary owned by a dedicated
 * controller thread that drains a bounded MPSC submission queue.
 *
 * The controller thread is the *only* thread that ever touches the
 * shard's RimeLibrary, so the shard's simulated clock advances only
 * there (the library's controller-affinity guard enforces this).
 * Client threads interact exclusively through the queue: tryPushBatch
 * on the data path (what does not fit is shed by the caller with
 * Rejected/Backpressure, the device is never blocked), pushBlocking
 * only for the close, drain and install controls (control()).
 *
 * Scheduling comes in two flavours:
 *
 *  - work-conserving (default): deficit weighted round-robin.  Each
 *    sweep grants every pinned session up to `weight` requests in
 *    session-id order and serves whatever is queued; nothing ever
 *    waits for an idle tenant.
 *
 *  - deterministic (lockstep): rounds serve exactly the sessions that
 *    are open, in session-id order, waiting for each session's next
 *    request (or its close) before moving on.  With closed-loop
 *    clients this makes the *order* in which requests reach the
 *    device -- and therefore the simulated clock, every deterministic
 *    stat, and every extraction latency histogram -- a pure function
 *    of the session scripts, independent of client thread count and
 *    of RIME_THREADS.  Reserved for reproducible replay; an idle
 *    open session stalls the round by design, and a session's clients
 *    must keep at least `weight` requests in flight (or close the
 *    session) because a round waits for the session's full budget
 *    before moving on.
 *
 * Consecutive extractions of one session on the same range and
 * direction are batched: one dequeue/trace/accounting envelope covers
 * the run, amortizing the per-request overhead over the multi-chip
 * merge the way the DIMM buffers amortize the scan setup.  Lockstep
 * caps the run at the session's round budget; work-conserving mode
 * widens it to SchedulerConfig::batchOps when that is larger, so a
 * drained batch of same-range extractions rides one envelope instead
 * of one per sweep.
 *
 * Journaled shards group-commit: a served op's record is buffered and
 * its future withheld until the batch commits (one journal write, one
 * fsync), amortizing the WAL cost across up to `batchOps` ops; the
 * controller commits whenever it would otherwise block for work, so
 * synchronous clients keep per-op latency and lockstep rounds never
 * deadlock on a withheld completion.
 */

#ifndef RIME_SERVICE_SHARD_HH
#define RIME_SERVICE_SHARD_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/bounded_queue.hh"
#include "common/stats.hh"
#include "rime/api.hh"
#include "service/journal.hh"
#include "service/request.hh"

namespace rime::service
{

class ShardController;

/** Scheduler tunables of one shard controller. */
struct SchedulerConfig
{
    /** Capacity of the shard's submission queue. */
    std::size_t queueCapacity = 256;
    /** Lockstep deterministic scheduling (see file comment). */
    bool deterministic = false;
    /**
     * Group-commit batch: how many served ops may accumulate --
     * journal records buffered, futures withheld -- before the batch
     * is committed with one write + one fsync and the futures
     * complete.  The controller also commits whenever it would block
     * for work, so a lone synchronous client still sees per-op
     * latency.  Execution order is untouched (ops run the moment they
     * are served); only journaling and acknowledgement are deferred,
     * so results and deterministic stats are bit-identical across
     * values.  Env override: RIME_BATCH_OPS (0 is clamped to 1).
     */
    std::size_t batchOps = 32;
};

/** Per-shard durability wiring (derived from DurabilityConfig). */
struct ShardDurability
{
    /** Write-ahead journal path; empty disables journaling. */
    std::string journalPath;
    /** Snapshot path (required when snapshots are enabled). */
    std::string snapshotPath;
    /** Journaled records between automatic snapshots (0 = never). */
    std::uint64_t snapshotIntervalOps = 0;
    RecoveryMode recoveryMode = RecoveryMode::Replay;
    bool fsyncEveryAppend = false;

    bool enabled() const { return !journalPath.empty(); }
};

/** Server-side state of one session (controller-owned fields). */
struct SessionState
{
    std::uint64_t id = 0;
    std::string tenant;
    unsigned weight = 1;
    unsigned maxInFlight = 8;
    /**
     * Shard the session is pinned to.  Atomic: failover re-homes a
     * session while service threads read the field for placement and
     * stat partitioning.
     */
    std::atomic<unsigned> shard{0};

    /**
     * Controller currently serving the session.  Client submits read
     * it lock-free; failover swaps it after the peer-side install.
     */
    std::atomic<ShardController *> controller{nullptr};
    /**
     * Session is mid-migration: submits park with bounded backoff
     * until the install on the new shard completes (see
     * Session::submit), then follow `controller`.
     */
    std::atomic<bool> migrating{false};

    /** Requests submitted but not yet completed (client + controller). */
    std::atomic<std::uint32_t> inFlight{0};
    /** Client called close(); further submits complete Closed. */
    std::atomic<bool> clientClosing{false};
    /**
     * Set by the controller once the close is served (or at shard
     * shutdown).  Atomic because client threads read it too, via
     * sessionCount() and the placement path.
     */
    std::atomic<bool> closed{false};

    // Everything below is touched only by the controller thread (or
    // by recovery/drain code running strictly before/after it).
    struct Pending;
    std::deque<Pending> fifo;
    /** Allocations owned by the session (client-visible bases). */
    std::set<Addr> allocations;
    /** Ranges the session has rime_init'ed (client-visible). */
    std::set<std::pair<Addr, Addr>> initedRanges;
    /**
     * Client-visible base -> shard-local backing extent, installed by
     * migration.  Empty = identity (the session never migrated).
     */
    struct Translation
    {
        Addr local = 0;
        std::uint64_t bytes = 0;
    };
    std::map<Addr, Translation> addrTranslate;
    /** Client-visible alias space cursor for post-migration mallocs. */
    std::uint64_t nextAliasOffset = 0;
    /**
     * Successful extractions consumed per (client range, direction)
     * since that range's last init: what a snapshot replays to
     * restore the exclusion state and operation stream position.
     */
    std::map<std::tuple<Addr, Addr, bool>, std::uint64_t>
        extractProgress;
    /** SessionOpen record already appended to this shard's journal. */
    bool journalOpened = false;
    /** Session left this shard via a served Drain (or its replay). */
    bool migratedAway = false;
    /** Per-tenant counters ("service.tenant.<t>.s<id>" at collect). */
    StatGroup stats;
};

/**
 * The one way to build a session's state from its metadata (client
 * open, journal replay, snapshot restore, failover and cross-process
 * install).  Weight and quota clamp to at least 1.  The shard and
 * controller fields are set when a shard registers the session.
 */
std::shared_ptr<SessionState> makeSessionState(std::uint64_t id,
                                               std::string tenant,
                                               unsigned weight,
                                               unsigned maxInFlight);

/** One queued unit of work. */
struct SessionState::Pending
{
    enum class Control : std::uint8_t { Data, Close, Drain, Install };

    Control control = Control::Data;
    Request req{};
    std::shared_ptr<SessionState> session;
    std::promise<Response> promise;
    /**
     * Invoked (if set) right after the promise completes, on whatever
     * thread completed it -- usually the controller.  Lets an event
     * loop (the wire server) learn of completions without parking a
     * thread on every future.  Must be cheap and non-blocking: it
     * runs inside the serve path.
     */
    std::function<void()> notify;
    std::chrono::steady_clock::time_point enqueued{};
    /** Install only: the encoded SessionImage to take over. */
    std::vector<std::uint8_t> image;
};

/** A RimeLibrary plus the controller thread serving it. */
class ShardController
{
  public:
    using Pending = SessionState::Pending;

    ShardController(unsigned index, const LibraryConfig &library,
                    const SchedulerConfig &scheduler,
                    ShardDurability durability = {});
    ~ShardController();

    ShardController(const ShardController &) = delete;
    ShardController &operator=(const ShardController &) = delete;

    unsigned index() const { return index_; }

    /** Release the controller (deterministic mode waits for this). */
    void begin();

    /** Close the queue, serve the tail, and join the controller. */
    void stop();

    /**
     * Pin a session to this shard: sets its `shard` and `controller`
     * and adds it to the sweep (session open, recovery, and after a
     * successful install).
     */
    void registerSession(std::shared_ptr<SessionState> session);

    /**
     * Data-path submit, the only one: push a prefix of `batch` with
     * one queue lock and one consumer wakeup.  Returns how many were
     * accepted; the caller sheds the rejected suffix with
     * Rejected/Backpressure.
     */
    std::size_t submitDataBatch(std::vector<Pending> &batch);

    /**
     * Control-path call, the only one: queue a Close, Drain or Install
     * control for `session` behind everything it already queued, wait
     * for space and then for the response.  The control takes an
     * in-flight slot unconditionally (quota never blocks a control).
     * Closed when the shard has stopped.  `image` is the encoded
     * SessionImage an Install takes over.
     */
    Response control(Pending::Control kind,
                     std::shared_ptr<SessionState> session,
                     std::vector<std::uint8_t> image = {});

    /** Sessions currently pinned (for placement). */
    std::size_t sessionCount() const;

    /**
     * Requests queued right now.  An explicit atomic counter (not the
     * queue's own mutex-guarded size) so recovery/placement polling
     * stays lock-free against the controller under TSan.
     */
    std::size_t
    queueDepth() const
    {
        return inboxDepth_.load(std::memory_order_relaxed);
    }

    /** Mark the shard as evacuating: placement skips it. */
    void
    setDraining()
    {
        draining_.store(true, std::memory_order_release);
    }

    bool
    draining() const
    {
        return draining_.load(std::memory_order_acquire);
    }

    /**
     * Sessions rebuilt by restart-recovery (everything the journal
     * and snapshot knew, closed and migrated ones included).  Call
     * after construction, before the controller begins serving.
     */
    std::vector<std::shared_ptr<SessionState>> recoveredStates() const
    { return sessionSnapshot(); }

    /**
     * Images of sessions whose Drain was journaled here but whose
     * Install never landed on a peer (the crash hit the hand-off
     * window).  The service re-homes them after recovery.
     */
    std::vector<SessionImage>
    takeOrphanedMigrations()
    {
        return std::move(orphanedMigrations_);
    }

    /**
     * Adopt an orphaned migration here: rebuild the session from its
     * image and journal the Install.  Pre-begin only -- the
     * constructing thread still owns the library while the controller
     * is parked at the begin gate.  False when taking the session
     * would re-mode the device under other tenants' live operations.
     */
    bool installRecovered(std::shared_ptr<SessionState> state,
                          const SessionImage &image);

    /** Load-shed counters (client-thread side, hence atomics). */
    std::uint64_t
    rejectedBackpressure() const
    {
        return rejectedBackpressure_.load(std::memory_order_relaxed);
    }
    std::uint64_t
    rejectedQuota() const
    {
        return rejectedQuota_.load(std::memory_order_relaxed);
    }
    std::uint64_t
    rejectedDraining() const
    {
        return rejectedDraining_.load(std::memory_order_relaxed);
    }

    void
    countQuotaReject()
    {
        rejectedQuota_.fetch_add(1, std::memory_order_relaxed);
    }

    /**
     * Merge this shard's whole stat tree into `out`: the scheduler
     * group at `base` (with the shed counters as "*Host" values), the
     * shard library's registry under `base` + ".", and one
     * "service.tenant.<t>.s<id>" group per entry of `sessions` (the
     * caller passes the sessions pinned here, including closed ones).
     * Synchronized with the controller's own stat writes, so it is
     * safe -- if racy in content -- to call mid-serve; quiescent
     * shards yield exact totals.
     */
    void collectStats(
        StatRegistry &out, const std::string &base,
        const std::vector<std::shared_ptr<SessionState>> &sessions)
        const;

  private:
    void controllerLoop();
    /** Move queued work into session FIFOs without blocking. */
    void drainInbox();
    void route(Pending &&pending);
    bool anyPendingWork() const;
    std::vector<std::shared_ptr<SessionState>> sessionSnapshot() const;
    /** Lockstep: block until `s` has work or is closed/stopped. */
    bool waitFor(SessionState &s);
    void lockstepRound();
    void sweep();
    /** Serve the FIFO head (plus a compatible batch); returns count. */
    unsigned serveHead(SessionState &s, unsigned budget);
    void serveOne(SessionState &s, Pending &pending);
    /**
     * Group commit: make every buffered journal record durable (one
     * write + one fsync), then -- and only then -- complete the
     * deferred futures in serve order and release their in-flight
     * slots.  Runs whenever the batch fills, before the controller
     * blocks for work, before any control op, and at shutdown.
     */
    void flushBatch();
    /** flushBatch body; requires statsMutex_ held. */
    void flushBatchLocked();
    /**
     * Apply one data op, the same way when serving and when replaying
     * the journal: the deadline decision against the simulated clock,
     * the device op, and the deterministic `requests` and
     * `deadlineExpired` counters.
     */
    Response applyOp(SessionState &s, const Request &req);
    /** Session owns an allocation fully covering [start, end)? */
    bool ownsRange(const SessionState &s, Addr start, Addr end);
    bool othersHaveInits(const SessionState &s) const;
    void closeSession(SessionState &s, Pending &pending);
    /**
     * Free every allocation of a closing or departing session and
     * forget its ranges, translations and extraction progress.
     */
    void releaseSession(SessionState &s);
    void dropSession(const SessionState &s);
    /** Complete every queued request with Closed (shutdown path). */
    void failAllPending();

    // --- address translation (migrated sessions) ---------------------
    /** Shard-local base backing a client-visible allocation base. */
    Addr localBase(const SessionState &s, Addr base) const;
    /** Translate one client-visible address (identity if unmapped). */
    Addr xlateAddr(const SessionState &s, Addr addr) const;
    /** Translate a client-visible [start, end) range in place. */
    void xlateRange(const SessionState &s, Addr &start,
                    Addr &end) const;

    // --- durability --------------------------------------------------
    /** Restore state from snapshot/journal (constructor thread). */
    void recover();
    void restoreFromSnapshot(const ShardSnapshot &snapshot);
    /** Re-execute journal records with seq > fromSeq. */
    void replayRecords(const std::vector<JournalRecord> &records,
                       std::uint64_t fromSeq);
    /** Look up a replayed session by id; fatal when missing. */
    SessionState &replaySession(std::uint64_t id);
    /** Append one record (stamps the next sequence number). */
    void appendRecord(JournalRecord &record);
    /** First journaled op of a session writes its SessionOpen. */
    void journalSessionOpenIfNeeded(SessionState &s);
    void journalOp(SessionState &s, const Request &req,
                   const Response &r);
    /** Snapshot when the interval elapsed (controller thread). */
    void maybeSnapshot();
    void writeSnapshot();
    /** Serialize one live session (peeks values, side-effect-free). */
    SessionImage buildImage(SessionState &s);
    /**
     * Rebuild a session's device/driver state from an image.  With
     * `fresh_alloc` the allocations are re-malloc'ed and values
     * stored through the normal path (failover install, journal
     * replay); without it the extents already exist in the restored
     * driver and values are poked in place (snapshot restore).
     */
    void installFromImage(SessionState &s, const SessionImage &image,
                          bool fresh_alloc);
    /** Serve a Drain control: journal + free + hand back the image. */
    void drainSession(SessionState &s, Pending &pending);
    /** Serve an Install control: take over a drained session. */
    void installSession(SessionState &s, Pending &pending);
    /**
     * Installing `image` would re-mode the device under other tenants'
     * live operations (the install must go to another shard).
     */
    bool installVetoed(const SessionState &s,
                       const SessionImage &image) const;
    /**
     * Adopt a drained session from its image (live install, orphan
     * re-home, journal replay): rebuild its state, count the install,
     * journal the Install record (`encoded`, the image's bytes) when
     * the journal is open, and register the session here.  The caller
     * has checked the veto.
     */
    void adoptImage(std::shared_ptr<SessionState> state,
                    const SessionImage &image,
                    std::vector<std::uint8_t> encoded);

    const unsigned index_;
    const SchedulerConfig config_;
    const ShardDurability durability_;
    RimeLibrary lib_;
    BoundedQueue<Pending> inbox_;

    mutable std::mutex sessionsMutex_;
    /** Pinned sessions in id order (ids are assigned ascending). */
    std::vector<std::shared_ptr<SessionState>> sessions_;

    std::mutex beginMutex_;
    std::condition_variable beginCv_;
    bool begun_ = false;

    std::atomic<std::uint64_t> rejectedBackpressure_{0};
    std::atomic<std::uint64_t> rejectedQuota_{0};
    std::atomic<std::uint64_t> rejectedDraining_{0};
    /** Lock-free inbox depth mirror (see queueDepth()). */
    std::atomic<std::size_t> inboxDepth_{0};
    std::atomic<bool> draining_{false};

    JournalWriter journal_;
    /**
     * Served ops whose journal records are buffered but not yet
     * committed: executed, response ready, future deliberately
     * withheld until the group commit (controller-thread only).
     */
    struct DeferredCompletion
    {
        Pending pending;
        Response response;
    };
    std::vector<DeferredCompletion> deferred_;
    /** Last sequence number appended (or recovered). */
    std::uint64_t journalSeq_ = 0;
    /** Records appended since the last snapshot. */
    std::uint64_t opsSinceSnapshot_ = 0;
    std::vector<SessionImage> orphanedMigrations_;

    /**
     * Orders the controller's stat and library writes against
     * collectStats readers.  Held by the controller across each serve
     * step; only stat collection ever contends.  Taken before
     * sessionsMutex_ when both are needed (never the reverse).
     */
    mutable std::mutex statsMutex_;
    StatGroup stats_;
    std::thread controller_;
    bool stopped_ = false;
};

} // namespace rime::service

#endif // RIME_SERVICE_SHARD_HH
