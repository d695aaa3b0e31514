/**
 * @file
 * Crash-safety and failover tests for the serving layer.
 *
 * The chaos harness forks a child that re-executes this binary (a
 * hidden RecoveryChild.DISABLED_Run entry selected by gtest filter)
 * running a deterministic scripted workload against a journaled
 * single-shard service; RIME_CRASH_POINT / RIME_CRASH_AT_SEQ in the
 * child's environment raise SIGKILL at a seeded journal or snapshot
 * boundary.  The parent then counts the committed (journaled) ops M,
 * constructs a recovery service on the same journal directory, and
 * demands its deterministic stat dump be *bit-identical* to a fresh
 * uninterrupted reference run of the script's first M ops: no
 * committed op lost, no phantom op replayed.
 *
 * Re-exec (not bare fork) keeps the child's crash-spec parsing and
 * hit counters pristine; the parent never sets the crash variables in
 * its own environment.  RIME_THREADS is pinned to 1 before anything
 * touches the global pool so the brief fork-to-exec window never
 * races worker threads.
 *
 * The failover half runs in-process: drainShard() must re-home live
 * sessions with their values, extraction progress, and address space
 * intact (old client-visible addresses keep working on the new shard,
 * post-migration allocations land in the alias window), and
 * maintain() must evacuate a shard whose device wore out.
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/fdio.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "service/journal.hh"
#include "service/service.hh"

using namespace rime;
using namespace rime::service;

namespace
{

// The controller threads of a service under test are fine, but the
// *global* scan pool must stay workerless so fork() has no foreign
// threads to lose: with RIME_THREADS=1 the pool runs inline.
const bool kSingleThreadedPool = [] {
    ::setenv("RIME_THREADS", "1", 1);
    return true;
}();

// ---------------------------------------------------------------------
// The deterministic script both the child and the reference run.
// ---------------------------------------------------------------------

constexpr std::size_t kKeys = 48;
constexpr std::uint64_t kRangeBytes = kKeys * sizeof(std::uint32_t);

constexpr unsigned kOpMalloc1 = 0;
constexpr unsigned kOpStore1 = 1;
constexpr unsigned kOpInit1 = 2;
constexpr unsigned kExtract1Begin = 3; ///< 12 alternating Min/Max
constexpr unsigned kExtract1End = 15;
constexpr unsigned kOpMalloc2 = 15;
constexpr unsigned kOpStore2 = 16;
constexpr unsigned kOpInit2 = 17;
constexpr unsigned kOpTopK = 18; ///< 5 smallest of range 2
constexpr unsigned kMin2Begin = 19; ///< 8 Min ops on range 2
constexpr unsigned kMin2End = 27;
constexpr unsigned kOpSort1 = 27; ///< drains range 1
constexpr unsigned kOpMin2b = 28;
constexpr unsigned kOpMax2 = 29;
constexpr unsigned kScriptOps = 30;

std::vector<std::uint64_t>
scriptKeys(std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::uint64_t> keys(kKeys);
    for (auto &k : keys)
        k = rng() & 0xFFFFFFFFULL;
    return keys;
}

SessionConfig
scriptSessionConfig()
{
    SessionConfig cfg;
    cfg.tenant = "alpha";
    cfg.maxInFlight = 8;
    cfg.shard = 0;
    return cfg;
}

Request
scriptRequest(unsigned i, Addr base1, Addr base2)
{
    Request r;
    if (i == kOpMalloc1 || i == kOpMalloc2) {
        r.kind = RequestKind::Malloc;
        r.bytes = kRangeBytes;
    } else if (i == kOpStore1 || i == kOpStore2) {
        r.kind = RequestKind::StoreArray;
        r.start = i == kOpStore1 ? base1 : base2;
        r.values = scriptKeys(i == kOpStore1 ? 41 : 42);
    } else if (i == kOpInit1 || i == kOpInit2) {
        r.kind = RequestKind::Init;
        r.start = i == kOpInit1 ? base1 : base2;
        r.end = r.start + kRangeBytes;
        r.mode = KeyMode::UnsignedFixed;
        r.wordBits = 32;
    } else if (i >= kExtract1Begin && i < kExtract1End) {
        r.kind = (i - kExtract1Begin) % 2 == 0 ? RequestKind::Min
                                               : RequestKind::Max;
        r.start = base1;
        r.end = base1 + kRangeBytes;
    } else if (i == kOpTopK) {
        r.kind = RequestKind::TopK;
        r.start = base2;
        r.end = base2 + kRangeBytes;
        r.count = 5;
    } else if (i >= kMin2Begin && i < kMin2End) {
        r.kind = RequestKind::Min;
        r.start = base2;
        r.end = base2 + kRangeBytes;
    } else if (i == kOpSort1) {
        r.kind = RequestKind::Sort;
        r.start = base1;
        r.end = base1 + kRangeBytes;
    } else if (i == kOpMin2b) {
        r.kind = RequestKind::Min;
        r.start = base2;
        r.end = base2 + kRangeBytes;
    } else if (i == kOpMax2) {
        r.kind = RequestKind::Max;
        r.start = base2;
        r.end = base2 + kRangeBytes;
    } else {
        ADD_FAILURE() << "script has no op " << i;
    }
    return r;
}

/** Sorted values still stored in each range after the first m ops. */
struct ScriptModel
{
    std::vector<std::uint64_t> r1, r2;
};

ScriptModel
scriptModelAfter(unsigned m)
{
    ScriptModel mod;
    if (m > kOpInit1) {
        mod.r1 = scriptKeys(41);
        std::sort(mod.r1.begin(), mod.r1.end());
    }
    if (m > kOpInit2) {
        mod.r2 = scriptKeys(42);
        std::sort(mod.r2.begin(), mod.r2.end());
    }
    for (unsigned i = 0; i < m; ++i) {
        if (i >= kExtract1Begin && i < kExtract1End) {
            if ((i - kExtract1Begin) % 2 == 0)
                mod.r1.erase(mod.r1.begin());
            else
                mod.r1.pop_back();
        } else if (i == kOpTopK) {
            mod.r2.erase(mod.r2.begin(), mod.r2.begin() + 5);
        } else if ((i >= kMin2Begin && i < kMin2End) || i == kOpMin2b) {
            mod.r2.erase(mod.r2.begin());
        } else if (i == kOpSort1) {
            mod.r1.clear();
        } else if (i == kOpMax2) {
            mod.r2.pop_back();
        }
    }
    return mod;
}

ServiceConfig
journaledConfig(const std::string &dir, std::uint64_t snapshot_interval,
                RecoveryMode mode = RecoveryMode::Replay,
                bool fsync = false)
{
    ServiceConfig cfg;
    cfg.shards = 1;
    cfg.durability.dir = dir;
    cfg.durability.snapshotIntervalOps = snapshot_interval;
    cfg.durability.recoveryMode = mode;
    cfg.durability.fsyncEveryAppend = fsync;
    return cfg;
}

/**
 * Run the script's first `ops` requests against a journaled
 * single-shard service.  The child entry runs this until the seeded
 * crash kills it; the in-process restart tests run it to completion.
 */
void
runScript(const std::string &dir, unsigned ops,
          std::uint64_t snapshot_interval, bool close_session,
          bool fsync = false)
{
    RimeService svc(journaledConfig(dir, snapshot_interval,
                                    RecoveryMode::Replay, fsync));
    auto s = svc.openSession(scriptSessionConfig());
    Addr base1 = 0, base2 = 0;
    for (unsigned i = 0; i < ops; ++i) {
        const Response r = s->call(scriptRequest(i, base1, base2));
        if (i == kOpMalloc1)
            base1 = r.addr;
        if (i == kOpMalloc2)
            base2 = r.addr;
    }
    if (close_session)
        s->close();
    else
        svc.shutdown(); // handle's late close becomes a no-op:
                        // the session stays open in the journal
}

/**
 * Pipelined variant for the group-commit sweep: arm one range with
 * three blocking setup calls, then keep a full window of async Min
 * submissions in flight so the shard's deferred batch actually fills.
 * Every completed future appends one byte to dir/acked.log via raw
 * write(2) (page cache survives SIGKILL), letting the parent check
 * the WAL invariant -- acked ⊆ journaled -- at batch granularity.
 */
void
runPipelinedScript(const std::string &dir, unsigned min_ops, bool fsync)
{
    RimeService svc(journaledConfig(dir, 0, RecoveryMode::Replay,
                                    fsync));
    auto s = svc.openSession(scriptSessionConfig());
    Addr base = 0;
    for (unsigned i = 0; i < 3; ++i) {
        const Response r = s->call(scriptRequest(i, base, 0));
        if (i == kOpMalloc1)
            base = r.addr;
    }
    const int ack = ::open((dir + "/acked.log").c_str(),
                           O_WRONLY | O_CREAT | O_APPEND, 0644);
    std::deque<std::future<Response>> window;
    const auto reap = [&] {
        window.front().get();
        window.pop_front();
        const char byte = 'a';
        (void)!::write(ack, &byte, 1);
    };
    for (unsigned i = 0; i < min_ops; ++i) {
        while (window.size() >= scriptSessionConfig().maxInFlight)
            reap();
        Request r;
        r.kind = RequestKind::Min;
        r.start = base;
        r.end = base + kRangeBytes;
        window.push_back(s->submit(std::move(r)));
    }
    while (!window.empty())
        reap();
    ::close(ack);
    svc.shutdown();
}

// ---------------------------------------------------------------------
// Child process plumbing.
// ---------------------------------------------------------------------

/**
 * RIME_TEST_ARTIFACT_DIR redirects the journal temp dirs into a
 * persistent location (and disables cleanup) so CI can upload the
 * journals of a failed — or passing — chaos run as artifacts.
 */
const char *
artifactDir()
{
    return std::getenv("RIME_TEST_ARTIFACT_DIR");
}

std::string
makeTempDir()
{
    std::string tmpl = artifactDir()
        ? std::string(artifactDir()) + "/rime_recovery_XXXXXX"
        : "/tmp/rime_recovery_XXXXXX";
    const char *dir = ::mkdtemp(tmpl.data());
    if (dir == nullptr)
        ADD_FAILURE() << "mkdtemp failed for " << tmpl;
    return dir ? dir : "";
}

std::string
selfExe()
{
    char buf[4096];
    const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n <= 0)
        return "";
    buf[n] = '\0';
    return buf;
}

/**
 * Fork + re-exec this binary as a crash child: a fresh process (fresh
 * crash-spec parse, fresh hit counters) that runs the script against
 * `dir` and dies at the seeded kill point.  Returns the waitpid
 * status.
 */
int
runChild(const std::string &dir, unsigned ops,
         std::uint64_t snapshot_interval, const std::string &crash_point,
         std::uint64_t crash_seq, bool fsync = false,
         unsigned batch_ops = 0, unsigned pipelined_min_ops = 0)
{
    const std::string exe = selfExe();
    EXPECT_FALSE(exe.empty());
    const pid_t pid = ::fork();
    if (pid == 0) {
        ::setenv("RIME_TEST_CHILD_DIR", dir.c_str(), 1);
        ::setenv("RIME_TEST_CHILD_OPS", std::to_string(ops).c_str(), 1);
        ::setenv("RIME_TEST_CHILD_SNAP",
                 std::to_string(snapshot_interval).c_str(), 1);
        if (fsync)
            ::setenv("RIME_TEST_CHILD_FSYNC", "1", 1);
        if (batch_ops != 0) {
            ::setenv("RIME_BATCH_OPS",
                     std::to_string(batch_ops).c_str(), 1);
        }
        if (pipelined_min_ops != 0) {
            ::setenv("RIME_TEST_CHILD_PIPE",
                     std::to_string(pipelined_min_ops).c_str(), 1);
        }
        if (!crash_point.empty())
            ::setenv("RIME_CRASH_POINT", crash_point.c_str(), 1);
        if (crash_seq != 0) {
            ::setenv("RIME_CRASH_AT_SEQ",
                     std::to_string(crash_seq).c_str(), 1);
        }
        const int devnull = ::open("/dev/null", O_WRONLY);
        if (devnull >= 0) {
            ::dup2(devnull, STDOUT_FILENO);
            ::dup2(devnull, STDERR_FILENO);
        }
        ::execl(exe.c_str(), exe.c_str(),
                "--gtest_filter=RecoveryChild.DISABLED_Run",
                "--gtest_also_run_disabled_tests",
                static_cast<char *>(nullptr));
        ::_exit(127);
    }
    int status = -1;
    ::waitpid(pid, &status, 0);
    return status;
}

bool
killedBySigkill(int status)
{
    return WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL;
}

std::string
journalPath(const std::string &dir)
{
    return dir + "/shard0.journal";
}

unsigned
committedOps(const JournalScan &scan)
{
    unsigned n = 0;
    for (const auto &rec : scan.records)
        n += rec.kind == JournalRecordKind::Op ? 1 : 0;
    return n;
}

bool
hasSessionOpen(const JournalScan &scan)
{
    for (const auto &rec : scan.records)
        if (rec.kind == JournalRecordKind::SessionOpen)
            return true;
    return false;
}

/**
 * Deterministic stat dump of an uninterrupted run of the script's
 * first m ops (the committed prefix the recovered service must
 * reproduce bit-identically).
 */
std::string
referenceDump(const std::string &dir, unsigned m, bool open_session,
              std::uint64_t snapshot_interval, bool close_after = false)
{
    RimeService svc(journaledConfig(dir, snapshot_interval));
    std::shared_ptr<Session> s;
    Addr base1 = 0, base2 = 0;
    if (open_session) {
        s = svc.openSession(scriptSessionConfig());
        for (unsigned i = 0; i < m; ++i) {
            const Response r = s->call(scriptRequest(i, base1, base2));
            if (i == kOpMalloc1)
                base1 = r.addr;
            if (i == kOpMalloc2)
                base2 = r.addr;
        }
        if (close_after)
            s->close();
    }
    return svc.statDumpJson(false);
}

/** Futures the pipelined child completed before dying (one byte each). */
unsigned
ackedOps(const std::string &dir)
{
    struct ::stat st{};
    if (::stat((dir + "/acked.log").c_str(), &st) != 0)
        return 0;
    return static_cast<unsigned>(st.st_size);
}

/**
 * Reference dump for the pipelined workload's committed prefix: the
 * three setup ops followed by m - 3 Min extractions, run blocking.
 * Batched live execution (deferral, extraction coalescing) must not
 * leak into deterministic state, so this sequential run is the oracle
 * the recovered service has to match bit-for-bit.
 */
std::string
pipelinedReferenceDump(const std::string &dir, unsigned m,
                       bool open_session)
{
    RimeService svc(journaledConfig(dir, 0));
    if (!open_session)
        return svc.statDumpJson(false);
    auto s = svc.openSession(scriptSessionConfig());
    Addr base = 0;
    for (unsigned i = 0; i < m; ++i) {
        Request r;
        if (i < 3) {
            r = scriptRequest(i, base, 0);
        } else {
            r.kind = RequestKind::Min;
            r.start = base;
            r.end = base + kRangeBytes;
        }
        const Response resp = s->call(std::move(r));
        if (i == kOpMalloc1)
            base = resp.addr;
    }
    return svc.statDumpJson(false);
}

/**
 * A Sort (or over-asking TopK) of a partially drained range produces
 * the remaining prefix and ends with Empty; a full range ends Ok.
 */
bool
extractionDone(const Response &r)
{
    return r.status == ServiceStatus::Ok ||
        r.status == ServiceStatus::Empty;
}

std::vector<std::uint64_t>
itemValues(const Response &r)
{
    std::vector<std::uint64_t> v;
    v.reserve(r.items.size());
    for (const auto &item : r.items)
        v.push_back(item.raw);
    return v;
}

/**
 * Scoped temp dirs so a failed run leaves nothing behind /tmp.
 * Under RIME_TEST_ARTIFACT_DIR the dirs are kept for upload instead.
 */
struct TempDirs
{
    std::vector<std::string> dirs;
    std::string
    make()
    {
        dirs.push_back(makeTempDir());
        return dirs.back();
    }
    ~TempDirs()
    {
        if (artifactDir())
            return;
        for (const auto &d : dirs) {
            std::error_code ec;
            std::filesystem::remove_all(d, ec);
        }
    }
};

} // namespace

// ---------------------------------------------------------------------
// Hidden child entry: exec'd by runChild(), killed by the crash spec.
// ---------------------------------------------------------------------

TEST(RecoveryChild, DISABLED_Run)
{
    const char *dir = std::getenv("RIME_TEST_CHILD_DIR");
    if (dir == nullptr)
        GTEST_SKIP() << "not a crash child";
    const unsigned ops =
        static_cast<unsigned>(std::atoi(std::getenv("RIME_TEST_CHILD_OPS")));
    const std::uint64_t snap = std::strtoull(
        std::getenv("RIME_TEST_CHILD_SNAP"), nullptr, 10);
    const bool fsync = std::getenv("RIME_TEST_CHILD_FSYNC") != nullptr;
    if (const char *pipe = std::getenv("RIME_TEST_CHILD_PIPE")) {
        runPipelinedScript(dir, static_cast<unsigned>(std::atoi(pipe)),
                           fsync);
        return;
    }
    runScript(dir, ops, snap, /*close_session=*/false, fsync);
}

// ---------------------------------------------------------------------
// Clean restarts (no crash): recovery is exact, not just close.
// ---------------------------------------------------------------------

TEST(CrashRecovery, CleanRestartReplayIsBitIdentical)
{
    TempDirs tmp;
    const std::string dir = tmp.make();
    runScript(dir, kScriptOps, 0, /*close_session=*/false);

    RimeService recovered(journaledConfig(dir, 0));
    // Dump before taking client handles: dropping a recovered handle
    // closes its session like any other.
    const std::string dump = recovered.statDumpJson(false);
    EXPECT_EQ(recovered.recoveredSessions().size(), 1u);
    EXPECT_EQ(dump, referenceDump(tmp.make(), kScriptOps, true, 0));
}

TEST(CrashRecovery, ClosedSessionStaysClosedAfterRestart)
{
    TempDirs tmp;
    const std::string dir = tmp.make();
    runScript(dir, kScriptOps, 0, /*close_session=*/true);

    RimeService recovered(journaledConfig(dir, 0));
    EXPECT_TRUE(recovered.recoveredSessions().empty());
    EXPECT_EQ(recovered.statDumpJson(false),
              referenceDump(tmp.make(), kScriptOps, true, 0,
                            /*close_after=*/true));
}

// ---------------------------------------------------------------------
// The chaos sweep: SIGKILL at every seeded kill point; recovery must
// reproduce the committed prefix bit-identically.
// ---------------------------------------------------------------------

namespace
{

struct CrashCase
{
    const char *label;
    std::string crashPoint;
    std::uint64_t crashSeq;
    std::uint64_t snapshotInterval;
    /** Run the child with fsync-every-append (directory fsyncs on). */
    bool fsync = false;
};

void
checkCrashCase(const CrashCase &c)
{
    SCOPED_TRACE(c.label);
    TempDirs tmp;
    const std::string dir = tmp.make();
    const int status =
        runChild(dir, kScriptOps, c.snapshotInterval, c.crashPoint,
                 c.crashSeq, c.fsync);
    ASSERT_TRUE(killedBySigkill(status))
        << "child was not killed (status " << status << ")";

    const JournalScan scan = readJournal(journalPath(dir));
    const unsigned m = committedOps(scan);
    ASSERT_LT(m, kScriptOps) << "crash fired after the whole script";

    RimeService recovered(
        journaledConfig(dir, c.snapshotInterval, RecoveryMode::Replay));
    EXPECT_EQ(recovered.statDumpJson(false),
              referenceDump(tmp.make(), m, hasSessionOpen(scan),
                            c.snapshotInterval))
        << "recovered state diverged after " << m << " committed ops";
}

} // namespace

TEST(CrashRecovery, KillPointSweepJournalAppends)
{
    const CrashCase cases[] = {
        {"journal-append:1", "journal-append:1", 0, 0},
        {"journal-append:2", "journal-append:2", 0, 0},
        {"journal-append:3", "journal-append:3", 0, 0},
        {"journal-append:7", "journal-append:7", 0, 0},
        {"journal-append:16", "journal-append:16", 0, 0},
        {"journal-append:29", "journal-append:29", 0, 0},
        {"journal-flush:4", "journal-flush:4", 0, 0},
        {"journal-flush:20", "journal-flush:20", 0, 0},
        {"seq:12", "", 12, 0},
        {"seq:25", "", 25, 0},
    };
    for (const auto &c : cases)
        checkCrashCase(c);
}

TEST(CrashRecovery, KillPointSweepSnapshots)
{
    const CrashCase cases[] = {
        {"snapshot-begin:1", "snapshot-begin:1", 0, 8},
        {"snapshot-written:1", "snapshot-written:1", 0, 8},
        {"snapshot-done:1", "snapshot-done:1", 0, 8},
        {"snapshot-begin:2", "snapshot-begin:2", 0, 8},
        {"journal-append:20 (snap 8)", "journal-append:20", 0, 8},
    };
    for (const auto &c : cases)
        checkCrashCase(c);
}

TEST(CrashRecovery, KillPointSweepDirectoryFsyncs)
{
    // The directory-fsync kill points: right after the journal file is
    // first created (header written, parent dir not yet synced) and
    // right after the snapshot rename lands (tmp gone, parent dir not
    // yet synced).  Recovery must be exact on both sides of the fsync,
    // with and without fsync-every-append durability requested.
    const CrashCase cases[] = {
        {"journal-create:1", "journal-create:1", 0, 0},
        {"journal-create:1 (fsync)", "journal-create:1", 0, 0, true},
        {"snapshot-renamed:1", "snapshot-renamed:1", 0, 8},
        {"snapshot-renamed:1 (fsync)", "snapshot-renamed:1", 0, 8,
         true},
        {"snapshot-renamed:2 (fsync)", "snapshot-renamed:2", 0, 8,
         true},
        {"journal-append:12 (fsync)", "journal-append:12", 0, 0, true},
        {"snapshot-done:1 (fsync)", "snapshot-done:1", 0, 8, true},
    };
    for (const auto &c : cases)
        checkCrashCase(c);
}

// ---------------------------------------------------------------------
// Group commit: SIGKILL around the *batch* kill points while a
// pipelined client keeps the deferred batch full.  The WAL invariant
// must hold at batch granularity -- no future completes for an op that
// is not in the journal -- and recovery must still reproduce exactly
// the committed prefix.
// ---------------------------------------------------------------------

namespace
{

void
checkBatchCrashCase(const char *label, const std::string &crash_point)
{
    SCOPED_TRACE(label);
    constexpr unsigned kBatchOps = 8;
    constexpr unsigned kMinOps = 40;
    TempDirs tmp;
    const std::string dir = tmp.make();
    const int status = runChild(dir, 0, 0, crash_point, 0,
                                /*fsync=*/true, kBatchOps, kMinOps);
    ASSERT_TRUE(killedBySigkill(status))
        << "child was not killed (status " << status << ")";

    const JournalScan scan = readJournal(journalPath(dir));
    const unsigned m = committedOps(scan);
    ASSERT_LT(m, 3u + kMinOps) << "crash fired after the whole workload";

    // acked ⊆ journaled: the three setup ops ack through blocking
    // call() and are not counted in acked.log, so every byte there is
    // a completed Min future whose op must already be in the file.
    const unsigned journaled_mins = m > 3 ? m - 3 : 0;
    EXPECT_LE(ackedOps(dir), journaled_mins)
        << "a future completed for an op the journal never committed";

    RimeService recovered(journaledConfig(dir, 0, RecoveryMode::Replay));
    EXPECT_EQ(recovered.statDumpJson(false),
              pipelinedReferenceDump(tmp.make(), m, hasSessionOpen(scan)))
        << "recovered state diverged after " << m << " committed ops";
}

} // namespace

TEST(CrashRecovery, KillPointSweepBatchCommits)
{
    // The session open and each blocking setup call flush as their own
    // commits; from roughly the fifth commit on, each hit is a full
    // deferred batch of pipelined Min ops.  Sweep all three batch
    // stages: before the batch write (journal-append), between write
    // and fsync (journal-flush), and between fsync and the deferred
    // completions (batch-commit).
    const std::pair<const char *, const char *> cases[] = {
        {"journal-append:2 (batch 8)", "journal-append:2"},
        {"journal-append:5 (batch 8)", "journal-append:5"},
        {"journal-append:7 (batch 8)", "journal-append:7"},
        {"journal-flush:5 (batch 8)", "journal-flush:5"},
        {"journal-flush:6 (batch 8)", "journal-flush:6"},
        {"batch-commit:5 (batch 8)", "batch-commit:5"},
        {"batch-commit:7 (batch 8)", "batch-commit:7"},
    };
    for (const auto &[label, point] : cases)
        checkBatchCrashCase(label, point);
}

TEST(CrashRecovery, TornBatchTailTruncatesToCommittedPrefix)
{
    TempDirs tmp;
    const std::string dir = tmp.make();
    const int status = runChild(dir, 0, 0, "batch-commit:6", 0,
                                /*fsync=*/false, /*batch_ops=*/8,
                                /*pipelined_min_ops=*/40);
    ASSERT_TRUE(killedBySigkill(status));

    const JournalScan scan = readJournal(journalPath(dir));
    const unsigned m = committedOps(scan);
    ASSERT_GT(m, 4u);
    ASSERT_EQ(scan.tail, FrameStatus::End);
    ASSERT_GT(scan.cleanBytes, 7u);

    // Tear the final record of the last batch mid-frame, as if the
    // kill had landed inside the batch's write instead of after it.
    std::filesystem::resize_file(journalPath(dir),
                                 scan.cleanBytes - 7);
    const JournalScan torn = readJournal(journalPath(dir));
    EXPECT_NE(torn.tail, FrameStatus::End);
    const unsigned m2 = committedOps(torn);
    ASSERT_EQ(m2, m - 1);

    Addr base = 0;
    bool have_base = false;
    for (const auto &rec : torn.records) {
        if (rec.kind == JournalRecordKind::Op &&
            rec.req.kind == RequestKind::Malloc) {
            base = rec.resultAddr;
            have_base = true;
        }
    }
    ASSERT_TRUE(have_base);

    {
        RimeService recovered(journaledConfig(dir, 0));
        EXPECT_EQ(recovered.statDumpJson(false),
                  pipelinedReferenceDump(tmp.make(), m2,
                                         hasSessionOpen(torn)));
        // The torn batch tail was truncated away; the journal stays
        // appendable on the clean prefix.
        auto handles = recovered.recoveredSessions();
        ASSERT_EQ(handles.size(), 1u);
        const Response r =
            handles.front()->min(base, base + kRangeBytes).get();
        EXPECT_TRUE(r.ok());
        recovered.shutdown();
    }
    const JournalScan rescan = readJournal(journalPath(dir));
    EXPECT_EQ(rescan.tail, FrameStatus::End);
    EXPECT_GT(rescan.records.size(), torn.records.size());
    EXPECT_GT(rescan.lastSeq, torn.lastSeq);
}

// ---------------------------------------------------------------------
// Snapshot-mode recovery: exact logical state in O(state + suffix),
// across two consecutive restarts.
// ---------------------------------------------------------------------

TEST(CrashRecovery, SnapshotModeRecoversExactStateTwice)
{
    TempDirs tmp;
    const std::string dir = tmp.make();
    const int status = runChild(dir, kScriptOps, 6, "", 25);
    ASSERT_TRUE(killedBySigkill(status));

    const unsigned m = committedOps(readJournal(journalPath(dir)));
    ASSERT_GT(m, kOpInit2) << "crash fired before both ranges existed";
    ScriptModel model = scriptModelAfter(m);
    ASSERT_FALSE(model.r2.empty());

    Addr base2 = 0;
    {
        RimeService svc(journaledConfig(dir, 6, RecoveryMode::Snapshot));
        auto handles = svc.recoveredSessions();
        ASSERT_EQ(handles.size(), 1u);
        auto &s = *handles.front();

        // Zero committed loss: the next two minima of range 2 are
        // exactly what the model says survives the crash.
        for (const auto &rec : readJournal(journalPath(dir)).records) {
            if (rec.kind == JournalRecordKind::Op &&
                rec.req.kind == RequestKind::Malloc) {
                base2 = rec.resultAddr; // last Malloc wins: range 2
            }
        }
        for (int i = 0; i < 2; ++i) {
            const Response r =
                s.min(base2, base2 + kRangeBytes).get();
            ASSERT_TRUE(r.ok());
            ASSERT_EQ(r.items.size(), 1u);
            EXPECT_EQ(r.items[0].raw, model.r2.front());
            model.r2.erase(model.r2.begin());
        }
        svc.shutdown(); // keep the session open in the journal
    }

    // Second restart: the post-recovery ops just committed must
    // survive too (the journal stayed appendable after recovery).
    {
        RimeService svc(journaledConfig(dir, 6, RecoveryMode::Snapshot));
        auto handles = svc.recoveredSessions();
        ASSERT_EQ(handles.size(), 1u);
        auto &s = *handles.front();
        const Response sorted =
            s.call([&] {
                Request r;
                r.kind = RequestKind::Sort;
                r.start = base2;
                r.end = base2 + kRangeBytes;
                return r;
            }());
        ASSERT_TRUE(extractionDone(sorted));
        EXPECT_EQ(itemValues(sorted), model.r2);
        s.close();
    }
}

// ---------------------------------------------------------------------
// A deadline-expired op is journaled with its status and replays
// through the same apply path as live serving: no divergence, and the
// deterministic counters (deadlineExpired included) match.
// ---------------------------------------------------------------------

TEST(CrashRecovery, DeadlineExpiredOpReplaysBitIdentically)
{
    TempDirs tmp;
    const std::string dir = tmp.make();
    auto keys = scriptKeys(63);
    Addr base = 0;
    std::string live_dump;
    {
        RimeService svc(journaledConfig(dir, 0));
        auto s = svc.openSession(scriptSessionConfig());
        base = s->malloc(kRangeBytes).get().addr;
        ASSERT_TRUE(s->storeArray(base, keys).get().ok());
        ASSERT_TRUE(s->init(base, base + kRangeBytes,
                            KeyMode::UnsignedFixed)
                        .get()
                        .ok());
        const Response first = s->min(base, base + kRangeBytes).get();
        ASSERT_TRUE(first.ok());
        // A deadline still ahead of the shard clock is served...
        ASSERT_TRUE(s->max(base, base + kRangeBytes,
                           std::numeric_limits<Tick>::max())
                        .get()
                        .ok());
        // ...one the simulated clock already passed is not.
        const Response late =
            s->min(base, base + kRangeBytes, first.shardTick).get();
        ASSERT_EQ(late.status, ServiceStatus::DeadlineExpired);
        ASSERT_TRUE(s->min(base, base + kRangeBytes).get().ok());
        live_dump = svc.statDumpJson(false);
        svc.shutdown(); // keep the session open in the journal
    }
    ASSERT_NE(live_dump.find("deadlineExpired"), std::string::npos);
    unsigned expired = 0;
    for (const auto &rec : readJournal(journalPath(dir)).records) {
        expired += rec.kind == JournalRecordKind::Op &&
                rec.status == ServiceStatus::DeadlineExpired
            ? 1 : 0;
    }
    EXPECT_EQ(expired, 1u);

    RimeService recovered(journaledConfig(dir, 0));
    EXPECT_EQ(recovered.statDumpJson(false), live_dump);
    auto handles = recovered.recoveredSessions();
    ASSERT_EQ(handles.size(), 1u);
    // The expired Min consumed nothing: the stream continues after
    // the two minima and the maximum that were served.
    std::sort(keys.begin(), keys.end());
    const Response next = handles.front()->min(base, base + kRangeBytes).get();
    ASSERT_TRUE(next.ok());
    EXPECT_EQ(next.items[0].raw, keys[2]);
    handles.front()->close();
}

// ---------------------------------------------------------------------
// A torn tail (partial frame) is dropped, and the journal stays
// appendable (and fully readable) after recovery truncates it.
// ---------------------------------------------------------------------

TEST(CrashRecovery, TornTailIsDroppedAndJournalStaysAppendable)
{
    TempDirs tmp;
    const std::string dir = tmp.make();
    const int status = runChild(dir, kScriptOps, 0, "journal-flush:12", 0);
    ASSERT_TRUE(killedBySigkill(status));

    // Simulate the kill landing mid-write: a few garbage bytes of a
    // frame that never completed.
    {
        std::ofstream f(journalPath(dir),
                        std::ios::binary | std::ios::app);
        const char torn[] = {0x21, 0x43, 0x65, 0x07, 0x7f};
        f.write(torn, sizeof(torn));
    }
    const JournalScan scan = readJournal(journalPath(dir));
    EXPECT_NE(scan.tail, FrameStatus::End);
    const unsigned m = committedOps(scan);
    ASSERT_GT(m, kExtract1Begin);

    Addr base1 = 0;
    for (const auto &rec : scan.records) {
        if (rec.kind == JournalRecordKind::Op &&
            rec.req.kind == RequestKind::Malloc && base1 == 0) {
            base1 = rec.resultAddr;
        }
    }
    {
        RimeService recovered(journaledConfig(dir, 0));
        EXPECT_EQ(recovered.statDumpJson(false),
                  referenceDump(tmp.make(), m, true, 0));
        // The torn bytes were truncated away; new appends must land
        // on the clean prefix and stay readable.
        auto handles = recovered.recoveredSessions();
        ASSERT_EQ(handles.size(), 1u);
        const Response r =
            handles.front()->min(base1, base1 + kRangeBytes).get();
        EXPECT_TRUE(r.ok());
        recovered.shutdown();
    }
    const JournalScan rescan = readJournal(journalPath(dir));
    EXPECT_EQ(rescan.tail, FrameStatus::End);
    EXPECT_GT(rescan.records.size(), scan.records.size());
    EXPECT_GT(rescan.lastSeq, scan.lastSeq);
}

// ---------------------------------------------------------------------
// Health-driven failover: live sessions survive a shard drain with
// values, progress, and address space intact.
// ---------------------------------------------------------------------

TEST(Failover, DrainShardRehomesLiveSessions)
{
    ServiceConfig cfg;
    cfg.shards = 2;
    RimeService svc(std::move(cfg));
    auto s = svc.openSession(scriptSessionConfig());
    ASSERT_EQ(s->shard(), 0u);

    auto keys = scriptKeys(77);
    const Addr base = s->malloc(kRangeBytes).get().addr;
    ASSERT_TRUE(s->storeArray(base, keys).get().ok());
    ASSERT_TRUE(
        s->init(base, base + kRangeBytes, KeyMode::UnsignedFixed).get().ok());
    std::sort(keys.begin(), keys.end());
    for (int i = 0; i < 3; ++i) {
        const Response r = s->min(base, base + kRangeBytes).get();
        ASSERT_TRUE(r.ok());
        EXPECT_EQ(r.items[0].raw, keys[static_cast<std::size_t>(i)]);
    }

    EXPECT_EQ(svc.drainShard(0), 1u);
    EXPECT_TRUE(svc.loads()[0].draining);
    EXPECT_EQ(s->shard(), 1u);

    // The old client-visible addresses keep working on the new shard,
    // and extraction resumes exactly where it left off.
    const Response next = s->min(base, base + kRangeBytes).get();
    ASSERT_TRUE(next.ok());
    EXPECT_EQ(next.items[0].raw, keys[3]);

    // Post-migration allocations land in the alias window and serve
    // a full store/init/extract cycle.
    const Response m2 = s->malloc(kRangeBytes).get();
    ASSERT_TRUE(m2.ok());
    auto keys2 = scriptKeys(78);
    ASSERT_TRUE(s->storeArray(m2.addr, keys2).get().ok());
    ASSERT_TRUE(s->init(m2.addr, m2.addr + kRangeBytes,
                        KeyMode::UnsignedFixed)
                    .get()
                    .ok());
    const Response min2 = s->min(m2.addr, m2.addr + kRangeBytes).get();
    ASSERT_TRUE(min2.ok());
    EXPECT_EQ(min2.items[0].raw,
              *std::min_element(keys2.begin(), keys2.end()));

    const Response rest = s->sort(base, base + kRangeBytes).get();
    ASSERT_TRUE(extractionDone(rest));
    EXPECT_EQ(itemValues(rest),
              std::vector<std::uint64_t>(keys.begin() + 4, keys.end()));
    s->close();
}

TEST(Failover, MigratedSessionSurvivesRestart)
{
    TempDirs tmp;
    const std::string dir = tmp.make();
    ServiceConfig cfg = journaledConfig(dir, 0);
    cfg.shards = 2;

    Addr base = 0;
    auto keys = scriptKeys(91);
    {
        RimeService svc(std::move(cfg));
        auto s = svc.openSession(scriptSessionConfig());
        base = s->malloc(kRangeBytes).get().addr;
        ASSERT_TRUE(s->storeArray(base, keys).get().ok());
        ASSERT_TRUE(s->init(base, base + kRangeBytes,
                            KeyMode::UnsignedFixed)
                        .get()
                        .ok());
        std::sort(keys.begin(), keys.end());
        ASSERT_TRUE(s->min(base, base + kRangeBytes).get().ok());
        ASSERT_TRUE(s->min(base, base + kRangeBytes).get().ok());
        ASSERT_EQ(svc.drainShard(0), 1u);
        // Two more committed ops on the *new* shard.
        ASSERT_TRUE(s->min(base, base + kRangeBytes).get().ok());
        ASSERT_TRUE(s->max(base, base + kRangeBytes).get().ok());
        svc.shutdown();
    }

    ServiceConfig rcfg = journaledConfig(dir, 0);
    rcfg.shards = 2;
    RimeService recovered(std::move(rcfg));
    auto handles = recovered.recoveredSessions();
    ASSERT_EQ(handles.size(), 1u);
    const Response rest =
        handles.front()->sort(base, base + kRangeBytes).get();
    ASSERT_TRUE(extractionDone(rest));
    EXPECT_EQ(itemValues(rest),
              std::vector<std::uint64_t>(keys.begin() + 3,
                                         keys.end() - 1));
    handles.front()->close();
}

// The cross-process hand-off: a session drained from one instance and
// installed on a journaled one survives restarts of the installing
// instance in both recovery modes.
TEST(Failover, CrossProcessInstallSurvivesRestart)
{
    TempDirs tmp;
    const std::string dir = tmp.make();
    auto keys = scriptKeys(101);
    auto keys2 = scriptKeys(102);

    // Drain side: an unjournaled instance whose session has consumed
    // two minima.
    std::vector<std::uint8_t> image;
    Addr base = 0;
    {
        ServiceConfig cfg;
        cfg.shards = 1;
        RimeService source(std::move(cfg));
        auto s = source.openSession(scriptSessionConfig());
        base = s->malloc(kRangeBytes).get().addr;
        ASSERT_TRUE(s->storeArray(base, keys).get().ok());
        ASSERT_TRUE(s->init(base, base + kRangeBytes,
                            KeyMode::UnsignedFixed)
                        .get()
                        .ok());
        ASSERT_TRUE(s->min(base, base + kRangeBytes).get().ok());
        ASSERT_TRUE(s->min(base, base + kRangeBytes).get().ok());
        image = source.drainSessionImage(s->id());
        s->detach();
    }
    ASSERT_FALSE(image.empty());
    std::sort(keys.begin(), keys.end());
    std::sort(keys2.begin(), keys2.end());

    Addr base2 = 0;
    {
        RimeService svc(journaledConfig(dir, 3));
        // A tenant that allocated first moves the adopted extent to
        // another local address than the one the client knows.
        SessionConfig other = scriptSessionConfig();
        other.tenant = "beta";
        auto bystander = svc.openSession(other);
        ASSERT_TRUE(bystander->malloc(kRangeBytes).get().ok());
        auto s = svc.installSessionImage(image);
        ASSERT_NE(s, nullptr);
        bystander->close();

        Response r = s->min(base, base + kRangeBytes).get();
        ASSERT_TRUE(r.ok());
        EXPECT_EQ(r.items[0].raw, keys[2]);
        r = s->max(base, base + kRangeBytes).get();
        ASSERT_TRUE(r.ok());
        EXPECT_EQ(r.items[0].raw, keys.back());
        const Response m2 = s->malloc(kRangeBytes).get();
        ASSERT_TRUE(m2.ok());
        base2 = m2.addr;
        ASSERT_TRUE(s->storeArray(base2, scriptKeys(102)).get().ok());
        ASSERT_TRUE(s->init(base2, base2 + kRangeBytes,
                            KeyMode::UnsignedFixed)
                        .get()
                        .ok());
        r = s->min(base2, base2 + kRangeBytes).get();
        ASSERT_TRUE(r.ok());
        EXPECT_EQ(r.items[0].raw, keys2[0]);
        svc.shutdown(); // keep the session open in the journal
    }

    {
        RimeService svc(journaledConfig(dir, 3));
        auto handles = svc.recoveredSessions();
        ASSERT_EQ(handles.size(), 1u);
        Response r = handles.front()->min(base, base + kRangeBytes).get();
        ASSERT_TRUE(r.ok());
        EXPECT_EQ(r.items[0].raw, keys[3]);
        r = handles.front()->min(base2, base2 + kRangeBytes).get();
        ASSERT_TRUE(r.ok());
        EXPECT_EQ(r.items[0].raw, keys2[1]);
        svc.shutdown();
    }

    ASSERT_TRUE(std::filesystem::exists(dir + "/shard0.snapshot"));
    RimeService svc(journaledConfig(dir, 3, RecoveryMode::Snapshot));
    auto handles = svc.recoveredSessions();
    ASSERT_EQ(handles.size(), 1u);
    auto &s = *handles.front();
    const Response rest = s.sort(base, base + kRangeBytes).get();
    ASSERT_TRUE(extractionDone(rest));
    EXPECT_EQ(itemValues(rest),
              std::vector<std::uint64_t>(keys.begin() + 4,
                                         keys.end() - 1));
    const Response rest2 = s.sort(base2, base2 + kRangeBytes).get();
    ASSERT_TRUE(extractionDone(rest2));
    EXPECT_EQ(itemValues(rest2),
              std::vector<std::uint64_t>(keys2.begin() + 2, keys2.end()));
    s.close();
}

// Snapshot-mode recovery of a migrated session whose extents live at
// other local addresses than the client's (a translated base and an
// alias-window allocation).  Shard 1 journals the bystander's open and
// malloc, the Install, the alias malloc and its store; interval 3 puts
// the last snapshot right at the Install, so the session must already
// be in that snapshot, and intervals 1 and 2 snapshot the alias extent
// too.
TEST(Failover, SnapshotModeRestoresMigratedAliasedSession)
{
    for (const std::uint64_t interval : {1u, 2u, 3u}) {
        SCOPED_TRACE(interval);
        TempDirs tmp;
        const std::string dir = tmp.make();
        auto keys = scriptKeys(111);
        auto keys2 = scriptKeys(112);
        Addr base = 0, alias = 0;
        {
            ServiceConfig cfg = journaledConfig(dir, interval);
            cfg.shards = 2;
            RimeService svc(std::move(cfg));
            // A tenant already on shard 1 moves the migrated extent to
            // another local address there.
            SessionConfig other = scriptSessionConfig();
            other.tenant = "beta";
            other.shard = 1;
            auto bystander = svc.openSession(other);
            ASSERT_TRUE(bystander->malloc(kRangeBytes).get().ok());

            auto s = svc.openSession(scriptSessionConfig());
            base = s->malloc(kRangeBytes).get().addr;
            ASSERT_TRUE(s->storeArray(base, keys).get().ok());
            ASSERT_TRUE(s->init(base, base + kRangeBytes,
                                KeyMode::UnsignedFixed)
                            .get()
                            .ok());
            ASSERT_TRUE(s->min(base, base + kRangeBytes).get().ok());
            ASSERT_TRUE(s->min(base, base + kRangeBytes).get().ok());
            ASSERT_EQ(svc.drainShard(0), 1u);
            ASSERT_EQ(s->shard(), 1u);

            const Response m2 = s->malloc(kRangeBytes).get();
            ASSERT_TRUE(m2.ok());
            alias = m2.addr;
            EXPECT_GE(alias, Addr{1} << 62); // the alias window
            ASSERT_TRUE(s->storeArray(alias, keys2).get().ok());
            svc.shutdown(); // keep both sessions open in the journal
        }
        std::sort(keys.begin(), keys.end());
        std::sort(keys2.begin(), keys2.end());

        // The snapshot the restart loads holds the migrated session
        // with its extents at other local addresses.
        ShardSnapshot snap;
        ASSERT_TRUE(readSnapshotFile(dir + "/shard1.snapshot", snap));
        unsigned translated = 0;
        for (const auto &img : snap.sessions) {
            for (const auto &a : img.allocations)
                translated += a.localAddr != a.addr ? 1 : 0;
        }
        EXPECT_EQ(translated, interval == 3 ? 1u : 2u);

        ServiceConfig rcfg =
            journaledConfig(dir, interval, RecoveryMode::Snapshot);
        rcfg.shards = 2;
        RimeService svc(std::move(rcfg));
        auto handles = svc.recoveredSessions();
        ASSERT_EQ(handles.size(), 2u);
        auto &s = *(handles[0]->tenant() == "alpha" ? handles[0]
                                                    : handles[1]);
        ASSERT_EQ(s.tenant(), "alpha");
        Response r = s.min(base, base + kRangeBytes).get();
        ASSERT_TRUE(r.ok());
        EXPECT_EQ(r.items[0].raw, keys[2]);
        ASSERT_TRUE(s.init(alias, alias + kRangeBytes,
                           KeyMode::UnsignedFixed)
                        .get()
                        .ok());
        r = s.min(alias, alias + kRangeBytes).get();
        ASSERT_TRUE(r.ok());
        EXPECT_EQ(r.items[0].raw, keys2[0]);
        const Response rest = s.sort(base, base + kRangeBytes).get();
        ASSERT_TRUE(extractionDone(rest));
        EXPECT_EQ(itemValues(rest),
                  std::vector<std::uint64_t>(keys.begin() + 3, keys.end()));
        const Response rest2 = s.sort(alias, alias + kRangeBytes).get();
        ASSERT_TRUE(extractionDone(rest2));
        EXPECT_EQ(itemValues(rest2),
                  std::vector<std::uint64_t>(keys2.begin() + 1,
                                             keys2.end()));
        for (auto &h : handles)
            h->close();
    }
}

TEST(Failover, MaintainDrainsWornShard)
{
    ServiceConfig cfg;
    cfg.shards = 2;
    cfg.library.device.bitLevel = true;
    cfg.library.device.faults.seed = 3;
    cfg.library.device.faults.wearOutBlockWrites = 40;
    cfg.library.device.faults.spareRowsPerUnit = 2;
    cfg.library.device.faults.spareUnitsPerChip = 1;
    RimeService svc(std::move(cfg));

    // Wear shard 0 out with a scratch session hammering one extent.
    {
        auto scratch = svc.openSession(scriptSessionConfig());
        ASSERT_EQ(scratch->shard(), 0u);
        const Addr sb = scratch->malloc(kRangeBytes).get().addr;
        bool worn = false;
        Rng rng(5);
        for (int round = 0; round < 200 && !worn; ++round) {
            std::vector<std::uint64_t> noise(kKeys);
            for (auto &v : noise)
                v = rng() & 0xFFFFFFFFULL;
            // Stores may legitimately fail once cells freeze; the
            // wear (and the health report) is what matters here.
            (void)scratch->storeArray(sb, noise).get();
            if (round % 10 == 9) {
                const Response h = scratch->health().get();
                ASSERT_TRUE(h.ok());
                worn = h.health.counts.deadUnits > 0 ||
                    h.health.counts.retiredUnits > 0;
            }
        }
        ASSERT_TRUE(worn) << "wear-out never produced dead units";
        scratch->close();
    }

    auto s = svc.openSession(scriptSessionConfig());
    ASSERT_EQ(s->shard(), 0u);
    auto keys = scriptKeys(55);
    const Addr base = s->malloc(kRangeBytes).get().addr;
    ASSERT_TRUE(s->storeArray(base, keys).get().ok());
    ASSERT_TRUE(
        s->init(base, base + kRangeBytes, KeyMode::UnsignedFixed).get().ok());
    std::sort(keys.begin(), keys.end());
    ASSERT_TRUE(s->min(base, base + kRangeBytes).get().ok());

    EXPECT_GE(svc.maintain(), 1u);
    EXPECT_TRUE(svc.loads()[0].draining);
    EXPECT_EQ(s->shard(), 1u);

    const Response next = s->min(base, base + kRangeBytes).get();
    ASSERT_TRUE(next.ok());
    EXPECT_EQ(next.items[0].raw, keys[1]);
    const Response rest = s->sort(base, base + kRangeBytes).get();
    ASSERT_TRUE(extractionDone(rest));
    EXPECT_EQ(itemValues(rest),
              std::vector<std::uint64_t>(keys.begin() + 2, keys.end()));
    s->close();

    // A second maintain() is a no-op: shard 0 is already draining and
    // shard 1 is healthy.
    EXPECT_EQ(svc.maintain(), 0u);
}

// ---------------------------------------------------------------------
// Durability I/O regressions: short writes are resumed (not fatal),
// and a dropped append is fatal (not silent).
// ---------------------------------------------------------------------

namespace
{

int shimCalls = 0;

/** Transfer at most one byte per call; every third call fakes EINTR. */
ssize_t
dribbleShim(int fd, const void *buf, std::size_t len)
{
    if (++shimCalls % 3 == 0) {
        errno = EINTR;
        return -1;
    }
    return ::write(fd, buf, len > 0 ? 1 : 0);
}

/** Restore the real write(2) when a test scope ends. */
struct ShimGuard
{
    explicit ShimGuard(fdio_detail::WriteFn fn)
    {
        shimCalls = 0;
        fdio_detail::writeShim = fn;
    }
    ~ShimGuard() { fdio_detail::writeShim = &::write; }
};

JournalRecord
opRecord(std::uint64_t seq)
{
    JournalRecord rec;
    rec.kind = JournalRecordKind::Op;
    rec.seq = seq;
    rec.sessionId = 7;
    rec.req.kind = RequestKind::Min;
    rec.req.start = seq * 64;
    rec.req.end = seq * 64 + kRangeBytes;
    rec.status = ServiceStatus::Ok;
    return rec;
}

} // namespace

TEST(JournalDurability, ShortWritesAndEintrAreResumedNotFatal)
{
    TempDirs tmp;
    const std::string path = journalPath(tmp.make());

    // Open (header) and every append run against a write(2) that
    // dribbles one byte per call and fails every third call with
    // EINTR -- the worst case the fix must survive without losing or
    // tearing a single committed record.
    {
        ShimGuard guard(&dribbleShim);
        JournalWriter w;
        w.open(path, /*fsync_every_append=*/false);
        for (std::uint64_t seq = 1; seq <= 5; ++seq)
            w.append(seq, encodeRecord(opRecord(seq)));
        w.close();
    }

    const JournalScan scan = readJournal(path);
    EXPECT_EQ(scan.tail, FrameStatus::End);
    ASSERT_EQ(scan.records.size(), 5u);
    EXPECT_EQ(scan.lastSeq, 5u);
    for (std::uint64_t seq = 1; seq <= 5; ++seq) {
        const JournalRecord &rec = scan.records[seq - 1];
        EXPECT_EQ(rec.kind, JournalRecordKind::Op);
        EXPECT_EQ(rec.seq, seq);
        EXPECT_EQ(rec.sessionId, 7u);
        EXPECT_EQ(rec.req.kind, RequestKind::Min);
        EXPECT_EQ(rec.req.start, seq * 64);
    }
}

TEST(JournalDurability, SnapshotPublicationSurvivesShortWrites)
{
    TempDirs tmp;
    const std::string path = tmp.make() + "/shard0.snapshot";

    ShardSnapshot snap;
    snap.seq = 42;
    snap.tick = 12345;
    snap.wordBits = 32;
    SessionImage img;
    img.id = 9;
    img.tenant = "alpha";
    snap.sessions.push_back(img);
    {
        ShimGuard guard(&dribbleShim);
        writeSnapshotFile(path, snap, /*fsync_dir=*/true);
    }

    ShardSnapshot back;
    ASSERT_TRUE(readSnapshotFile(path, back));
    EXPECT_EQ(back.seq, 42u);
    EXPECT_EQ(back.tick, 12345u);
    ASSERT_EQ(back.sessions.size(), 1u);
    EXPECT_EQ(back.sessions[0].id, 9u);
    EXPECT_EQ(back.sessions[0].tenant, "alpha");
    // The tmp file was renamed away, not left beside the snapshot.
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(JournalDurability, AppendWithoutOpenJournalIsFatalNotSilent)
{
    // A journaled shard that loses its journal fd must refuse to keep
    // serving: silently dropping the append would acknowledge ops that
    // can never be recovered.
    JournalWriter w;
    EXPECT_FALSE(w.active());
    EXPECT_THROW(w.append(1, encodeRecord(opRecord(1))), FatalError);
}
