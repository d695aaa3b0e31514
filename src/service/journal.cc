#include "journal.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <csignal>
#include <fstream>
#include <mutex>

#include <fcntl.h>
#include <unistd.h>

#include "common/env.hh"
#include "common/fdio.hh"
#include "common/logging.hh"
#include "service/wire.hh"

namespace rime::service
{

namespace
{

constexpr std::uint32_t kJournalMagic = 0x524A4E4Cu;  // "RJNL"
constexpr std::uint32_t kSnapshotMagic = 0x52534E50u; // "RSNP"
constexpr std::uint64_t kFormatVersion = 1;

std::vector<std::uint8_t>
readWholeFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return {};
    return std::vector<std::uint8_t>(
        std::istreambuf_iterator<char>(in),
        std::istreambuf_iterator<char>());
}

} // namespace

const char *
recoveryModeName(RecoveryMode mode)
{
    switch (mode) {
      case RecoveryMode::Replay:
        return "replay";
      case RecoveryMode::Snapshot:
        return "snapshot";
    }
    return "unknown";
}

DurabilityConfig
DurabilityConfig::fromEnv()
{
    DurabilityConfig config;
    config.dir = envString("RIME_JOURNAL_DIR").value_or("");
    config.snapshotIntervalOps = envU64("RIME_SNAPSHOT_INTERVAL", 0);
    config.fsyncEveryAppend = envU64("RIME_JOURNAL_FSYNC", 0) != 0;
    const std::string mode =
        envString("RIME_RECOVERY_MODE").value_or("replay");
    if (mode == "replay") {
        config.recoveryMode = RecoveryMode::Replay;
    } else if (mode == "snapshot") {
        config.recoveryMode = RecoveryMode::Snapshot;
    } else {
        fatal("RIME_RECOVERY_MODE must be 'replay' or 'snapshot', "
              "got '%s'", mode.c_str());
    }
    return config;
}

// ----------------------------------------------------------------------
// Record codec
// ----------------------------------------------------------------------

std::vector<std::uint8_t>
encodeRecord(const JournalRecord &record)
{
    BitWriter w;
    w.putU8(static_cast<std::uint8_t>(record.kind));
    w.putVarint(record.seq);
    w.putVarint(record.sessionId);
    switch (record.kind) {
      case JournalRecordKind::SessionOpen:
        w.putString(record.tenant);
        w.putVarint(record.weight);
        w.putVarint(record.maxInFlight);
        break;
      case JournalRecordKind::Op:
        wire::encodeRequest(w, record.req);
        w.putU8(static_cast<std::uint8_t>(record.status));
        w.putVarint(record.resultAddr);
        break;
      case JournalRecordKind::Migrated:
      case JournalRecordKind::Install:
        // Both sides of a migration carry the full session image, so
        // a crash anywhere in the hand-off window recovers the
        // session from whichever record landed.
        w.putBytes(record.image.data(), record.image.size());
        break;
      case JournalRecordKind::SessionClose:
      case JournalRecordKind::SnapshotMark:
        break;
    }
    return w.take();
}

bool
decodeRecord(const std::vector<std::uint8_t> &payload,
             JournalRecord &out)
{
    BitReader r(payload);
    out = JournalRecord{};
    const std::uint8_t kind = r.getU8();
    if (kind > static_cast<std::uint8_t>(JournalRecordKind::SnapshotMark))
        return false;
    out.kind = static_cast<JournalRecordKind>(kind);
    out.seq = r.getVarint();
    out.sessionId = r.getVarint();
    switch (out.kind) {
      case JournalRecordKind::SessionOpen:
        out.tenant = r.getString();
        out.weight = static_cast<unsigned>(r.getVarint());
        out.maxInFlight = static_cast<unsigned>(r.getVarint());
        break;
      case JournalRecordKind::Op:
        if (!wire::decodeRequest(r, out.req))
            return false;
        out.status = static_cast<ServiceStatus>(r.getU8());
        out.resultAddr = r.getVarint();
        break;
      case JournalRecordKind::Migrated:
      case JournalRecordKind::Install:
        out.image = r.getBytes();
        break;
      case JournalRecordKind::SessionClose:
      case JournalRecordKind::SnapshotMark:
        break;
    }
    return r.ok();
}

// ----------------------------------------------------------------------
// Session images
// ----------------------------------------------------------------------

std::vector<std::uint8_t>
encodeSessionImage(const SessionImage &image)
{
    BitWriter w;
    w.putVarint(image.id);
    w.putString(image.tenant);
    w.putVarint(image.weight);
    w.putVarint(image.maxInFlight);
    w.putBool(image.closed);
    w.putVarint(image.wordBytes);
    w.putU8(static_cast<std::uint8_t>(image.mode));
    w.putVarint(image.nextAliasOffset);
    w.putVarint(image.allocations.size());
    for (const auto &alloc : image.allocations) {
        w.putVarint(alloc.addr);
        w.putVarint(alloc.localAddr);
        w.putVarint(alloc.bytes);
        w.putVarint(alloc.values.size());
        w.putU64s(alloc.values.data(), alloc.values.size());
    }
    w.putVarint(image.initedRanges.size());
    for (const auto &[start, end] : image.initedRanges) {
        w.putVarint(start);
        w.putVarint(end);
    }
    w.putVarint(image.progress.size());
    for (const auto &p : image.progress) {
        w.putVarint(p.start);
        w.putVarint(p.end);
        w.putBool(p.findMax);
        w.putVarint(p.items);
    }
    return w.take();
}

bool
decodeSessionImage(const std::vector<std::uint8_t> &payload,
                   SessionImage &out)
{
    BitReader r(payload);
    out = SessionImage{};
    out.id = r.getVarint();
    out.tenant = r.getString();
    out.weight = static_cast<unsigned>(r.getVarint());
    out.maxInFlight = static_cast<unsigned>(r.getVarint());
    out.closed = r.getBool();
    out.wordBytes = static_cast<unsigned>(r.getVarint());
    out.mode = static_cast<KeyMode>(r.getU8());
    out.nextAliasOffset = r.getVarint();
    const std::uint64_t n_allocs = r.getVarint();
    for (std::uint64_t i = 0; i < n_allocs && r.ok(); ++i) {
        SessionImage::Allocation alloc;
        alloc.addr = r.getVarint();
        alloc.localAddr = r.getVarint();
        alloc.bytes = r.getVarint();
        const std::uint64_t n_values = r.getVarint();
        if (!r.ok() || n_values > r.bitsLeft() / 64)
            return false;
        alloc.values.resize(n_values);
        if (!r.getU64s(alloc.values.data(), n_values))
            return false;
        out.allocations.push_back(std::move(alloc));
    }
    const std::uint64_t n_ranges = r.getVarint();
    for (std::uint64_t i = 0; i < n_ranges && r.ok(); ++i) {
        const Addr start = r.getVarint();
        const Addr end = r.getVarint();
        out.initedRanges.emplace_back(start, end);
    }
    const std::uint64_t n_progress = r.getVarint();
    for (std::uint64_t i = 0; i < n_progress && r.ok(); ++i) {
        SessionImage::Progress p;
        p.start = r.getVarint();
        p.end = r.getVarint();
        p.findMax = r.getBool();
        p.items = r.getVarint();
        out.progress.push_back(p);
    }
    return r.ok();
}

// ----------------------------------------------------------------------
// Crash points
// ----------------------------------------------------------------------

namespace
{

struct CrashSpec
{
    std::string point;
    std::uint64_t hitTarget = 0;
    std::uint64_t seqTarget = 0;
};

const CrashSpec &
crashSpec()
{
    static const CrashSpec spec = [] {
        CrashSpec s;
        if (auto raw = envString("RIME_CRASH_POINT")) {
            const auto colon = raw->rfind(':');
            if (colon == std::string::npos || colon == 0)
                fatal("RIME_CRASH_POINT must be '<point>:<n>', got "
                      "'%s'", raw->c_str());
            s.point = raw->substr(0, colon);
            char *end = nullptr;
            const std::string count = raw->substr(colon + 1);
            s.hitTarget = std::strtoull(count.c_str(), &end, 10);
            if (end == count.c_str() || *end != '\0' ||
                s.hitTarget == 0) {
                fatal("RIME_CRASH_POINT hit count must be a positive "
                      "integer, got '%s'", count.c_str());
            }
        }
        s.seqTarget = envU64("RIME_CRASH_AT_SEQ", 0);
        return s;
    }();
    return spec;
}

/** Serializes hit counting across shard controller threads. */
std::mutex crashMutex;

[[noreturn]] void
dieNow()
{
    // SIGKILL: no destructors, no flushes -- the crash the journal
    // must survive.  raise() returning would be a kernel bug; abort
    // covers the unreachable path for the compiler.
    ::raise(SIGKILL);
    std::abort();
}

} // namespace

void
crashPoint(const char *name)
{
    const CrashSpec &spec = crashSpec();
    if (spec.point.empty() || spec.point != name)
        return;
    static std::uint64_t hits = 0;
    std::lock_guard<std::mutex> lock(crashMutex);
    if (++hits == spec.hitTarget)
        dieNow();
}

void
crashAtSeq(std::uint64_t seq)
{
    const CrashSpec &spec = crashSpec();
    if (spec.seqTarget != 0 && seq >= spec.seqTarget)
        dieNow();
}

// ----------------------------------------------------------------------
// Journal file I/O
// ----------------------------------------------------------------------

JournalWriter::~JournalWriter()
{
    close();
}

void
JournalWriter::open(const std::string &path, bool fsync_every_append)
{
    close();
    fsync_ = fsync_every_append;
    fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd_ < 0) {
        fatal("cannot open journal '%s': %s", path.c_str(),
              std::strerror(errno));
    }
    // Size (not existence) decides whether a header is due: recovery
    // truncates a journal whose *header* frame was torn back to zero.
    if (::lseek(fd_, 0, SEEK_END) == 0) {
        BitWriter w;
        w.putU32(kJournalMagic);
        w.putVarint(kFormatVersion);
        std::vector<std::uint8_t> framed;
        appendFrame(framed, w.bytes());
        if (!writeFully(fd_, framed.data(), framed.size())) {
            fatal("cannot write journal header '%s': %s",
                  path.c_str(), std::strerror(errno));
        }
        crashPoint("journal-create");
        // The file itself is durable only once its *directory entry*
        // is: a first-time create needs the parent dir synced too.
        if (fsync_) {
            if (::fsync(fd_) != 0) {
                fatal("cannot fsync new journal '%s': %s",
                      path.c_str(), std::strerror(errno));
            }
            if (!fsyncParentDir(path)) {
                fatal("cannot fsync journal directory of '%s': %s",
                      path.c_str(), std::strerror(errno));
            }
        }
    }
}

void
JournalWriter::bufferAppend(std::uint64_t seq,
                            const std::vector<std::uint8_t> &payload)
{
    // A closed/never-opened journal must not silently drop the
    // record: that would leave committed ops outside the journaled
    // set and recovery would roll them back.  The caller gates on
    // active(), so reaching here with no fd is a WAL-discipline bug.
    if (fd_ < 0) {
        fatal("journal append (seq %llu) with no open journal: "
              "committed ops would not be recoverable",
              static_cast<unsigned long long>(seq));
    }
    appendFrame(batch_, payload);
    batchLastSeq_ = seq;
}

void
JournalWriter::commitBatch()
{
    if (batch_.empty())
        return;
    if (fd_ < 0) {
        fatal("journal commit (through seq %llu) with no open "
              "journal: committed ops would not be recoverable",
              static_cast<unsigned long long>(batchLastSeq_));
    }
    crashPoint("journal-append");
    if (!writeFully(fd_, batch_.data(), batch_.size())) {
        fatal("journal append failed (%zu bytes): %s", batch_.size(),
              std::strerror(errno));
    }
    crashPoint("journal-flush");
    // A failed fsync means the kernel could not promise durability;
    // carrying on would acknowledge ops that may not survive power
    // loss, so it is as fatal as a short write.
    if (fsync_ && ::fsync(fd_) != 0) {
        fatal("journal fsync failed (through seq %llu): %s",
              static_cast<unsigned long long>(batchLastSeq_),
              std::strerror(errno));
    }
    crashPoint("batch-commit");
    const std::uint64_t last = batchLastSeq_;
    batch_.clear();
    batchLastSeq_ = 0;
    crashAtSeq(last);
}

void
JournalWriter::append(std::uint64_t seq,
                      const std::vector<std::uint8_t> &payload)
{
    bufferAppend(seq, payload);
    commitBatch();
}

void
JournalWriter::close()
{
    if (fd_ >= 0) {
        // Never drop buffered records on the floor: a batch still
        // pending at close commits first (its futures were not
        // acknowledged, but the shutdown path may complete them
        // right after).
        commitBatch();
        ::close(fd_);
        fd_ = -1;
    }
}

JournalScan
readJournal(const std::string &path)
{
    JournalScan scan;
    const std::vector<std::uint8_t> data = readWholeFile(path);
    if (data.empty())
        return scan;

    std::size_t offset = 0;
    std::vector<std::uint8_t> payload;
    scan.tail = readFrame(data.data(), data.size(), offset, payload);
    if (scan.tail != FrameStatus::Ok)
        return scan; // header torn: nothing usable behind it
    BitReader header(payload);
    if (header.getU32() != kJournalMagic ||
        header.getVarint() != kFormatVersion || !header.ok()) {
        scan.tail = FrameStatus::Corrupt;
        return scan;
    }
    scan.cleanBytes = offset;

    while (true) {
        scan.tail = readFrame(data.data(), data.size(), offset,
                              payload);
        if (scan.tail != FrameStatus::Ok)
            break;
        JournalRecord record;
        if (!decodeRecord(payload, record)) {
            scan.tail = FrameStatus::Corrupt;
            break;
        }
        scan.cleanBytes = offset;
        scan.lastSeq = record.seq;
        scan.records.push_back(std::move(record));
    }
    return scan;
}

// ----------------------------------------------------------------------
// Snapshot files
// ----------------------------------------------------------------------

void
writeSnapshotFile(const std::string &path,
                  const ShardSnapshot &snapshot, bool fsync_dir)
{
    crashPoint("snapshot-begin");
    std::vector<std::uint8_t> out;
    {
        BitWriter header;
        header.putU32(kSnapshotMagic);
        header.putVarint(kFormatVersion);
        header.putVarint(snapshot.seq);
        header.putVarint(snapshot.tick);
        header.putVarint(snapshot.wordBits);
        header.putU8(static_cast<std::uint8_t>(snapshot.mode));
        header.putVarint(snapshot.sessions.size());
        appendFrame(out, header.bytes());
    }
    appendFrame(out, snapshot.driverState);
    for (const auto &image : snapshot.sessions)
        appendFrame(out, encodeSessionImage(image));

    const std::string tmp = path + ".tmp";
    const int fd = ::open(tmp.c_str(),
                          O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) {
        fatal("cannot write snapshot '%s': %s", tmp.c_str(),
              std::strerror(errno));
    }
    if (!writeFully(fd, out.data(), out.size())) {
        fatal("snapshot write failed '%s': %s", tmp.c_str(),
              std::strerror(errno));
    }
    // An unsynced snapshot that the rename then publishes could be
    // read back torn after a power cut; a failed fsync is fatal here
    // for the same reason it is on the journal path.
    if (::fsync(fd) != 0) {
        fatal("snapshot fsync failed '%s': %s", tmp.c_str(),
              std::strerror(errno));
    }
    ::close(fd);
    crashPoint("snapshot-written");
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        fatal("cannot publish snapshot '%s': %s", path.c_str(),
              std::strerror(errno));
    }
    crashPoint("snapshot-renamed");
    // The rename is only durable once the directory entry is synced;
    // without this a host crash can resurrect the previous snapshot
    // (or lose the file) despite the data fsync above.
    if (fsync_dir && !fsyncParentDir(path)) {
        fatal("cannot fsync snapshot directory of '%s': %s",
              path.c_str(), std::strerror(errno));
    }
    crashPoint("snapshot-done");
}

bool
readSnapshotFile(const std::string &path, ShardSnapshot &out)
{
    const std::vector<std::uint8_t> data = readWholeFile(path);
    if (data.empty())
        return false;
    std::size_t offset = 0;
    std::vector<std::uint8_t> payload;
    if (readFrame(data.data(), data.size(), offset, payload) !=
        FrameStatus::Ok) {
        return false;
    }
    BitReader header(payload);
    if (header.getU32() != kSnapshotMagic ||
        header.getVarint() != kFormatVersion) {
        return false;
    }
    out = ShardSnapshot{};
    out.seq = header.getVarint();
    out.tick = header.getVarint();
    out.wordBits = static_cast<unsigned>(header.getVarint());
    out.mode = static_cast<KeyMode>(header.getU8());
    const std::uint64_t n_sessions = header.getVarint();
    if (!header.ok())
        return false;
    if (readFrame(data.data(), data.size(), offset, out.driverState) !=
        FrameStatus::Ok) {
        return false;
    }
    for (std::uint64_t i = 0; i < n_sessions; ++i) {
        if (readFrame(data.data(), data.size(), offset, payload) !=
            FrameStatus::Ok) {
            return false;
        }
        SessionImage image;
        if (!decodeSessionImage(payload, image))
            return false;
        out.sessions.push_back(std::move(image));
    }
    return true;
}

} // namespace rime::service
