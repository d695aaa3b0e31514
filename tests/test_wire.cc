/**
 * @file
 * Wire-protocol tests: a remote RimeClient driving a RimeServer over
 * TCP and Unix-domain sockets must be indistinguishable from holding
 * an in-process Session -- same responses for the same script, and
 * (under deterministic scheduling) a bit-identical stat dump.
 *
 * The protocol-robustness half talks to the server with a raw socket:
 * a handshake frame delivered one byte at a time must still be parsed
 * (Truncated = wait for more, never an error), and a flipped payload
 * bit must be answered with a wire Error and a closed connection --
 * never undefined behaviour, never a misparsed request.
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/bitio.hh"
#include "common/fdio.hh"
#include "common/rng.hh"
#include "net/client.hh"
#include "net/poller.hh"
#include "net/server.hh"
#include "net/socket.hh"
#include "service/journal.hh"
#include "service/service.hh"
#include "service/wire.hh"

using namespace rime;
using namespace rime::service;
using namespace rime::net;
namespace wire = rime::service::wire;

namespace
{

// Default the global scan pool to inline -- but let CI override with
// RIME_THREADS=N: the lockstep test's wire-vs-in-process stat dump
// comparison must hold for any pool size, and the CI wire smoke runs
// it at 1 and 4 threads.
const bool kSingleThreadedPool = [] {
    ::setenv("RIME_THREADS", "1", /*overwrite=*/0);
    return true;
}();

constexpr std::size_t kKeys = 48;
constexpr std::uint64_t kRangeBytes = kKeys * sizeof(std::uint32_t);

std::vector<std::uint64_t>
scriptKeys(std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::uint64_t> keys(kKeys);
    for (auto &k : keys)
        k = rng() & 0xFFFFFFFFULL;
    return keys;
}

/** The full-session script: malloc, store, init, topK, sort, free. */
std::vector<Request>
scriptRequests(Addr base)
{
    std::vector<Request> reqs;
    Request r;
    r.kind = RequestKind::Malloc;
    r.bytes = kRangeBytes;
    reqs.push_back(r);

    r = Request();
    r.kind = RequestKind::StoreArray;
    r.start = base;
    r.values = scriptKeys(17);
    reqs.push_back(r);

    r = Request();
    r.kind = RequestKind::Init;
    r.start = base;
    r.end = base + kRangeBytes;
    r.mode = KeyMode::UnsignedFixed;
    r.wordBits = 32;
    reqs.push_back(r);

    r = Request();
    r.kind = RequestKind::TopK;
    r.start = base;
    r.end = base + kRangeBytes;
    r.count = 5;
    reqs.push_back(r);

    r = Request();
    r.kind = RequestKind::Sort;
    r.start = base;
    r.end = base + kRangeBytes;
    reqs.push_back(r);

    r = Request();
    r.kind = RequestKind::Free;
    r.start = base;
    reqs.push_back(r);
    return reqs;
}

/** The deterministic Response fields (no ticks, no queue timings). */
void
expectSameResponse(const Response &got, const Response &want,
                   std::size_t op)
{
    SCOPED_TRACE("op " + std::to_string(op));
    EXPECT_EQ(got.status, want.status);
    EXPECT_EQ(got.addr, want.addr);
    ASSERT_EQ(got.items.size(), want.items.size());
    for (std::size_t i = 0; i < got.items.size(); ++i) {
        EXPECT_EQ(got.items[i].raw, want.items[i].raw);
        EXPECT_EQ(got.items[i].index, want.items[i].index);
    }
}

/** Run the script in-process and collect every Response. */
std::vector<Response>
runInProcess(ServiceConfig cfg)
{
    RimeService svc(std::move(cfg));
    auto s = svc.openSession(SessionConfig{});
    std::vector<Response> out;
    Addr base = 0;
    // First the Malloc (to learn the base), then the rest.
    {
        Request r;
        r.kind = RequestKind::Malloc;
        r.bytes = kRangeBytes;
        out.push_back(s->call(std::move(r)));
        base = out.back().addr;
    }
    auto reqs = scriptRequests(base);
    for (std::size_t i = 1; i < reqs.size(); ++i)
        out.push_back(s->call(std::move(reqs[i])));
    s->close();
    return out;
}

/** Run the script through a RimeClient and collect every Response. */
std::vector<Response>
runOverWire(RimeClient &client)
{
    const std::uint64_t session = client.openSession("tenant");
    EXPECT_NE(session, 0u);
    std::vector<Response> out;
    Addr base = 0;
    {
        Request r;
        r.kind = RequestKind::Malloc;
        r.bytes = kRangeBytes;
        out.push_back(client.call(session, std::move(r)));
        base = out.back().addr;
    }
    auto reqs = scriptRequests(base);
    for (std::size_t i = 1; i < reqs.size(); ++i)
        out.push_back(client.call(session, std::move(reqs[i])));
    EXPECT_TRUE(client.closeSession(session));
    return out;
}

/** Scoped temp dir for Unix socket paths. */
struct TempDir
{
    std::string dir;
    TempDir()
    {
        std::string tmpl = "/tmp/rime_wire_XXXXXX";
        const char *d = ::mkdtemp(tmpl.data());
        EXPECT_NE(d, nullptr);
        dir = d ? d : "";
    }
    ~TempDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(dir, ec);
    }
};

/**
 * Blockingly read one complete frame off a raw connected socket.
 * Returns Ok/Corrupt per readFrame, or Truncated when the peer closed
 * (or `timeout_ms` elapsed) before a full frame arrived.
 */
FrameStatus
readOneFrame(int fd, std::vector<std::uint8_t> &payload,
             int timeout_ms = 5000)
{
    std::vector<std::uint8_t> in;
    const auto deadline = std::chrono::steady_clock::now() +
        std::chrono::milliseconds(timeout_ms);
    while (std::chrono::steady_clock::now() < deadline) {
        std::size_t offset = 0;
        const FrameStatus status =
            readFrame(in.data(), in.size(), offset, payload);
        if (status == FrameStatus::Ok || status == FrameStatus::Corrupt)
            return status;
        char buf[4096];
        const ssize_t got = ::recv(fd, buf, sizeof(buf), 0);
        if (got == 0)
            return FrameStatus::Truncated; // peer closed mid-frame
        if (got < 0) {
            if (errno == EINTR)
                continue;
            return FrameStatus::Truncated;
        }
        in.insert(in.end(), buf, buf + got);
    }
    return FrameStatus::Truncated;
}

/**
 * Installs a sendvShim that parks every socket send until release(),
 * then forwards it to the real send: a client writer delayed between
 * taking its connection and writing to it.  Restores the real send on
 * destruction.
 */
class SendGate
{
  public:
    SendGate()
    {
        held_ = false;
        released_ = false;
        heldFd_ = -1;
        real_ = fdio_detail::sendvShim;
        fdio_detail::sendvShim = &SendGate::shim;
    }

    ~SendGate()
    {
        release();
        fdio_detail::sendvShim = real_;
    }

    SendGate(const SendGate &) = delete;
    SendGate &operator=(const SendGate &) = delete;

    /** Wait for a writer to park; returns the fd it is writing to. */
    int
    waitHeld()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [] { return held_; });
        return heldFd_;
    }

    void
    release()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            released_ = true;
        }
        cv_.notify_all();
    }

  private:
    static ssize_t
    shim(int fd, const struct iovec *iov, int iovcnt)
    {
        {
            std::unique_lock<std::mutex> lock(mutex_);
            held_ = true;
            heldFd_ = fd;
            cv_.notify_all();
            cv_.wait(lock, [] { return released_; });
        }
        return real_(fd, iov, iovcnt);
    }

    static inline std::mutex mutex_;
    static inline std::condition_variable cv_;
    static inline bool held_ = false;
    static inline bool released_ = false;
    static inline int heldFd_ = -1;
    static inline fdio_detail::SendvFn real_ = nullptr;
};

/** One Health request, as a one-element batch. */
std::vector<Request>
oneHealth()
{
    Request r;
    r.kind = RequestKind::Health;
    return {r};
}

std::vector<std::uint8_t>
encodedHello()
{
    wire::Message hello;
    hello.kind = wire::MessageKind::Hello;
    hello.corrId = 7;
    std::vector<std::uint8_t> framed;
    wire::encodeMessage(framed, hello);
    return framed;
}

} // namespace

// ---------------------------------------------------------------------
// Codec round trips.
// ---------------------------------------------------------------------

TEST(WireCodec, MessageKindsRoundTrip)
{
    std::vector<wire::Message> msgs;

    wire::Message m;
    m.kind = wire::MessageKind::Hello;
    m.corrId = 1;
    msgs.push_back(m);

    m = wire::Message();
    m.kind = wire::MessageKind::Welcome;
    m.corrId = 1;
    m.shards = 4;
    msgs.push_back(m);

    m = wire::Message();
    m.kind = wire::MessageKind::OpenSession;
    m.corrId = 2;
    m.tenant = "alpha";
    m.weight = 3;
    m.maxInFlight = 16;
    msgs.push_back(m);

    m = wire::Message();
    m.kind = wire::MessageKind::SessionOpened;
    m.corrId = 2;
    m.sessionId = 42;
    m.status = ServiceStatus::Ok;
    msgs.push_back(m);

    m = wire::Message();
    m.kind = wire::MessageKind::Request;
    m.corrId = 3;
    m.sessionId = 42;
    m.req.kind = RequestKind::TopK;
    m.req.start = 0x1000;
    m.req.end = 0x10C0;
    m.req.count = 5;
    m.req.largest = true;
    msgs.push_back(m);

    m = wire::Message();
    m.kind = wire::MessageKind::Response;
    m.corrId = 3;
    m.resp.status = ServiceStatus::Ok;
    m.resp.items = {{123, 4}, {456, 7}};
    m.resp.shardTick = 99;
    msgs.push_back(m);

    m = wire::Message();
    m.kind = wire::MessageKind::StatDump;
    m.corrId = 4;
    m.includeHost = true;
    msgs.push_back(m);

    m = wire::Message();
    m.kind = wire::MessageKind::StatDumpReply;
    m.corrId = 4;
    m.text = "{\"a\": 1}";
    msgs.push_back(m);

    m = wire::Message();
    m.kind = wire::MessageKind::Error;
    m.corrId = 0;
    m.error = wire::WireError::BadFrame;
    m.text = "checksum mismatch";
    msgs.push_back(m);

    for (const auto &msg : msgs) {
        SCOPED_TRACE(wire::messageKindName(msg.kind));
        std::vector<std::uint8_t> framed;
        wire::encodeMessage(framed, msg);
        std::size_t offset = 0;
        std::vector<std::uint8_t> payload;
        ASSERT_EQ(readFrame(framed.data(), framed.size(), offset,
                            payload),
                  FrameStatus::Ok);
        EXPECT_EQ(offset, framed.size());
        wire::Message back;
        ASSERT_TRUE(wire::decodeMessage(payload, back));
        EXPECT_EQ(back.kind, msg.kind);
        EXPECT_EQ(back.corrId, msg.corrId);
        EXPECT_EQ(back.sessionId, msg.sessionId);
        EXPECT_EQ(back.tenant, msg.tenant);
        EXPECT_EQ(back.text, msg.text);
        EXPECT_EQ(back.error, msg.error);
        EXPECT_EQ(back.req.kind, msg.req.kind);
        EXPECT_EQ(back.req.count, msg.req.count);
        EXPECT_EQ(back.req.largest, msg.req.largest);
        ASSERT_EQ(back.resp.items.size(), msg.resp.items.size());
        for (std::size_t i = 0; i < msg.resp.items.size(); ++i) {
            EXPECT_EQ(back.resp.items[i].raw, msg.resp.items[i].raw);
            EXPECT_EQ(back.resp.items[i].index,
                      msg.resp.items[i].index);
        }
    }
}

TEST(WireCodec, StoreArrayGoldenBytes)
{
    // Frozen format: a StoreArray's values follow the 1-bit `largest`
    // flag, so they sit at bit phase 1 in both the wire frame and the
    // journal Op record.  The sizes and checksums were recorded from
    // the field-at-a-time codec; any codec change must keep them.
    wire::Message msg;
    msg.kind = wire::MessageKind::Request;
    msg.corrId = 12345;
    msg.sessionId = 7;
    msg.req.kind = RequestKind::StoreArray;
    msg.req.start = 4096;
    msg.req.largest = true;
    msg.req.wordBits = 32;
    for (std::uint64_t i = 0; i < 37; ++i)
        msg.req.values.push_back((i + 1) * 0x9E3779B97F4A7C15ull);

    std::vector<std::uint8_t> framed;
    wire::encodeMessage(framed, msg);
    EXPECT_EQ(framed.size(), 319u);
    EXPECT_EQ(crc32(framed.data(), framed.size()), 0xf8025d77u);

    JournalRecord record;
    record.kind = JournalRecordKind::Op;
    record.seq = 42;
    record.sessionId = 7;
    record.req = msg.req;
    const auto payload = encodeRecord(record);
    EXPECT_EQ(payload.size(), 312u);
    EXPECT_EQ(crc32(payload.data(), payload.size()), 0x290201f5u);

    // And both decode back to the values.
    std::size_t offset = 0;
    std::vector<std::uint8_t> body;
    ASSERT_EQ(readFrame(framed.data(), framed.size(), offset, body),
              FrameStatus::Ok);
    wire::Message back;
    ASSERT_TRUE(wire::decodeMessage(body, back));
    EXPECT_EQ(back.req.values, msg.req.values);
    JournalRecord replayed;
    ASSERT_TRUE(decodeRecord(payload, replayed));
    EXPECT_EQ(replayed.req.values, msg.req.values);
}

// ---------------------------------------------------------------------
// A remote client is indistinguishable from an in-process session.
// ---------------------------------------------------------------------

TEST(WireSession, FullScriptOverTcpMatchesInProcess)
{
    const std::vector<Response> want = runInProcess(ServiceConfig{});

    RimeService svc{ServiceConfig{}};
    RimeServer server(svc, {.tcp = "tcp:127.0.0.1:0"});
    ASSERT_TRUE(server.start());
    ASSERT_NE(server.tcpPort(), 0);

    ClientConfig ccfg;
    ccfg.endpoint =
        "tcp:127.0.0.1:" + std::to_string(server.tcpPort());
    RimeClient client(ccfg);
    ASSERT_TRUE(client.connect());
    EXPECT_EQ(client.shards(), 1u);

    const std::vector<Response> got = runOverWire(client);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        expectSameResponse(got[i], want[i], i);
    EXPECT_EQ(client.protocolErrors(), 0u);
    EXPECT_EQ(server.protocolErrors(), 0u);
    EXPECT_GE(server.requestsServed(), 6u);

    client.disconnect();
    server.stop();
}

TEST(WireSession, FullScriptOverUnixMatchesInProcess)
{
    const std::vector<Response> want = runInProcess(ServiceConfig{});

    TempDir tmp;
    const std::string path = tmp.dir + "/rime.sock";
    RimeService svc{ServiceConfig{}};
    RimeServer server(svc, {.unixPath = "unix:" + path});
    ASSERT_TRUE(server.start());
    EXPECT_EQ(server.unixSocketPath(), path);

    RimeClient client({.endpoint = "unix:" + path});
    ASSERT_TRUE(client.connect());

    const std::vector<Response> got = runOverWire(client);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        expectSameResponse(got[i], want[i], i);
    EXPECT_EQ(client.protocolErrors(), 0u);
    EXPECT_EQ(server.protocolErrors(), 0u);

    client.disconnect();
    server.stop();
    EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(WireSession, PipelinedWindowCompletesEveryFuture)
{
    RimeService svc{ServiceConfig{}};
    RimeServer server(svc, {.tcp = "tcp:127.0.0.1:0"});
    ASSERT_TRUE(server.start());

    RimeClient client(
        {.endpoint =
             "tcp:127.0.0.1:" + std::to_string(server.tcpPort())});
    ASSERT_TRUE(client.connect());
    const std::uint64_t session =
        client.openSession("pipeline", 1, /*max_in_flight=*/8);
    ASSERT_NE(session, 0u);

    Request r;
    r.kind = RequestKind::Malloc;
    r.bytes = kRangeBytes;
    const Response malloced = client.call(session, std::move(r));
    ASSERT_TRUE(malloced.ok());
    const Addr base = malloced.addr;

    auto keys = scriptKeys(23);
    r = Request();
    r.kind = RequestKind::StoreArray;
    r.start = base;
    r.values = keys;
    ASSERT_TRUE(client.call(session, std::move(r)).ok());
    r = Request();
    r.kind = RequestKind::Init;
    r.start = base;
    r.end = base + kRangeBytes;
    r.mode = KeyMode::UnsignedFixed;
    r.wordBits = 32;
    ASSERT_TRUE(client.call(session, std::move(r)).ok());
    std::sort(keys.begin(), keys.end());

    // A depth-8 pipelined window of Min extractions: every future
    // completes, in submission order, with the next ascending key.
    constexpr std::size_t kDepth = 8;
    constexpr std::size_t kTotal = 32;
    std::vector<std::future<Response>> window;
    std::size_t submitted = 0, consumed = 0;
    while (consumed < kTotal) {
        while (submitted < kTotal && window.size() < kDepth) {
            Request m;
            m.kind = RequestKind::Min;
            m.start = base;
            m.end = base + kRangeBytes;
            window.push_back(client.submit(session, std::move(m)));
            ++submitted;
        }
        const Response resp = window.front().get();
        window.erase(window.begin());
        ASSERT_TRUE(resp.ok()) << "extraction " << consumed;
        ASSERT_EQ(resp.items.size(), 1u);
        EXPECT_EQ(resp.items[0].raw, keys[consumed]);
        ++consumed;
    }

    EXPECT_TRUE(client.closeSession(session));
    EXPECT_EQ(client.protocolErrors(), 0u);
    EXPECT_EQ(client.transportErrors(), 0u);
    // Every completion woke the loop itself; none waited for the
    // poll safety net.
    EXPECT_EQ(server.timeoutWakes(), 0u);
    client.disconnect();
    server.stop();
}

// ---------------------------------------------------------------------
// Lockstep determinism survives the wire: the stat dump of a remote
// run is bit-identical to the same script served in-process.
// ---------------------------------------------------------------------

TEST(WireSession, LockstepStatDumpBitIdenticalToInProcess)
{
    ServiceConfig det;
    det.scheduler.deterministic = true;
    std::string want;
    {
        RimeService svc(std::move(det));
        auto s = svc.openSession(SessionConfig{});
        svc.start();
        Addr base = 0;
        {
            Request r;
            r.kind = RequestKind::Malloc;
            r.bytes = kRangeBytes;
            const Response resp = s->call(std::move(r));
            base = resp.addr;
        }
        auto reqs = scriptRequests(base);
        for (std::size_t i = 1; i < reqs.size(); ++i)
            s->call(std::move(reqs[i]));
        s->close();
        want = svc.statDumpJson(false);
    }

    ServiceConfig det2;
    det2.scheduler.deterministic = true;
    RimeService svc{std::move(det2)};
    RimeServer server(svc, {.tcp = "tcp:127.0.0.1:0"});
    ASSERT_TRUE(server.start());
    RimeClient client(
        {.endpoint =
             "tcp:127.0.0.1:" + std::to_string(server.tcpPort())});
    ASSERT_TRUE(client.connect());

    const std::uint64_t session = client.openSession("tenant");
    ASSERT_NE(session, 0u);
    ASSERT_TRUE(client.start());
    Addr base = 0;
    {
        Request r;
        r.kind = RequestKind::Malloc;
        r.bytes = kRangeBytes;
        base = client.call(session, std::move(r)).addr;
    }
    auto reqs = scriptRequests(base);
    for (std::size_t i = 1; i < reqs.size(); ++i)
        client.call(session, std::move(reqs[i]));
    ASSERT_TRUE(client.closeSession(session));

    const std::string got = client.statDump(false);
    EXPECT_FALSE(got.empty());
    EXPECT_EQ(got, want)
        << "wire-served stat dump diverged from in-process";

    client.disconnect();
    server.stop();
}

// ---------------------------------------------------------------------
// Protocol robustness against a raw socket.
// ---------------------------------------------------------------------

TEST(WireProtocol, HelloDeliveredOneByteAtATimeStillWelcomes)
{
    RimeService svc{ServiceConfig{}};
    RimeServer server(svc, {.tcp = "tcp:127.0.0.1:0"});
    ASSERT_TRUE(server.start());
    Endpoint ep;
    ASSERT_TRUE(parseEndpoint(
        "tcp:127.0.0.1:" + std::to_string(server.tcpPort()), ep));

    const std::vector<std::uint8_t> framed = encodedHello();

    // Cut the frame at every byte boundary: the server must treat the
    // partial frame as Truncated (wait), then answer the completed
    // frame with a Welcome -- exactly once, on every cut.
    for (std::size_t cut = 0; cut <= framed.size(); ++cut) {
        SCOPED_TRACE("cut at byte " + std::to_string(cut));
        const int fd = connectSocket(ep, 2000);
        ASSERT_GE(fd, 0);
        if (cut > 0)
            ASSERT_TRUE(writeFully(fd, framed.data(), cut));
        // Give the event loop a chance to see (and park) the prefix.
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        if (cut < framed.size()) {
            ASSERT_TRUE(writeFully(fd, framed.data() + cut,
                                   framed.size() - cut));
        }
        std::vector<std::uint8_t> payload;
        ASSERT_EQ(readOneFrame(fd, payload), FrameStatus::Ok);
        wire::Message welcome;
        ASSERT_TRUE(wire::decodeMessage(payload, welcome));
        EXPECT_EQ(welcome.kind, wire::MessageKind::Welcome);
        EXPECT_EQ(welcome.corrId, 7u);
        EXPECT_EQ(welcome.magic, wire::kWireMagic);
        ::close(fd);
    }
    EXPECT_EQ(server.protocolErrors(), 0u);
    server.stop();
}

TEST(WireProtocol, FlippedBitIsAnErrorReplyNeverUB)
{
    RimeService svc{ServiceConfig{}};
    RimeServer server(svc, {.tcp = "tcp:127.0.0.1:0"});
    ASSERT_TRUE(server.start());
    Endpoint ep;
    ASSERT_TRUE(parseEndpoint(
        "tcp:127.0.0.1:" + std::to_string(server.tcpPort()), ep));

    const std::vector<std::uint8_t> framed = encodedHello();
    std::uint64_t expectErrors = 0;

    // Flip every bit of the CRC word and the payload in turn (the
    // length word is exercised separately below: a huge length is
    // "wait for more bytes", not provably corrupt).  Each flip must
    // produce a wire Error (or an immediate close) -- never a Welcome,
    // never a hang, never UB.
    for (std::size_t bit = 4 * 8; bit < framed.size() * 8; ++bit) {
        SCOPED_TRACE("flipped bit " + std::to_string(bit));
        std::vector<std::uint8_t> bad = framed;
        bad[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        const int fd = connectSocket(ep, 2000);
        ASSERT_GE(fd, 0);
        ASSERT_TRUE(writeFully(fd, bad.data(), bad.size()));
        std::vector<std::uint8_t> payload;
        const FrameStatus status = readOneFrame(fd, payload);
        if (status == FrameStatus::Ok) {
            wire::Message reply;
            ASSERT_TRUE(wire::decodeMessage(payload, reply));
            EXPECT_EQ(reply.kind, wire::MessageKind::Error)
                << "server answered a corrupted Hello with "
                << wire::messageKindName(reply.kind);
        } else {
            // The server closed before the Error flushed; fine too.
            EXPECT_EQ(status, FrameStatus::Truncated);
        }
        ++expectErrors;
        ::close(fd);
    }

    // An absurd length prefix must be rejected outright.
    {
        std::vector<std::uint8_t> absurd(8, 0xFF);
        const int fd = connectSocket(ep, 2000);
        ASSERT_GE(fd, 0);
        ASSERT_TRUE(writeFully(fd, absurd.data(), absurd.size()));
        std::vector<std::uint8_t> payload;
        const FrameStatus status = readOneFrame(fd, payload);
        if (status == FrameStatus::Ok) {
            wire::Message reply;
            ASSERT_TRUE(wire::decodeMessage(payload, reply));
            EXPECT_EQ(reply.kind, wire::MessageKind::Error);
        }
        ++expectErrors;
        ::close(fd);
    }

    // Every corrupted connection was counted, and the server is still
    // healthy enough to serve a clean client.
    const auto deadline = std::chrono::steady_clock::now() +
        std::chrono::seconds(5);
    while (server.protocolErrors() < expectErrors &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_EQ(server.protocolErrors(), expectErrors);

    RimeClient client(
        {.endpoint =
             "tcp:127.0.0.1:" + std::to_string(server.tcpPort())});
    ASSERT_TRUE(client.connect());
    const std::uint64_t session = client.openSession("survivor");
    EXPECT_NE(session, 0u);
    EXPECT_TRUE(client.closeSession(session));
    client.disconnect();
    server.stop();
}

TEST(WireProtocol, UnknownSessionFailsTheConnectionNotTheServer)
{
    RimeService svc{ServiceConfig{}};
    RimeServer server(svc, {.tcp = "tcp:127.0.0.1:0"});
    ASSERT_TRUE(server.start());

    RimeClient client(
        {.endpoint =
             "tcp:127.0.0.1:" + std::to_string(server.tcpPort())});
    ASSERT_TRUE(client.connect());

    Request r;
    r.kind = RequestKind::Health;
    const Response resp = client.call(9999, std::move(r));
    // The server answers Error(UnknownSession) and drops the
    // connection; the pending future completes Closed.
    EXPECT_EQ(resp.status, ServiceStatus::Closed);
    EXPECT_GE(client.protocolErrors() + client.transportErrors(), 1u);

    // A fresh connection with a real session still works.
    ASSERT_TRUE(client.connect());
    const std::uint64_t session = client.openSession("tenant");
    ASSERT_NE(session, 0u);
    Request h;
    h.kind = RequestKind::Health;
    EXPECT_TRUE(client.call(session, std::move(h)).ok());
    EXPECT_TRUE(client.closeSession(session));
    client.disconnect();
    server.stop();
}

// ---------------------------------------------------------------------
// Reconnect-after-restart: transport errors, never protocol errors.
// ---------------------------------------------------------------------

TEST(WireClient, ReconnectAfterServerRestart)
{
    TempDir tmp;
    const std::string path = tmp.dir + "/rime.sock";

    RimeClient client({.endpoint = "unix:" + path,
                       .connectTimeoutMs = 500,
                       .connectAttempts = 3,
                       .backoffBaseMs = 5});

    RimeService svc1{ServiceConfig{}};
    auto server1 = std::make_unique<RimeServer>(
        svc1, ServerConfig{.unixPath = "unix:" + path});
    ASSERT_TRUE(server1->start());
    ASSERT_TRUE(client.connect());
    std::uint64_t session = client.openSession("tenant");
    ASSERT_NE(session, 0u);
    Request r;
    r.kind = RequestKind::Malloc;
    r.bytes = kRangeBytes;
    ASSERT_TRUE(client.call(session, std::move(r)).ok());

    // Kill the server: in-flight and later submissions fail as
    // *transport* errors (status Closed), never silently retried.
    server1->stop();
    server1.reset();
    Request dead;
    dead.kind = RequestKind::Health;
    const Response failed = client.call(session, std::move(dead));
    EXPECT_EQ(failed.status, ServiceStatus::Closed);
    EXPECT_GE(client.transportErrors(), 1u);
    EXPECT_FALSE(client.connected());

    // A new server on the same endpoint: connect() succeeds (counting
    // a reconnect), sessions are reopened, and the session serves.
    RimeService svc2{ServiceConfig{}};
    RimeServer server2(svc2, {.unixPath = "unix:" + path});
    ASSERT_TRUE(server2.start());
    ASSERT_TRUE(client.connect());
    EXPECT_EQ(client.reconnects(), 1u);
    session = client.openSession("tenant");
    ASSERT_NE(session, 0u);
    Request again;
    again.kind = RequestKind::Malloc;
    again.bytes = kRangeBytes;
    EXPECT_TRUE(client.call(session, std::move(again)).ok());
    EXPECT_TRUE(client.closeSession(session));
    EXPECT_EQ(client.protocolErrors(), 0u);

    client.disconnect();
    server2.stop();
}

TEST(WireClient, ConnectToNothingFailsAfterBoundedBackoff)
{
    RimeClient client({.endpoint = "unix:/tmp/rime_wire_nothing.sock",
                       .connectTimeoutMs = 200,
                       .connectAttempts = 3,
                       .backoffBaseMs = 1,
                       .backoffMaxMs = 4});
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_FALSE(client.connect());
    const auto elapsed = std::chrono::steady_clock::now() - t0;
    EXPECT_LT(elapsed, std::chrono::seconds(5));
    EXPECT_FALSE(client.connected());
}

// ---------------------------------------------------------------------
// Disconnect mid-pipeline: every in-flight future completes Closed.
// ---------------------------------------------------------------------

TEST(WireClient, ServerStopCompletesInFlightFuturesClosed)
{
    RimeService svc{ServiceConfig{}};
    auto server = std::make_unique<RimeServer>(
        svc, ServerConfig{.tcp = "tcp:127.0.0.1:0"});
    ASSERT_TRUE(server->start());
    RimeClient client(
        {.endpoint =
             "tcp:127.0.0.1:" + std::to_string(server->tcpPort())});
    ASSERT_TRUE(client.connect());
    const std::uint64_t session =
        client.openSession("tenant", 1, /*max_in_flight=*/32);
    ASSERT_NE(session, 0u);

    // Pipeline a burst, then stop the server under it.
    std::vector<std::future<Response>> inflight;
    for (int i = 0; i < 16; ++i) {
        Request r;
        r.kind = RequestKind::Health;
        inflight.push_back(client.submit(session, std::move(r)));
    }
    server->stop();
    server.reset();

    // Every future completes -- Ok if its reply raced the stop out,
    // Closed otherwise.  None hang, none are dropped.
    for (auto &f : inflight) {
        ASSERT_EQ(f.wait_for(std::chrono::seconds(10)),
                  std::future_status::ready);
        const Response resp = f.get();
        EXPECT_TRUE(resp.status == ServiceStatus::Ok ||
                    resp.status == ServiceStatus::Closed);
    }
    EXPECT_EQ(client.protocolErrors(), 0u);
    client.disconnect();
}

// ---------------------------------------------------------------------
// The client's one write path: never into a closed or reused fd, and a
// peer reset is a transport error, never SIGPIPE.
// ---------------------------------------------------------------------

TEST(WireClient, DisconnectNeverWritesIntoAReusedFd)
{
    TempDir tmp;
    const std::string path = tmp.dir + "/rime.sock";
    RimeService svc{ServiceConfig{}};
    ServerConfig scfg;
    scfg.unixPath = "unix:" + path;
    RimeServer server(svc, scfg);
    ASSERT_TRUE(server.start());
    RimeClient client({.endpoint = "unix:" + path});
    ASSERT_TRUE(client.connect());
    const std::uint64_t session = client.openSession("tenant");
    ASSERT_NE(session, 0u);

    SendGate gate;
    std::vector<std::future<Response>> futures;
    std::thread writer([&] {
        futures = client.submitBatch(session, oneHealth());
    });
    const int captured = gate.waitHeld();
    std::thread closer([&] { client.disconnect(); });

    // Give disconnect() every chance to close the writer's fd: a
    // client that closes without waiting for its writers does so at
    // once, and the next descriptor opened takes the same number.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(300);
    while (::fcntl(captured, F_GETFD) != -1 &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    int pair[2] = {-1, -1};
    const int paired = ::socketpair(AF_UNIX, SOCK_STREAM, 0, pair);
    gate.release();
    writer.join();
    closer.join();
    ASSERT_EQ(paired, 0);

    // Nothing the delayed writer sent may reach a descriptor opened
    // after the disconnect.
    for (const int fd : pair) {
        char buf[256];
        const ssize_t got = ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
        EXPECT_EQ(got, -1) << "stale frame on reused fd " << fd
                           << " (writer had fd " << captured << ")";
    }
    ::close(pair[0]);
    ::close(pair[1]);
    ASSERT_EQ(futures.size(), 1u);
    EXPECT_EQ(futures[0].get().status, ServiceStatus::Closed);
    EXPECT_GE(client.transportErrors(), 1u);
    EXPECT_EQ(client.protocolErrors(), 0u);
    server.stop();
}

TEST(WireClient, PeerResetMidFrameIsClosedNotSigpipe)
{
    TempDir tmp;
    const std::string path = tmp.dir + "/rime.sock";
    RimeService svc{ServiceConfig{}};
    ServerConfig scfg;
    scfg.unixPath = "unix:" + path;
    auto server = std::make_unique<RimeServer>(svc, scfg);
    ASSERT_TRUE(server->start());
    RimeClient client({.endpoint = "unix:" + path});
    ASSERT_TRUE(client.connect());
    const std::uint64_t session = client.openSession("tenant");
    ASSERT_NE(session, 0u);

    // The peer goes away while a send is under way; the send then
    // hits a closed socket (EPIPE).  Without MSG_NOSIGNAL the kernel
    // raises SIGPIPE and kills this process.
    SendGate gate;
    std::vector<std::future<Response>> futures;
    std::thread writer([&] {
        futures = client.submitBatch(session, oneHealth());
    });
    gate.waitHeld();
    server->stop();
    server.reset();
    gate.release();
    writer.join();

    ASSERT_EQ(futures.size(), 1u);
    ASSERT_EQ(futures[0].wait_for(std::chrono::seconds(10)),
              std::future_status::ready);
    EXPECT_EQ(futures[0].get().status, ServiceStatus::Closed);
    EXPECT_GE(client.transportErrors(), 1u);
    EXPECT_EQ(client.protocolErrors(), 0u);
    client.disconnect();
}

// ---------------------------------------------------------------------
// Event-loop waker: a wake() racing drain() is never lost.
// ---------------------------------------------------------------------

TEST(WakePipe, WakeRacingDrainIsNeverLost)
{
    // One thread spins on wake() while this one plays the server loop:
    // poll the read end, drain it, repeat.  A wake() whose byte drain()
    // swallowed after disarming would leave the pipe empty but armed;
    // every later wake() would then be a no-op and the loop would run
    // only on its poll timeout -- raised to 1 s here, far above any
    // scheduling delay, so a timeout means a lost wakeup.
    WakePipe pipe;
    ASSERT_TRUE(pipe.ok());
    Poller poller;
    poller.add(pipe.readFd(), true, false);
    std::atomic<bool> stop{false};
    std::thread waker([&] {
        while (!stop.load(std::memory_order_relaxed))
            pipe.wake();
    });
    int rounds = 0, timeouts = 0;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(500);
    while (rounds < 50000 && std::chrono::steady_clock::now() < deadline) {
        const int n = poller.wait(1000);
        ASSERT_GE(n, 0);
        if (n == 0) {
            ++timeouts;
            break;
        }
        pipe.drain();
        ++rounds;
    }
    stop.store(true, std::memory_order_relaxed);
    waker.join();
    EXPECT_EQ(timeouts, 0) << "lost wakeup after " << rounds << " rounds";
    EXPECT_GT(rounds, 0);

    // With the waker gone, one last wake() must still reach the loop:
    // the last drain() left the flag disarmed or a byte in the pipe.
    pipe.wake();
    ASSERT_EQ(poller.wait(1000), 1);
    EXPECT_TRUE(poller.readable(0));
}
