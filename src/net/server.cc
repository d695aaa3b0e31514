#include "server.hh"

#include <cerrno>
#include <cstring>
#include <utility>

#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include "common/logging.hh"

namespace rime::net
{

using service::Response;
using service::ServiceStatus;
using service::SessionConfig;
namespace wire = service::wire;

namespace
{

/** Stop parsing a connection whose peer streams garbage unframed. */
constexpr std::size_t kMaxBufferedBytes = 64u << 20;

/** Frames gathered per sendmsg (well under any IOV_MAX). */
constexpr int kMaxFlushIov = 64;

} // namespace

RimeServer::RimeServer(service::RimeService &service,
                       ServerConfig config)
    : service_(service), config_(std::move(config)),
      wake_(std::make_shared<WakePipe>())
{
}

RimeServer::~RimeServer()
{
    stop();
}

bool
RimeServer::start()
{
    if (running_.load(std::memory_order_acquire))
        return true;
    if (!wake_->ok())
        return false;
    if (!config_.tcp.empty()) {
        Endpoint ep;
        if (!parseEndpoint(config_.tcp, ep) ||
            ep.kind != Endpoint::Kind::Tcp) {
            errno = EINVAL;
            return false;
        }
        tcpListen_ = listenSocket(ep);
        if (tcpListen_ < 0)
            return false;
        tcpPort_ = boundPort(tcpListen_);
    }
    if (!config_.unixPath.empty()) {
        Endpoint ep;
        if (!parseEndpoint(config_.unixPath, ep) ||
            ep.kind != Endpoint::Kind::Unix) {
            errno = EINVAL;
            return false;
        }
        unixListen_ = listenSocket(ep);
        if (unixListen_ < 0) {
            const int saved = errno;
            if (tcpListen_ >= 0) {
                ::close(tcpListen_);
                tcpListen_ = -1;
            }
            errno = saved;
            return false;
        }
        unixPath_ = ep.path;
    }
    if (tcpListen_ < 0 && unixListen_ < 0) {
        errno = EINVAL;
        return false; // nowhere to listen
    }
    if (config_.resumeGraceMs > 0) {
        // Adopt whatever the journal recovered: pre-crash clients
        // reattach with the same deterministic token they were issued
        // before, as long as they return within the grace.
        const auto deadline = std::chrono::steady_clock::now() +
            std::chrono::milliseconds(config_.resumeGraceMs);
        for (auto &session : service_.recoveredSessions()) {
            const std::uint64_t id = session->id();
            const std::uint64_t token =
                wire::resumeToken(id, session->tenant());
            parked_.emplace(
                id, Parked{std::move(session), token, deadline});
        }
        activeSessions_.store(parked_.size(),
                              std::memory_order_relaxed);
    }
    running_.store(true, std::memory_order_release);
    loopThread_ = std::thread([this] { loop(); });
    return true;
}

void
RimeServer::beginDrain()
{
    if (!running_.load(std::memory_order_acquire))
        return;
    draining_.store(true, std::memory_order_release);
    wake_->wake();
}

void
RimeServer::stop()
{
    if (!running_.exchange(false))
        return;
    wake_->wake();
    if (loopThread_.joinable())
        loopThread_.join();
    for (auto &conn : connections_)
        closeConnection(*conn);
    connections_.clear();
    for (auto &[id, parked] : parked_)
        parked.session->close();
    parked_.clear();
    activeSessions_.store(0, std::memory_order_relaxed);
    if (tcpListen_ >= 0) {
        ::close(tcpListen_);
        tcpListen_ = -1;
    }
    if (unixListen_ >= 0) {
        ::close(unixListen_);
        unixListen_ = -1;
        ::unlink(unixPath_.c_str());
    }
}

void
RimeServer::loop()
{
    while (running_.load(std::memory_order_acquire)) {
        if (draining_.load(std::memory_order_acquire) &&
            !drainNotified_) {
            drainNotified_ = true;
            // Stop accepting; existing connections get a Shutdown
            // notice they survive -- a router reacts by draining its
            // sessions off this instance, a plain client reconnects
            // elsewhere at its leisure.
            if (tcpListen_ >= 0) {
                ::close(tcpListen_);
                tcpListen_ = -1;
            }
            if (unixListen_ >= 0) {
                ::close(unixListen_);
                unixListen_ = -1;
                ::unlink(unixPath_.c_str());
            }
            for (auto &connp : connections_) {
                Connection &conn = *connp;
                if (conn.fd < 0 || !conn.greeted || conn.closing)
                    continue;
                wire::Message notice;
                notice.kind = wire::MessageKind::Error;
                notice.error = wire::WireError::Shutdown;
                notice.text = "server draining; re-home sessions";
                queueFrame(conn, notice);
            }
        }

        // Reap parked sessions whose resume grace expired: close them
        // exactly as the disconnect would have without resumption.
        if (!parked_.empty()) {
            const auto now = std::chrono::steady_clock::now();
            for (auto it = parked_.begin(); it != parked_.end();) {
                if (now >= it->second.deadline) {
                    it->second.session->close();
                    it = parked_.erase(it);
                } else {
                    ++it;
                }
            }
        }

        poller_.clear();
        const std::size_t wake_slot =
            poller_.add(wake_->readFd(), true, false);
        std::size_t tcp_slot = SIZE_MAX, unix_slot = SIZE_MAX;
        if (tcpListen_ >= 0)
            tcp_slot = poller_.add(tcpListen_, true, false);
        if (unixListen_ >= 0)
            unix_slot = poller_.add(unixListen_, true, false);
        std::vector<std::size_t> conn_slots(connections_.size());
        for (std::size_t i = 0; i < connections_.size(); ++i) {
            const Connection &c = *connections_[i];
            conn_slots[i] = poller_.add(
                c.fd, !c.closing, !c.out.empty());
        }

        // The wake pipe breaks this wait the instant any controller
        // completes a future; the timeout is only a safety net.
        const int ready = poller_.wait(100);
        if (ready < 0)
            continue;

        if (poller_.readable(wake_slot))
            wake_->drain();
        if (tcp_slot != SIZE_MAX && poller_.readable(tcp_slot))
            acceptAll(tcpListen_);
        if (unix_slot != SIZE_MAX && poller_.readable(unix_slot))
            acceptAll(unixListen_);

        // Sweep every connection: parse what arrived, collect what
        // completed, push what is ready to go.  `conn_slots` indexes
        // the pre-accept prefix of connections_.
        for (std::size_t i = 0; i < conn_slots.size(); ++i) {
            Connection &conn = *connections_[i];
            if (conn.fd < 0)
                continue;
            if (poller_.readable(conn_slots[i]) &&
                !handleReadable(conn)) {
                closeConnection(conn);
                continue;
            }
        }
        std::size_t replies = 0;
        for (auto &connp : connections_) {
            Connection &conn = *connp;
            if (conn.fd < 0)
                continue;
            replies += pumpCompletions(conn);
            if (!flush(conn))
                closeConnection(conn);
        }
        if (ready == 0 && replies > 0)
            timeoutWakes_.fetch_add(1, std::memory_order_relaxed);
        std::erase_if(connections_,
                      [](const auto &c) { return c->fd < 0; });

        std::size_t live = parked_.size();
        for (const auto &c : connections_)
            live += c->sessions.size();
        activeSessions_.store(live, std::memory_order_relaxed);
    }
}

void
RimeServer::acceptAll(int listen_fd)
{
    while (true) {
        const int fd = acceptSocket(listen_fd);
        if (fd < 0)
            return;
        accepted_.fetch_add(1, std::memory_order_relaxed);
        auto conn = std::make_unique<Connection>();
        conn->fd = fd;
        connections_.push_back(std::move(conn));
    }
}

bool
RimeServer::handleReadable(Connection &conn)
{
    char buf[16384];
    while (true) {
        const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
        if (n == 0)
            return false; // peer closed
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                break;
            return false;
        }
        conn.in.insert(conn.in.end(), buf, buf + n);
        if (static_cast<std::size_t>(n) < sizeof(buf))
            break;
    }
    if (conn.closing)
        return true; // draining the goodbye; ignore further input

    std::size_t offset = 0;
    while (true) {
        std::vector<std::uint8_t> payload;
        const FrameStatus status = readFrame(
            conn.in.data(), conn.in.size(), offset, payload);
        if (status == FrameStatus::End)
            break;
        if (status == FrameStatus::Truncated) {
            // An incomplete frame on a *live* stream just means the
            // rest is still in flight -- but an unframed flood must
            // not buffer without bound.
            if (conn.in.size() - offset > kMaxBufferedBytes) {
                failConnection(conn, 0, wire::WireError::BadFrame,
                               "oversized frame");
            }
            break;
        }
        if (status == FrameStatus::Corrupt) {
            failConnection(conn, 0, wire::WireError::BadFrame,
                           "frame checksum mismatch");
            break;
        }
        wire::Message msg;
        if (!wire::decodeMessage(payload, msg)) {
            failConnection(conn, 0, wire::WireError::BadMessage,
                           "undecodable message payload");
            break;
        }
        handleMessage(conn, std::move(msg));
        if (conn.closing)
            break;
    }
    if (offset > 0)
        conn.in.erase(conn.in.begin(),
                      conn.in.begin() +
                          static_cast<std::ptrdiff_t>(offset));
    // Whatever Request tail the sweep accumulated goes to the shard
    // as one hand-off: one queue lock, one controller wakeup.
    flushRequestBatch(conn);
    return true;
}

void
RimeServer::queueFrame(Connection &conn, const wire::Message &msg)
{
    std::vector<std::uint8_t> frame;
    wire::encodeMessage(frame, msg);
    conn.out.push_back(std::move(frame));
}

void
RimeServer::flushRequestBatch(Connection &conn)
{
    if (conn.batchReqs.empty())
        return;
    auto it = conn.sessions.find(conn.batchSessionId);
    if (it == conn.sessions.end()) {
        // The session vanished between queueing and flushing (only a
        // control message can do that, and those flush first) -- drop
        // the batch; the connection is failing anyway.
        conn.batchReqs.clear();
        conn.batchCorrIds.clear();
        return;
    }
    // The notify hook fires on the controller thread the moment each
    // response is ready; the shared_ptr keeps the pipe alive past
    // server teardown (the service drains its tail late).
    std::shared_ptr<WakePipe> wake = wake_;
    auto futures = it->second->submitBatch(
        std::move(conn.batchReqs), [wake] { wake->wake(); });
    for (std::size_t i = 0; i < futures.size(); ++i) {
        conn.inFlight.push_back(Connection::InFlight{
            conn.batchCorrIds[i], std::move(futures[i])});
    }
    conn.batchReqs.clear();
    conn.batchCorrIds.clear();
}

void
RimeServer::failConnection(Connection &conn, std::uint64_t corr_id,
                           wire::WireError error,
                           const std::string &why)
{
    protocolErrors_.fetch_add(1, std::memory_order_relaxed);
    wire::Message err;
    err.kind = wire::MessageKind::Error;
    err.corrId = corr_id;
    err.error = error;
    err.text = why;
    queueFrame(conn, err);
    conn.closing = true;
}

void
RimeServer::handleMessage(Connection &conn, wire::Message &&msg)
{
    if (!conn.greeted) {
        if (msg.kind != wire::MessageKind::Hello) {
            failConnection(conn, msg.corrId,
                           wire::WireError::BadMessage,
                           "expected Hello");
            return;
        }
        if (msg.magic != wire::kWireMagic) {
            failConnection(conn, msg.corrId,
                           wire::WireError::BadMagic,
                           "wrong wire magic");
            return;
        }
        if (msg.version != wire::kWireVersion) {
            failConnection(conn, msg.corrId,
                           wire::WireError::BadVersion,
                           "unsupported wire version");
            return;
        }
        conn.greeted = true;
        wire::Message welcome;
        welcome.kind = wire::MessageKind::Welcome;
        welcome.corrId = msg.corrId;
        welcome.shards = service_.shards();
        queueFrame(conn, welcome);
        return;
    }

    // Ordering barrier: a control/admin message must observe every
    // Request queued before it as already submitted.
    if (msg.kind != wire::MessageKind::Request)
        flushRequestBatch(conn);

    switch (msg.kind) {
      case wire::MessageKind::OpenSession: {
        SessionConfig cfg;
        cfg.tenant = msg.tenant;
        cfg.weight = msg.weight;
        cfg.maxInFlight = msg.maxInFlight;
        auto session = service_.openSession(cfg);
        wire::Message opened;
        opened.kind = wire::MessageKind::SessionOpened;
        opened.corrId = msg.corrId;
        opened.status = ServiceStatus::Ok;
        opened.sessionId = session->id();
        opened.resumeToken =
            wire::resumeToken(session->id(), session->tenant());
        conn.sessions.emplace(session->id(), std::move(session));
        queueFrame(conn, opened);
        return;
      }
      case wire::MessageKind::ResumeSession: {
        wire::Message opened;
        opened.kind = wire::MessageKind::SessionOpened;
        opened.corrId = msg.corrId;
        opened.sessionId = msg.sessionId;
        auto it = parked_.find(msg.sessionId);
        if (it == parked_.end() || msg.resumeToken == 0 ||
            it->second.token != msg.resumeToken) {
            // Expired, drained away, never here, or wrong token: the
            // session is gone but the connection is fine -- the
            // client reopens instead.
            opened.status = ServiceStatus::Closed;
        } else {
            opened.status = ServiceStatus::Ok;
            opened.resumeToken = it->second.token;
            conn.sessions.emplace(msg.sessionId,
                                  std::move(it->second.session));
            parked_.erase(it);
        }
        queueFrame(conn, opened);
        return;
      }
      case wire::MessageKind::DrainSession: {
        std::shared_ptr<service::Session> session;
        auto it = conn.sessions.find(msg.sessionId);
        if (it != conn.sessions.end()) {
            session = it->second;
        } else if (auto pit = parked_.find(msg.sessionId);
                   pit != parked_.end()) {
            session = pit->second.session;
        }
        if (!session) {
            failConnection(conn, msg.corrId,
                           wire::WireError::UnknownSession,
                           "drain of unknown session");
            return;
        }
        wire::Message reply;
        reply.kind = wire::MessageKind::Response;
        reply.corrId = msg.corrId;
        reply.resp.image = service_.drainSessionImage(msg.sessionId);
        if (reply.resp.image.empty()) {
            reply.resp.status = ServiceStatus::Closed;
        } else {
            // The session now lives only in the returned image; the
            // local handle must not close it on destruction.
            reply.resp.status = ServiceStatus::Ok;
            session->detach();
            conn.sessions.erase(msg.sessionId);
            parked_.erase(msg.sessionId);
        }
        queueFrame(conn, reply);
        return;
      }
      case wire::MessageKind::InstallSession: {
        wire::Message opened;
        opened.kind = wire::MessageKind::SessionOpened;
        opened.corrId = msg.corrId;
        auto session = service_.installSessionImage(msg.image);
        if (!session) {
            // Undecodable image or no shard can take it.
            opened.status = ServiceStatus::Rejected;
        } else {
            opened.status = ServiceStatus::Ok;
            opened.sessionId = session->id();
            opened.resumeToken =
                wire::resumeToken(session->id(), session->tenant());
            conn.sessions.emplace(session->id(), std::move(session));
        }
        queueFrame(conn, opened);
        return;
      }
      case wire::MessageKind::CloseSession: {
        auto it = conn.sessions.find(msg.sessionId);
        if (it == conn.sessions.end()) {
            failConnection(conn, msg.corrId,
                           wire::WireError::UnknownSession,
                           "close of unknown session");
            return;
        }
        it->second->close();
        conn.sessions.erase(it);
        wire::Message ack;
        ack.kind = wire::MessageKind::Response;
        ack.corrId = msg.corrId;
        ack.resp.status = ServiceStatus::Ok;
        queueFrame(conn, ack);
        return;
      }
      case wire::MessageKind::Request: {
        auto it = conn.sessions.find(msg.sessionId);
        if (it == conn.sessions.end()) {
            flushRequestBatch(conn);
            failConnection(conn, msg.corrId,
                           wire::WireError::UnknownSession,
                           "request on unknown session");
            return;
        }
        served_.fetch_add(1, std::memory_order_relaxed);
        // Accumulate; a different session breaks the run (order across
        // sessions on one connection is still submission order).
        if (!conn.batchReqs.empty() &&
            conn.batchSessionId != msg.sessionId) {
            flushRequestBatch(conn);
        }
        conn.batchSessionId = msg.sessionId;
        conn.batchCorrIds.push_back(msg.corrId);
        conn.batchReqs.push_back(std::move(msg.req));
        return;
      }
      case wire::MessageKind::Start: {
        service_.start();
        wire::Message ack;
        ack.kind = wire::MessageKind::Response;
        ack.corrId = msg.corrId;
        ack.resp.status = ServiceStatus::Ok;
        queueFrame(conn, ack);
        return;
      }
      case wire::MessageKind::StatDump: {
        wire::Message reply;
        reply.kind = wire::MessageKind::StatDumpReply;
        reply.corrId = msg.corrId;
        reply.text = service_.statDumpJson(msg.includeHost);
        queueFrame(conn, reply);
        return;
      }
      default:
        failConnection(conn, msg.corrId, wire::WireError::BadMessage,
                       "unexpected message kind");
        return;
    }
}

std::size_t
RimeServer::pumpCompletions(Connection &conn)
{
    std::size_t queued = 0;
    // Ready futures can sit anywhere in the queue (several sessions
    // share the connection; rejects complete instantly), so sweep the
    // whole thing -- correlation IDs let the client match them.
    for (auto it = conn.inFlight.begin();
         it != conn.inFlight.end();) {
        if (it->future.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
            ++it;
            continue;
        }
        wire::Message reply;
        reply.kind = wire::MessageKind::Response;
        reply.corrId = it->corrId;
        reply.resp = it->future.get();
        queueFrame(conn, reply);
        it = conn.inFlight.erase(it);
        ++queued;
    }
    return queued;
}

bool
RimeServer::flush(Connection &conn)
{
    while (!conn.out.empty()) {
        // Gather the queued frames into one vectored send: every
        // response that completed in this poll iteration leaves in a
        // single syscall (and typically one TCP segment).
        struct iovec iov[kMaxFlushIov];
        int iovcnt = 0;
        for (const auto &frame : conn.out) {
            if (iovcnt == kMaxFlushIov)
                break;
            const std::size_t skip =
                iovcnt == 0 ? conn.outOffset : 0;
            iov[iovcnt].iov_base =
                const_cast<std::uint8_t *>(frame.data()) + skip;
            iov[iovcnt].iov_len = frame.size() - skip;
            ++iovcnt;
        }
        struct msghdr mh{};
        mh.msg_iov = iov;
        mh.msg_iovlen = static_cast<decltype(mh.msg_iovlen)>(iovcnt);
        const ssize_t n = ::sendmsg(conn.fd, &mh, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                break; // POLLOUT will resume this
            return false;
        }
        // Consume the sent bytes frame by frame; a short write parks
        // mid-frame and resumes from outOffset.
        std::size_t left = static_cast<std::size_t>(n);
        while (left > 0) {
            const std::size_t remain =
                conn.out.front().size() - conn.outOffset;
            if (left >= remain) {
                left -= remain;
                conn.out.pop_front();
                conn.outOffset = 0;
            } else {
                conn.outOffset += left;
                left = 0;
            }
        }
    }
    // A failed connection lingers only until its Error message is on
    // the wire.
    if (conn.out.empty() && conn.closing)
        return false;
    return true;
}

void
RimeServer::closeConnection(Connection &conn)
{
    if (conn.fd < 0)
        return;
    ::close(conn.fd);
    conn.fd = -1;
    // Dropping the futures is safe mid-flight (the promise keeps the
    // shared state alive); closing the sessions frees everything the
    // remote tenant still held, exactly like an in-process close.
    conn.inFlight.clear();
    conn.batchReqs.clear();
    conn.batchCorrIds.clear();
    if (config_.resumeGraceMs > 0 &&
        running_.load(std::memory_order_acquire)) {
        // Resumption: park the sessions for the grace period instead.
        const auto deadline = std::chrono::steady_clock::now() +
            std::chrono::milliseconds(config_.resumeGraceMs);
        for (auto &[id, session] : conn.sessions) {
            const std::uint64_t token =
                wire::resumeToken(id, session->tenant());
            parked_.emplace(
                id, Parked{std::move(session), token, deadline});
        }
    } else {
        for (auto &[id, session] : conn.sessions)
            session->close();
    }
    conn.sessions.clear();
}

} // namespace rime::net
