#include "client.hh"

#include <cerrno>
#include <chrono>
#include <utility>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/fdio.hh"
#include "common/logging.hh"

namespace rime::net
{

using service::Response;
using service::ServiceStatus;
namespace wire = service::wire;

namespace
{

std::future<Response>
readyClosed()
{
    std::promise<Response> promise;
    Response r;
    r.status = ServiceStatus::Closed;
    promise.set_value(std::move(r));
    return promise.get_future();
}

} // namespace

RimeClient::RimeClient(ClientConfig config)
    : config_(std::move(config))
{
    if (!parseEndpoint(config_.endpoint, endpoint_)) {
        fatal("bad wire endpoint '%s' (want tcp:host:port or "
              "unix:/path)", config_.endpoint.c_str());
    }
}

RimeClient::~RimeClient()
{
    disconnect();
}

bool
RimeClient::connected() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return fd_ >= 0 && !stopReader_.load(std::memory_order_acquire);
}

bool
RimeClient::connect()
{
    int backoff = config_.backoffBaseMs;
    for (unsigned attempt = 0; attempt < config_.connectAttempts;
         ++attempt) {
        if (attempt > 0) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(backoff));
            backoff = std::min(backoff * 2, config_.backoffMaxMs);
        }
        if (connectOnce()) {
            if (everConnected_)
                reconnects_.fetch_add(1, std::memory_order_relaxed);
            everConnected_ = true;
            return true;
        }
    }
    return false;
}

bool
RimeClient::connectOnce()
{
    disconnect(); // drop any dead remains first

    const int fd = connectSocket(endpoint_, config_.connectTimeoutMs);
    if (fd < 0)
        return false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        fd_ = fd;
        stopReader_.store(false, std::memory_order_release);
        reader_ = std::thread([this, fd] { readerLoop(fd); });
    }

    wire::Message hello;
    hello.kind = wire::MessageKind::Hello;
    wire::Message welcome;
    if (!adminCall(hello, wire::MessageKind::Welcome, welcome) ||
        welcome.magic != wire::kWireMagic ||
        welcome.version != wire::kWireVersion) {
        disconnect();
        return false;
    }
    shards_ = welcome.shards;
    shutdownAdvised_.store(false, std::memory_order_release);
    return true;
}

void
RimeClient::disconnect()
{
    int fd = -1;
    std::thread reader;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        fd = fd_;
        fd_ = -1;
        ++generation_;
        stopReader_.store(true, std::memory_order_release);
        reader = std::move(reader_);
    }
    // shutdown first: it fails a send blocked on a full socket buffer
    // and unblocks the reader's poll/recv.
    if (fd >= 0)
        ::shutdown(fd, SHUT_RDWR);
    if (reader.joinable())
        reader.join();
    if (fd >= 0) {
        // Close under the write lock: a writer that captured `fd` has
        // either finished, or will find the generation moved on and
        // skip -- its frame never lands in a reused descriptor.
        std::lock_guard<std::mutex> lock(sendMutex_);
        ::close(fd);
    }
    failAllPending();
}

bool
RimeClient::writeFrames(int fd, std::uint64_t generation,
                        std::vector<std::vector<std::uint8_t>> &frames)
{
    std::vector<struct iovec> iov(frames.size());
    for (std::size_t i = 0; i < frames.size(); ++i) {
        iov[i].iov_base = frames[i].data();
        iov[i].iov_len = frames[i].size();
    }
    std::lock_guard<std::mutex> lock(sendMutex_);
    if (generation_ != generation)
        return false; // `fd` was disconnected (and may be reused)
    return sendvFully(fd, iov.data(), static_cast<int>(iov.size()));
}

bool
RimeClient::sendMessage(const wire::Message &msg)
{
    int fd = -1;
    std::uint64_t generation = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (fd_ < 0 || stopReader_.load(std::memory_order_acquire))
            return false;
        fd = fd_;
        generation = generation_;
    }
    std::vector<std::vector<std::uint8_t>> frames(1);
    wire::encodeMessage(frames.front(), msg);
    return writeFrames(fd, generation, frames);
}

std::future<Response>
RimeClient::submit(std::uint64_t session, service::Request req,
                   std::function<void()> notify)
{
    std::vector<service::Request> one;
    one.push_back(std::move(req));
    return std::move(
        submitBatch(session, std::move(one), std::move(notify)).front());
}

std::vector<std::future<Response>>
RimeClient::submitBatch(std::uint64_t session,
                        std::vector<service::Request> reqs,
                        std::function<void()> notify)
{
    std::vector<std::future<Response>> out;
    out.reserve(reqs.size());

    // Register every waiter under one lock, then frame every request
    // back to back so a single send carries the whole burst.
    std::vector<std::uint64_t> corrs;
    corrs.reserve(reqs.size());
    int fd = -1;
    std::uint64_t generation = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (fd_ >= 0 && !stopReader_.load(std::memory_order_acquire)) {
            fd = fd_;
            generation = generation_;
            for (std::size_t i = 0; i < reqs.size(); ++i) {
                const std::uint64_t corr = nextCorrId_.fetch_add(
                    1, std::memory_order_relaxed);
                std::promise<Response> promise;
                out.push_back(promise.get_future());
                pendingResponses_.emplace(
                    corr,
                    PendingResponse{std::move(promise), notify});
                corrs.push_back(corr);
            }
        }
    }
    if (fd < 0) {
        transportErrors_.fetch_add(reqs.size(),
                                   std::memory_order_relaxed);
        for (std::size_t i = 0; i < reqs.size(); ++i) {
            out.push_back(readyClosed());
            if (notify)
                notify(); // the future is already ready
        }
        return out;
    }

    std::vector<std::vector<std::uint8_t>> frames(reqs.size());
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        wire::Message msg;
        msg.kind = wire::MessageKind::Request;
        msg.corrId = corrs[i];
        msg.sessionId = session;
        msg.req = std::move(reqs[i]);
        wire::encodeMessage(frames[i], msg);
    }
    if (!writeFrames(fd, generation, frames)) {
        // Withdraw whichever waiters the reader has not already
        // completed and fail them in place.
        std::vector<PendingResponse> orphans;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            for (const std::uint64_t corr : corrs) {
                auto it = pendingResponses_.find(corr);
                if (it == pendingResponses_.end())
                    continue;
                orphans.push_back(std::move(it->second));
                pendingResponses_.erase(it);
            }
        }
        transportErrors_.fetch_add(orphans.size(),
                                   std::memory_order_relaxed);
        for (auto &orphan : orphans) {
            Response r;
            r.status = ServiceStatus::Closed;
            orphan.promise.set_value(std::move(r));
            if (orphan.notify)
                orphan.notify();
        }
    }
    return out;
}

bool
RimeClient::adminCall(wire::Message &msg,
                      wire::MessageKind expect_kind,
                      wire::Message &reply)
{
    const std::uint64_t corr =
        nextCorrId_.fetch_add(1, std::memory_order_relaxed);
    msg.corrId = corr;
    std::future<wire::Message> future;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (fd_ < 0 || stopReader_.load(std::memory_order_acquire))
            return false;
        std::promise<wire::Message> promise;
        future = promise.get_future();
        pendingAdmin_.emplace(corr, std::move(promise));
    }
    const int timeout_ms = msg.kind == wire::MessageKind::Hello
        ? config_.connectTimeoutMs : config_.readTimeoutMs;
    bool sent = sendMessage(msg);
    if (sent &&
        future.wait_for(std::chrono::milliseconds(
            timeout_ms <= 0 ? 3600000 : timeout_ms)) ==
            std::future_status::ready) {
        reply = future.get();
        if (reply.kind == expect_kind)
            return true;
        if (reply.kind == wire::MessageKind::Error)
            return false; // dispatch() already counted it
        protocolErrors_.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    // Timed out (or never sent): withdraw the waiter -- unless the
    // reader completed it in the window, in which case take it.
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = pendingAdmin_.find(corr);
        if (it != pendingAdmin_.end()) {
            pendingAdmin_.erase(it);
            transportErrors_.fetch_add(1, std::memory_order_relaxed);
            return false;
        }
    }
    reply = future.get();
    return reply.kind == expect_kind;
}

std::uint64_t
RimeClient::openSession(const std::string &tenant, unsigned weight,
                        unsigned max_in_flight)
{
    wire::Message msg;
    msg.kind = wire::MessageKind::OpenSession;
    msg.tenant = tenant;
    msg.weight = weight;
    msg.maxInFlight = max_in_flight;
    wire::Message reply;
    if (!adminCall(msg, wire::MessageKind::SessionOpened, reply) ||
        reply.status != ServiceStatus::Ok) {
        return 0;
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        sessionTokens_[reply.sessionId] = reply.resumeToken;
    }
    return reply.sessionId;
}

bool
RimeClient::closeSession(std::uint64_t session)
{
    wire::Message msg;
    msg.kind = wire::MessageKind::CloseSession;
    msg.sessionId = session;
    wire::Message reply;
    const bool ok =
        adminCall(msg, wire::MessageKind::Response, reply) &&
        reply.resp.status == ServiceStatus::Ok;
    if (ok) {
        std::lock_guard<std::mutex> lock(mutex_);
        sessionTokens_.erase(session);
    }
    return ok;
}

std::uint64_t
RimeClient::sessionToken(std::uint64_t session) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = sessionTokens_.find(session);
    return it == sessionTokens_.end() ? 0 : it->second;
}

bool
RimeClient::resumeSession(std::uint64_t session, std::uint64_t token)
{
    if (token == 0)
        token = sessionToken(session);
    if (token == 0)
        return false; // nothing to present
    wire::Message msg;
    msg.kind = wire::MessageKind::ResumeSession;
    msg.sessionId = session;
    msg.resumeToken = token;
    wire::Message reply;
    if (!adminCall(msg, wire::MessageKind::SessionOpened, reply) ||
        reply.status != ServiceStatus::Ok) {
        return false;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    sessionTokens_[session] = reply.resumeToken;
    return true;
}

std::vector<std::uint8_t>
RimeClient::drainSession(std::uint64_t session)
{
    wire::Message msg;
    msg.kind = wire::MessageKind::DrainSession;
    msg.sessionId = session;
    wire::Message reply;
    if (!adminCall(msg, wire::MessageKind::Response, reply) ||
        reply.resp.status != ServiceStatus::Ok) {
        return {};
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        sessionTokens_.erase(session);
    }
    return std::move(reply.resp.image);
}

std::uint64_t
RimeClient::installSession(const std::vector<std::uint8_t> &image)
{
    wire::Message msg;
    msg.kind = wire::MessageKind::InstallSession;
    msg.image = image;
    wire::Message reply;
    if (!adminCall(msg, wire::MessageKind::SessionOpened, reply) ||
        reply.status != ServiceStatus::Ok) {
        return 0;
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        sessionTokens_[reply.sessionId] = reply.resumeToken;
    }
    return reply.sessionId;
}

bool
RimeClient::start()
{
    wire::Message msg;
    msg.kind = wire::MessageKind::Start;
    wire::Message reply;
    return adminCall(msg, wire::MessageKind::Response, reply) &&
           reply.resp.status == ServiceStatus::Ok;
}

std::string
RimeClient::statDump(bool include_host)
{
    wire::Message msg;
    msg.kind = wire::MessageKind::StatDump;
    msg.includeHost = include_host;
    wire::Message reply;
    if (!adminCall(msg, wire::MessageKind::StatDumpReply, reply))
        return "";
    return reply.text;
}

void
RimeClient::dispatch(wire::Message &&msg)
{
    std::promise<wire::Message> admin;
    PendingResponse data;
    enum class Hit { None, Admin, Data } hit = Hit::None;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto ait = pendingAdmin_.find(msg.corrId);
        if (ait != pendingAdmin_.end()) {
            admin = std::move(ait->second);
            pendingAdmin_.erase(ait);
            hit = Hit::Admin;
        } else if (msg.kind == wire::MessageKind::Response) {
            auto dit = pendingResponses_.find(msg.corrId);
            if (dit != pendingResponses_.end()) {
                data = std::move(dit->second);
                pendingResponses_.erase(dit);
                hit = Hit::Data;
            }
        }
    }
    if (msg.kind == wire::MessageKind::Error) {
        if (msg.error == wire::WireError::Shutdown &&
            hit == Hit::None) {
            // Unsolicited drain notice: the connection stays up and
            // this is operational, not a protocol violation.
            shutdownAdvised_.store(true, std::memory_order_release);
            return;
        }
        // Everything else: the server only speaks Error for
        // protocol-level failures, and drops the connection after.
        protocolErrors_.fetch_add(1, std::memory_order_relaxed);
        warn("wire error from server: %s (%s)",
             wire::wireErrorName(msg.error), msg.text.c_str());
    }
    switch (hit) {
      case Hit::Admin:
        admin.set_value(std::move(msg));
        break;
      case Hit::Data:
        data.promise.set_value(std::move(msg.resp));
        if (data.notify)
            data.notify();
        break;
      case Hit::None:
        break; // stray (a waiter timed out); nothing to complete
    }
}

void
RimeClient::failAllPending()
{
    std::map<std::uint64_t, PendingResponse> responses;
    std::map<std::uint64_t, std::promise<wire::Message>> admin;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        responses.swap(pendingResponses_);
        admin.swap(pendingAdmin_);
    }
    transportErrors_.fetch_add(responses.size() + admin.size(),
                               std::memory_order_relaxed);
    for (auto &[corr, pending] : responses) {
        Response r;
        r.status = ServiceStatus::Closed;
        pending.promise.set_value(std::move(r));
        if (pending.notify)
            pending.notify();
    }
    for (auto &[corr, promise] : admin) {
        wire::Message msg;
        msg.kind = wire::MessageKind::Error;
        msg.corrId = corr;
        msg.error = wire::WireError::Shutdown;
        msg.text = "connection lost";
        promise.set_value(std::move(msg));
    }
}

void
RimeClient::readerLoop(int fd)
{
    std::vector<std::uint8_t> in;
    auto last_data = std::chrono::steady_clock::now();
    bool dead = false;

    while (!dead && !stopReader_.load(std::memory_order_acquire)) {
        pollfd pfd{fd, POLLIN, 0};
        const int n = ::poll(&pfd, 1, 100);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (n == 0) {
            bool waiting;
            {
                std::lock_guard<std::mutex> lock(mutex_);
                waiting = !pendingResponses_.empty() ||
                          !pendingAdmin_.empty();
            }
            if (waiting && config_.readTimeoutMs > 0 &&
                std::chrono::steady_clock::now() - last_data >
                    std::chrono::milliseconds(config_.readTimeoutMs)) {
                break; // server went silent mid-conversation
            }
            continue;
        }

        char buf[16384];
        const ssize_t got = ::recv(fd, buf, sizeof(buf), 0);
        if (got == 0)
            break; // clean EOF
        if (got < 0) {
            if (errno == EINTR || errno == EAGAIN ||
                errno == EWOULDBLOCK) {
                continue;
            }
            break;
        }
        in.insert(in.end(), buf, buf + got);
        last_data = std::chrono::steady_clock::now();

        std::size_t offset = 0;
        std::vector<wire::Message> sweep;
        while (true) {
            std::vector<std::uint8_t> payload;
            const FrameStatus status =
                readFrame(in.data(), in.size(), offset, payload);
            if (status == FrameStatus::End ||
                status == FrameStatus::Truncated) {
                break;
            }
            if (status == FrameStatus::Corrupt) {
                protocolErrors_.fetch_add(1,
                                          std::memory_order_relaxed);
                warn("corrupt frame from server; dropping "
                     "connection");
                dead = true;
                break;
            }
            wire::Message msg;
            if (!wire::decodeMessage(payload, msg)) {
                protocolErrors_.fetch_add(1,
                                          std::memory_order_relaxed);
                warn("undecodable message from server; dropping "
                     "connection");
                dead = true;
                break;
            }
            sweep.push_back(std::move(msg));
        }
        // Dispatch the sweep newest-first.  A pipelining caller
        // blocks on its *oldest* in-flight future; completing that
        // one last means that by the time its waiter can run, every
        // response that shared the read is already fulfilled, and the
        // caller drains the group whole (its next submit is then a
        // whole batch too).  The messages are independent promises,
        // so completion order within one read carries no meaning.
        for (auto it = sweep.rbegin(); it != sweep.rend(); ++it)
            dispatch(std::move(*it));
        if (offset > 0) {
            in.erase(in.begin(),
                     in.begin() + static_cast<std::ptrdiff_t>(offset));
        }
    }

    // Mark the connection dead *before* failing the waiters so a
    // racing submit cannot park a promise nobody will complete.
    stopReader_.store(true, std::memory_order_release);
    failAllPending();
}

} // namespace rime::net
