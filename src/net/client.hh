/**
 * @file
 * RimeClient: the remote-session library over the wire protocol.
 *
 * One client owns one connection (TCP or Unix-domain) and a reader
 * thread.  Requests are pipelined: submitBatch() (and submit(), its
 * one-element form) assigns each request a correlation ID, frames
 * them, writes them out with one send, and returns a
 * std::future<Response> per request immediately -- any number can be
 * in flight, and the reader completes each future as its Response
 * frame arrives (out-of-order completions are matched by correlation
 * ID).  call() is the synchronous submit+wait convenience, mirroring
 * service::Session::call.  Data and admin messages share one socket
 * write (writeFrames), sent with MSG_NOSIGNAL: a peer reset mid-frame
 * is a transport error, never a SIGPIPE.
 *
 * Failure model: connect() retries with bounded exponential backoff
 * and a per-attempt timeout; a read timeout with requests in flight,
 * a broken socket, or a server-sent Error all count as *transport*
 * errors -- every pending future completes with ServiceStatus::Closed
 * and the connection drops.  Requests are never silently retried (the
 * typed ops are not idempotent); the caller reconnects and reopens
 * its sessions.  Protocol errors (corrupt frames, undecodable
 * payloads) are counted separately: under disconnect chaos the
 * transport counter moves and the protocol counter must stay 0.
 */

#ifndef RIME_NET_CLIENT_HH
#define RIME_NET_CLIENT_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/socket.hh"
#include "service/request.hh"
#include "service/wire.hh"

namespace rime::net
{

/** Connection policy of one RimeClient. */
struct ClientConfig
{
    /** "tcp:host:port" or "unix:/path". */
    std::string endpoint;
    /** Per-attempt connect timeout. */
    int connectTimeoutMs = 5000;
    /**
     * With requests in flight, a silent server for this long is a
     * transport error (pending futures fail, connection drops).
     */
    int readTimeoutMs = 30000;
    /** connect(): total attempts before giving up. */
    unsigned connectAttempts = 6;
    /** Backoff after a failed attempt: base * 2^n, capped. */
    int backoffBaseMs = 10;
    int backoffMaxMs = 2000;
};

/** A remote handle on a RimeService, over the wire protocol. */
class RimeClient
{
  public:
    explicit RimeClient(ClientConfig config);
    ~RimeClient();

    RimeClient(const RimeClient &) = delete;
    RimeClient &operator=(const RimeClient &) = delete;

    /**
     * Connect + handshake, retrying with exponential backoff up to
     * config.connectAttempts times.  True when the Welcome landed.
     * Reconnecting after a drop is the same call; sessions do not
     * survive it (reopen them).
     */
    bool connect();

    /** Drop the connection; every pending future completes Closed. */
    void disconnect();

    bool connected() const;

    /** Shard count reported by the server's Welcome (0 before). */
    std::uint64_t shards() const { return shards_; }

    /**
     * Open a session (synchronous).  Returns the wire session handle
     * (the service session id), or 0 on failure.
     */
    std::uint64_t openSession(const std::string &tenant,
                              unsigned weight = 1,
                              unsigned max_in_flight = 8);

    /** Close a session (synchronous).  False on transport failure. */
    bool closeSession(std::uint64_t session);

    /**
     * Resume token issued with `session` at open/resume/install time;
     * 0 when unknown.  Tokens survive reconnects -- they are the
     * credential resumeSession presents.
     */
    std::uint64_t sessionToken(std::uint64_t session) const;

    /**
     * Reattach to a session parked by a server running with
     * resumption (ServerConfig::resumeGraceMs): after a reconnect,
     * presents the stored (or given) token.  False when the server no
     * longer holds the session -- reopen instead.
     */
    bool resumeSession(std::uint64_t session, std::uint64_t token = 0);

    /**
     * Freeze `session` on the server and fetch its encoded state
     * image (the cross-instance hand-off, drain side).  Empty on
     * failure; on success the remote session is gone and the bytes
     * are what installSession() on a peer's client accepts.
     */
    std::vector<std::uint8_t> drainSession(std::uint64_t session);

    /**
     * Install a drained session image on this client's server
     * (hand-off, install side).  Returns the NEW session id (the
     * server remaps ids), 0 when no shard there can take the image.
     */
    std::uint64_t installSession(const std::vector<std::uint8_t> &image);

    /** Release deterministic schedulers (service::RimeService::start). */
    bool start();

    /** Fetch the service stat tree as JSON ("" on failure). */
    std::string statDump(bool include_host = false);

    /**
     * Pipeline several requests on `session` with one socket write --
     * the only data submission path: every frame is encoded back to
     * back and shipped with a single send, so the server's reader
     * sees (and hands the shard) the whole burst at once.  Returns
     * one future per request, in request order; each completes when
     * its Response frame arrives (status Closed on transport error).
     * Thread-safe; any number may be in flight.
     *
     * `notify` (optional) is installed on every request and runs
     * exactly once per request, when its future becomes ready -- on
     * the reader thread for a normal Response, on the failing thread
     * for transport errors, and synchronously (before return) when
     * the connection is already dead.  Must be cheap and
     * non-blocking.
     */
    std::vector<std::future<service::Response>> submitBatch(
        std::uint64_t session, std::vector<service::Request> reqs,
        std::function<void()> notify = nullptr);

    /** Pipeline one request: a one-element submitBatch. */
    std::future<service::Response> submit(
        std::uint64_t session, service::Request req,
        std::function<void()> notify = nullptr);

    /** submit + wait. */
    service::Response
    call(std::uint64_t session, service::Request req)
    {
        return submit(session, std::move(req)).get();
    }

    /** Successful connects after the first (chaos accounting). */
    std::uint64_t
    reconnects() const
    {
        return reconnects_.load(std::memory_order_relaxed);
    }

    /** Requests failed by disconnects/timeouts (never retried). */
    std::uint64_t
    transportErrors() const
    {
        return transportErrors_.load(std::memory_order_relaxed);
    }

    /** Corrupt/undecodable frames and server-sent protocol Errors. */
    std::uint64_t
    protocolErrors() const
    {
        return protocolErrors_.load(std::memory_order_relaxed);
    }

    /**
     * The server sent an unsolicited Shutdown notice (it is draining):
     * move sessions elsewhere and stop submitting here.  Not a
     * protocol error; cleared by the next successful connect().
     */
    bool
    shutdownAdvised() const
    {
        return shutdownAdvised_.load(std::memory_order_acquire);
    }

  private:
    /** One connect attempt + Hello/Welcome handshake. */
    bool connectOnce();
    /** Frame + write one message; false on a dead/broken socket. */
    bool sendMessage(const service::wire::Message &msg);
    /**
     * The client's one socket write: ship `frames` back to back with
     * a single sendvFully (MSG_NOSIGNAL: a reset peer is a false
     * return, never SIGPIPE) under sendMutex_.  Sends nothing and
     * returns false unless connection `generation`, captured with
     * `fd`, is still the live one.
     */
    bool writeFrames(int fd, std::uint64_t generation,
                     std::vector<std::vector<std::uint8_t>> &frames);
    /** Synchronous admin round-trip; false on failure/timeout. */
    bool adminCall(service::wire::Message &msg,
                   service::wire::MessageKind expect_kind,
                   service::wire::Message &reply);
    void readerLoop(int fd);
    /** Route one decoded server message to its waiter. */
    void dispatch(service::wire::Message &&msg);
    /** Fail every pending future (transport error), drop state. */
    void failAllPending();

    const ClientConfig config_;
    Endpoint endpoint_;

    mutable std::mutex mutex_;     ///< fd_/maps/reader lifecycle
    /** Serializes socket writes; disconnect() closes fd_ under it. */
    std::mutex sendMutex_;
    int fd_ = -1;
    /**
     * Connection generation: bumped (under mutex_) by every
     * disconnect(), which connectOnce() runs first, so each connection
     * has its own value.  fd numbers are reused; generations are not.
     */
    std::atomic<std::uint64_t> generation_{0};
    std::thread reader_;
    std::atomic<bool> stopReader_{false};
    bool everConnected_ = false;

    /** A data waiter: its promise plus the optional completion hook. */
    struct PendingResponse
    {
        std::promise<service::Response> promise;
        std::function<void()> notify;
    };

    std::atomic<std::uint64_t> nextCorrId_{1};
    std::map<std::uint64_t, PendingResponse> pendingResponses_;
    std::map<std::uint64_t, std::promise<service::wire::Message>>
        pendingAdmin_;
    /** session id -> resume token (guarded by mutex_). */
    std::map<std::uint64_t, std::uint64_t> sessionTokens_;

    std::uint64_t shards_ = 0;

    std::atomic<std::uint64_t> reconnects_{0};
    std::atomic<std::uint64_t> transportErrors_{0};
    std::atomic<std::uint64_t> protocolErrors_{0};
    std::atomic<bool> shutdownAdvised_{false};
};

} // namespace rime::net

#endif // RIME_NET_CLIENT_HH
