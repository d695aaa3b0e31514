/**
 * @file
 * RimeServer: the wire-protocol front door of a RimeService.
 *
 * One event-loop thread owns every connection: it accepts TCP and
 * Unix-domain clients (both optional, both non-blocking), parses
 * frames off each connection's read buffer with the journal-proven
 * readFrame (Truncated = wait for more bytes, Corrupt = protocol
 * error), decodes wire messages, and dispatches Requests straight
 * onto the existing per-shard MPSC queues via Session::submitBatch --
 * the device-side controller threads never block on the network, and
 * the event loop never blocks on the device.
 *
 * Completion is push, not poll: every submit installs a notify hook
 * that fires on the controller thread the instant the future is
 * fulfilled and nudges the loop through a self-pipe (WakePipe).  The
 * loop then sweeps each connection's in-flight queue, encodes every
 * ready Response as its own frame, and ships all frames queued on a
 * connection with one vectored send (sendmsg/writev) per poll
 * iteration -- group completions leave as one syscall and typically
 * one TCP segment.  Partial writes park mid-frame and drain on
 * POLLOUT.
 *
 * The read side batches symmetrically: consecutive Request frames
 * decoded from one read burst that target the same session are handed
 * to the shard as ONE Session::submitBatch call (a lone Request is a
 * one-element batch) -- one queue lock, one controller wakeup for the
 * whole burst, which is what lets the shard's group commit amortize
 * its journal fsync across them.  Any non-Request message (or a
 * Request for a different session) first flushes the pending batch,
 * so cross-message ordering on a connection is exactly submission
 * order.
 *
 * Sessions are connection-scoped: OpenSession binds a RimeService
 * session to the connection, and a disconnect (or protocol error)
 * closes every session the connection still holds -- the shard frees
 * the tenant's allocations exactly as an in-process close would.
 *
 * With ServerConfig::resumeGraceMs set, a disconnect instead *parks*
 * the connection's sessions for the grace period: every SessionOpened
 * carries a resume token (wire::resumeToken, deterministic across
 * restarts on the same journal) and a reconnecting client reattaches
 * with ResumeSession before the deadline -- the cluster router's
 * transparent failover path.  Parked sessions that outlive the grace
 * are closed exactly like a plain disconnect.
 */

#ifndef RIME_NET_SERVER_HH
#define RIME_NET_SERVER_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/poller.hh"
#include "net/socket.hh"
#include "service/service.hh"
#include "service/wire.hh"

namespace rime::net
{

/** Where a RimeServer listens. */
struct ServerConfig
{
    /** "tcp:host:port" (port 0 = ephemeral); empty disables TCP. */
    std::string tcp;
    /** "unix:/path"; empty disables the Unix-domain listener. */
    std::string unixPath;
    /**
     * Session resumption grace in milliseconds; 0 (default) keeps the
     * original connection-scoped lifetime (disconnect closes the
     * connection's sessions).  >0 parks them instead, waiting that
     * long for a ResumeSession with the matching token; recovered
     * journal sessions are parked at start() under the same deadline.
     */
    unsigned resumeGraceMs = 0;
};

/** The socket front end of one RimeService. */
class RimeServer
{
  public:
    RimeServer(service::RimeService &service, ServerConfig config);
    ~RimeServer();

    RimeServer(const RimeServer &) = delete;
    RimeServer &operator=(const RimeServer &) = delete;

    /**
     * Bind the listeners and launch the event loop.  False when a
     * bind fails (errno preserved); the server stays stopped.
     */
    bool start();

    /** Close every connection and join the loop.  Idempotent. */
    void stop();

    /** Actual TCP port (after an ephemeral bind); 0 when disabled. */
    std::uint16_t tcpPort() const { return tcpPort_; }

    /** Path of the Unix listener; empty when disabled. */
    const std::string &unixSocketPath() const { return unixPath_; }

    std::uint64_t
    connectionsAccepted() const
    {
        return accepted_.load(std::memory_order_relaxed);
    }

    /** Connections dropped for framing/handshake/decode errors. */
    std::uint64_t
    protocolErrors() const
    {
        return protocolErrors_.load(std::memory_order_relaxed);
    }

    /**
     * Loop iterations that the 100 ms poll safety net woke (no fd was
     * ready) and that then still found a reply to send: a completion
     * whose wake was lost.  Must stay 0.
     */
    std::uint64_t
    timeoutWakes() const
    {
        return timeoutWakes_.load(std::memory_order_relaxed);
    }

    std::uint64_t
    requestsServed() const
    {
        return served_.load(std::memory_order_relaxed);
    }

    /**
     * Begin a graceful drain: stop accepting, send every connection a
     * Shutdown notice (an Error frame the connection survives) so
     * routers pull their sessions elsewhere, and keep serving what
     * remains.  Callable from any thread; watch activeSessions() reach
     * zero, then stop().
     */
    void beginDrain();

    /** Sessions currently live here: connection-bound plus parked. */
    std::size_t
    activeSessions() const
    {
        return activeSessions_.load(std::memory_order_relaxed);
    }

  private:
    struct Connection
    {
        int fd = -1;
        /** Received, not yet parsed. */
        std::vector<std::uint8_t> in;
        /**
         * Encoded frames not yet sent, one buffer per wire frame --
         * flush() gathers them into a single vectored send.  The
         * front frame is partially sent when `outOffset` > 0.
         */
        std::deque<std::vector<std::uint8_t>> out;
        /** Bytes of out.front() already on the wire. */
        std::size_t outOffset = 0;
        /** Hello validated; anything else first is a BadMessage. */
        bool greeted = false;
        /** Error queued: flush the send buffer, then drop. */
        bool closing = false;
        /** Wire session handle -> service session. */
        std::map<std::uint64_t,
                 std::shared_ptr<service::Session>> sessions;

        struct InFlight
        {
            std::uint64_t corrId = 0;
            std::future<service::Response> future;
        };
        /** Submitted requests whose Response is still due. */
        std::deque<InFlight> inFlight;

        /**
         * Consecutive inbound Requests (all on `batchSessionId`)
         * accumulated during one parse sweep, awaiting a single
         * submitBatch hand-off.  Flushed before any other message
         * kind is handled and at the end of every sweep.
         */
        std::uint64_t batchSessionId = 0;
        std::vector<std::uint64_t> batchCorrIds;
        std::vector<service::Request> batchReqs;
    };

    /** A disconnected client's session awaiting ResumeSession. */
    struct Parked
    {
        std::shared_ptr<service::Session> session;
        std::uint64_t token = 0;
        std::chrono::steady_clock::time_point deadline;
    };

    void loop();
    void acceptAll(int listen_fd);
    /** Read + parse + dispatch; false when the connection died. */
    bool handleReadable(Connection &conn);
    void handleMessage(Connection &conn, service::wire::Message &&msg);
    /** Encode `msg` as one frame onto the connection's send queue. */
    static void queueFrame(Connection &conn,
                           const service::wire::Message &msg);
    /** Hand the accumulated Request batch to its shard (one submit). */
    void flushRequestBatch(Connection &conn);
    /** Queue an Error message and start closing the connection. */
    void failConnection(Connection &conn, std::uint64_t corr_id,
                        service::wire::WireError error, const std::string &why);
    /**
     * Encode every ready future of `conn` into its send queue;
     * returns how many replies it queued.
     */
    std::size_t pumpCompletions(Connection &conn);
    /** Vectored non-blocking send of queued frames; false = died. */
    bool flush(Connection &conn);
    void closeConnection(Connection &conn);

    service::RimeService &service_;
    const ServerConfig config_;

    int tcpListen_ = -1;
    int unixListen_ = -1;
    std::uint16_t tcpPort_ = 0;
    std::string unixPath_;

    std::shared_ptr<WakePipe> wake_;
    Poller poller_;
    std::vector<std::unique_ptr<Connection>> connections_;
    /** Loop-thread owned (start() seeds it before the thread runs). */
    std::map<std::uint64_t, Parked> parked_;

    std::thread loopThread_;
    std::atomic<bool> running_{false};
    std::atomic<bool> draining_{false};
    /** Loop-thread only: Shutdown notices already queued. */
    bool drainNotified_ = false;
    std::atomic<std::size_t> activeSessions_{0};

    std::atomic<std::uint64_t> accepted_{0};
    std::atomic<std::uint64_t> protocolErrors_{0};
    std::atomic<std::uint64_t> timeoutWakes_{0};
    std::atomic<std::uint64_t> served_{0};
};

} // namespace rime::net

#endif // RIME_NET_SERVER_HH
