/**
 * @file
 * The event-loop primitives of the wire server: a poll(2) wrapper and
 * the self-pipe waker that lets shard controller threads nudge the
 * loop when a future they own completes.
 *
 * WakePipe is shared-ownership by design: completion callbacks queued
 * on controller threads may outlive the server's event loop (the
 * service drains its tail during shutdown), so the callbacks hold a
 * shared_ptr and the pipe closes only when the last holder lets go.
 */

#ifndef RIME_NET_POLLER_HH
#define RIME_NET_POLLER_HH

#include <atomic>
#include <cstdint>
#include <vector>

#include <poll.h>

namespace rime::net
{

/**
 * A self-pipe: wake() makes the read end readable, unblocking any
 * poll() that includes it.  Both ends are non-blocking; a full pipe
 * means a wake is already pending, which is all a waker needs.
 */
class WakePipe
{
  public:
    WakePipe();
    ~WakePipe();

    WakePipe(const WakePipe &) = delete;
    WakePipe &operator=(const WakePipe &) = delete;

    bool ok() const { return readFd_ >= 0; }
    int readFd() const { return readFd_; }

    /**
     * Make readFd() readable.  Async-signal- and thread-safe.  Wakes
     * coalesce: once one is pending and not yet drained, further
     * calls are a single atomic load -- a shard completing a whole
     * batch of futures costs one pipe write, not one per future.
     */
    void wake();

    /**
     * Consume every pending wake byte (event-loop side).  Harvest
     * completions after drain(), not before: a wake() racing it may
     * coalesce into the byte just consumed.
     */
    void drain();

  private:
    int readFd_ = -1;
    int writeFd_ = -1;
    /** True while a wake byte is (or may be) in flight. */
    std::atomic<bool> armed_{false};
};

/**
 * One poll(2) round over an ad-hoc fd set.  The caller re-registers
 * interest every round (connection write interest changes as send
 * buffers drain), so the poller is just a reusable pollfd vector.
 */
class Poller
{
  public:
    void
    clear()
    {
        fds_.clear();
    }

    /** Register `fd` for this round; returns its slot index. */
    std::size_t
    add(int fd, bool want_read, bool want_write)
    {
        short events = 0;
        if (want_read)
            events |= POLLIN;
        if (want_write)
            events |= POLLOUT;
        fds_.push_back(pollfd{fd, events, 0});
        return fds_.size() - 1;
    }

    /** poll(); <0 only on hard failure (EINTR retried). */
    int wait(int timeout_ms);

    bool
    readable(std::size_t slot) const
    {
        return (fds_[slot].revents & (POLLIN | POLLHUP | POLLERR)) !=
               0;
    }

    bool
    writable(std::size_t slot) const
    {
        return (fds_[slot].revents & (POLLOUT | POLLHUP | POLLERR)) !=
               0;
    }

  private:
    std::vector<pollfd> fds_;
};

} // namespace rime::net

#endif // RIME_NET_POLLER_HH
