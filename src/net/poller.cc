#include "poller.hh"

#include <cerrno>

#include <fcntl.h>
#include <unistd.h>

namespace rime::net
{

WakePipe::WakePipe()
{
    int fds[2] = {-1, -1};
    if (::pipe(fds) != 0)
        return;
    readFd_ = fds[0];
    writeFd_ = fds[1];
    ::fcntl(readFd_, F_SETFL, O_NONBLOCK);
    ::fcntl(writeFd_, F_SETFL, O_NONBLOCK);
}

WakePipe::~WakePipe()
{
    if (readFd_ >= 0)
        ::close(readFd_);
    if (writeFd_ >= 0)
        ::close(writeFd_);
}

void
WakePipe::wake()
{
    if (writeFd_ < 0)
        return;
    // Already armed: a byte is in the pipe and the loop will run.
    if (armed_.exchange(true, std::memory_order_acq_rel))
        return;
    const char byte = 1;
    // EAGAIN (pipe full) means a wake is already pending; EINTR is
    // retried by the next waker.  Either way the loop will run.
    [[maybe_unused]] ssize_t n = ::write(writeFd_, &byte, 1);
}

void
WakePipe::drain()
{
    if (readFd_ < 0)
        return;
    // Read dry, then disarm.  Disarming first lets a racing wake()
    // write a byte this read swallows, leaving the flag armed over an
    // empty pipe so every later wake() is a no-op.  A wake() that
    // still sees the flag armed here needs no byte: the loop harvests
    // completions after drain().
    char buf[256];
    while (::read(readFd_, buf, sizeof(buf)) > 0) {
    }
    armed_.store(false, std::memory_order_release);
}

int
Poller::wait(int timeout_ms)
{
    while (true) {
        const int n = ::poll(fds_.data(),
                             static_cast<nfds_t>(fds_.size()),
                             timeout_ms);
        if (n >= 0 || errno != EINTR)
            return n;
    }
}

} // namespace rime::net
