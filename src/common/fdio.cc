#include "fdio.hh"

#include <algorithm>
#include <cerrno>
#include <climits>

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

namespace rime
{

namespace fdio_detail
{

namespace
{

ssize_t
sendvNoSignal(int fd, const struct iovec *iov, int iovcnt)
{
    msghdr mh{};
    mh.msg_iov = const_cast<struct iovec *>(iov);
    mh.msg_iovlen = static_cast<std::size_t>(iovcnt);
    return ::sendmsg(fd, &mh, MSG_NOSIGNAL);
}

} // namespace

WriteFn writeShim = &::write;
SendvFn sendvShim = &sendvNoSignal;

} // namespace fdio_detail

bool
writeFully(int fd, const void *data, std::size_t size)
{
    const auto *p = static_cast<const unsigned char *>(data);
    std::size_t left = size;
    while (left > 0) {
        const ssize_t n = fdio_detail::writeShim(fd, p, left);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        // n == 0 on a regular file would loop forever; POSIX reserves
        // it for zero-length requests, so treat it as progress-free
        // and retry -- a wedged fd eventually fails with an errno.
        p += n;
        left -= static_cast<std::size_t>(n);
    }
    return true;
}

bool
sendvFully(int fd, struct iovec *iov, int iovcnt)
{
    int at = 0;
    while (at < iovcnt) {
        // Skip buffers already fully consumed (or empty to begin
        // with) so the kernel never sees zero-length entries.
        if (iov[at].iov_len == 0) {
            ++at;
            continue;
        }
        // Chunk the vector to what one sendmsg accepts; the outer loop
        // resumes with the rest.
        const int take_cnt =
            std::min(iovcnt - at, static_cast<int>(IOV_MAX));
        ssize_t n = fdio_detail::sendvShim(fd, iov + at, take_cnt);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        // Consume `n` bytes across the entries, possibly stopping
        // mid-buffer -- the next call resumes exactly there.
        while (n > 0 && at < iovcnt) {
            const std::size_t take = std::min(
                static_cast<std::size_t>(n), iov[at].iov_len);
            iov[at].iov_base =
                static_cast<char *>(iov[at].iov_base) + take;
            iov[at].iov_len -= take;
            n -= static_cast<ssize_t>(take);
            if (iov[at].iov_len == 0)
                ++at;
        }
    }
    return true;
}

bool
fsyncParentDir(const std::string &path)
{
    const auto slash = path.find_last_of('/');
    const std::string dir =
        slash == std::string::npos ? "." : path.substr(0, slash + 1);
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0)
        return false;
    const bool ok = ::fsync(fd) == 0;
    const int saved = errno;
    ::close(fd);
    errno = saved;
    return ok;
}

} // namespace rime
