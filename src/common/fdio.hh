/**
 * @file
 * Robust file-descriptor I/O shared by the durability layer (journal
 * appends, snapshot publication) and the wire client (socket sends).
 *
 * POSIX write() may legally transfer fewer bytes than asked -- on
 * signals (EINTR), on pipes and sockets, and even on regular files on
 * some filesystems.  A short write is *not* an error; treating it as
 * one turns a survivable hiccup into a dead serving process.  These
 * helpers resume partial transfers and retry EINTR, failing only on
 * real errors (disk full, closed socket, ...).
 *
 * The `writeShim` and `sendvShim` hooks let tests inject partial
 * writes, EINTR and stalls without a real slow device: the regression
 * tests for the journal short-write fix point `writeShim` at a shim
 * that dribbles one byte per call, and the client's reset and
 * fd-reuse tests hold a send inside `sendvShim`.
 */

#ifndef RIME_COMMON_FDIO_HH
#define RIME_COMMON_FDIO_HH

#include <cstddef>
#include <string>

#include <sys/types.h>
#include <sys/uio.h>

namespace rime
{

namespace fdio_detail
{

/**
 * Overridable write(2) entry point.  Defaults to ::write; tests swap
 * in a shim that returns short counts / EINTR to exercise the resume
 * loop.  Not thread-safe to mutate while writes are in flight.
 */
using WriteFn = ssize_t (*)(int fd, const void *buf, std::size_t len);
extern WriteFn writeShim;

/**
 * Overridable vectored socket send (same contract as writeShim).
 * Defaults to sendmsg(2) with MSG_NOSIGNAL, so a peer reset fails
 * the call with EPIPE instead of raising SIGPIPE.
 */
using SendvFn = ssize_t (*)(int fd, const struct iovec *iov,
                            int iovcnt);
extern SendvFn sendvShim;

} // namespace fdio_detail

/**
 * Write all `size` bytes to `fd`, resuming short writes and retrying
 * EINTR/EAGAIN-on-blocking-fd indefinitely.  Returns true when every
 * byte landed; false on a real error (errno preserved).  Never calls
 * fatal() -- the caller decides whether the fd is load-bearing.
 */
bool writeFully(int fd, const void *data, std::size_t size);

/**
 * Scatter-gather socket variant of writeFully: ship every byte
 * described by `iov[0..iovcnt)` to socket `fd` with as few
 * sendmsg(2) calls as the kernel allows, resuming short sends
 * (including ones that end mid-buffer) and retrying EINTR.  Sends
 * with MSG_NOSIGNAL: a reset peer is a false return with errno
 * EPIPE, never a SIGPIPE.  The iovec array is consumed and may be
 * mutated; callers rebuild it per call.  Returns true when every byte
 * landed; false on a real error (errno preserved).
 */
bool sendvFully(int fd, struct iovec *iov, int iovcnt);

/**
 * fsync the directory containing `path` (so a rename or create inside
 * it survives a host crash).  Returns false (errno preserved) when
 * the directory cannot be opened or fsynced.
 */
bool fsyncParentDir(const std::string &path);

} // namespace rime

#endif // RIME_COMMON_FDIO_HH
