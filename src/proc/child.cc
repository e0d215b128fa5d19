#include "child.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "util/bitops.hh"

namespace gaas::proc
{

namespace
{

/** Set O_NONBLOCK (supervisor read ends). */
void
setNonBlocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0)
        ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

bool
writeAll(int fd, const char *data, std::size_t size)
{
    while (size > 0) {
        const ssize_t n = ::write(fd, data, size);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        data += n;
        size -= static_cast<std::size_t>(n);
    }
    return true;
}

bool
readAll(int fd, char *data, std::size_t size)
{
    while (size > 0) {
        const ssize_t n = ::read(fd, data, size);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        if (n == 0)
            return false; // EOF mid-frame
        data += n;
        size -= static_cast<std::size_t>(n);
    }
    return true;
}

} // namespace

ChildProc
spawnChild(const std::function<void(int, int)> &childMain)
{
    ChildProc child;
    int request[2] = {-1, -1};  // supervisor writes -> child reads
    int response[2] = {-1, -1}; // child writes -> supervisor reads
    if (::pipe(request) != 0)
        return child;
    if (::pipe(response) != 0) {
        ::close(request[0]);
        ::close(request[1]);
        return child;
    }

    // A child that inherited buffered stdio would re-emit it on any
    // flush; empty the buffers while there is still one process.
    std::fflush(nullptr);

    const pid_t pid = ::fork();
    if (pid < 0) {
        for (const int fd :
             {request[0], request[1], response[0], response[1]})
            ::close(fd);
        return child;
    }
    if (pid == 0) {
        // Worker: keep only its two pipe ends.
        ::close(request[1]);
        ::close(response[0]);
        childMain(request[0], response[1]);
        ::_exit(0);
    }

    ::close(request[0]);
    ::close(response[1]);
    setNonBlocking(response[0]);
    child.pid = pid;
    child.toChild = request[1];
    child.fromChild = response[0];
    return child;
}

bool
writeFrameBlocking(int fd, std::string_view payload)
{
    char prefix[4];
    storeLE<std::uint32_t>(prefix, payload.size());
    // One combined buffer per frame: frames from the heartbeat
    // thread and the job loop interleave at frame granularity (the
    // caller serializes with a mutex), and a single write() of a
    // sub-PIPE_BUF frame is atomic anyway.
    std::string frame;
    frame.reserve(4 + payload.size());
    frame.append(prefix, 4);
    frame.append(payload);
    return writeAll(fd, frame.data(), frame.size());
}

bool
readFrameBlocking(int fd, std::string &payload)
{
    char prefix[4];
    if (!readAll(fd, prefix, 4))
        return false;
    const auto len = loadLE<std::uint32_t>(prefix);
    payload.resize(len);
    return len == 0 || readAll(fd, payload.data(), len);
}

int
pollChildren(const std::vector<int> &fds,
             std::vector<PollEvent> &events, int timeoutMs)
{
    std::vector<struct pollfd> pfds;
    pfds.reserve(fds.size());
    for (const int fd : fds) {
        struct pollfd p;
        p.fd = fd < 0 ? -1 : fd; // negative fds are ignored by poll
        p.events = POLLIN;
        p.revents = 0;
        pfds.push_back(p);
    }
    int n = ::poll(pfds.data(), pfds.size(), timeoutMs);
    if (n < 0 && errno != EINTR)
        n = 0;
    for (std::size_t i = 0; i < fds.size(); ++i) {
        events[i] = PollEvent{};
        if (fds[i] < 0)
            continue;
        if (pfds[i].revents & POLLIN)
            events[i].readable = true;
        if (pfds[i].revents & (POLLHUP | POLLERR | POLLNVAL))
            events[i].closed = true;
    }
    return n > 0 ? n : 0;
}

bool
drainPipe(int fd, std::string &out)
{
    char buf[4096];
    for (;;) {
        const ssize_t n = ::read(fd, buf, sizeof buf);
        if (n > 0) {
            out.append(buf, static_cast<std::size_t>(n));
            continue;
        }
        if (n == 0)
            return false; // EOF: worker closed its end (or died)
        if (errno == EINTR)
            continue;
        return errno == EAGAIN || errno == EWOULDBLOCK;
    }
}

bool
reapChild(std::int64_t pid, bool block, std::string &description)
{
    int status = 0;
    pid_t r;
    do {
        r = ::waitpid(static_cast<pid_t>(pid), &status,
                      block ? 0 : WNOHANG);
    } while (r < 0 && errno == EINTR);
    if (r != static_cast<pid_t>(pid)) {
        description = r < 0 ? "unreapable" : "still running";
        return r < 0; // ECHILD etc.: treat as gone
    }
    if (WIFSIGNALED(status)) {
        const int sig = WTERMSIG(status);
        description = "signal " + std::to_string(sig) + " (" +
                      ::strsignal(sig) + ")";
    } else if (WIFEXITED(status)) {
        description =
            "exit status " + std::to_string(WEXITSTATUS(status));
    } else {
        description = "unknown wait status";
    }
    return true;
}

void
killChild(std::int64_t pid)
{
    if (pid > 0)
        ::kill(static_cast<pid_t>(pid), SIGKILL);
}

void
closeChildPipes(ChildProc &child)
{
    if (child.toChild >= 0) {
        ::close(child.toChild);
        child.toChild = -1;
    }
    if (child.fromChild >= 0) {
        ::close(child.fromChild);
        child.fromChild = -1;
    }
}

} // namespace gaas::proc
