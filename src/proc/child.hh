/**
 * @file
 * POSIX child-process primitives for the multi-process sweep
 * executor: fork a worker with a request/response pipe pair, frame
 * I/O over those pipes, poll across workers, and reap exits.
 *
 * Workers are forked, not exec'd: the child inherits the job vector
 * (and the trace arena's already-generated streams, copy-on-write)
 * and runs the exact same runSweepJobIsolated the in-process pool
 * runs, so a job's result is bit-identical however many process
 * boundaries it crossed.  Children must leave through _Exit --
 * never exit() -- so inherited stdio buffers and global destructors
 * are not replayed in two processes.
 *
 * Everything here is supervisor-side plumbing except
 * writeFrameBlocking/readFrameBlocking, which the child loop uses
 * too.
 */

#ifndef GAAS_PROC_CHILD_HH
#define GAAS_PROC_CHILD_HH

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace gaas::proc
{

/** One live worker child, supervisor's view. */
struct ChildProc
{
    std::int64_t pid = -1; //!< pid_t, widened for portability
    int toChild = -1;      //!< write end: requests
    int fromChild = -1;    //!< read end: heartbeats + results

    bool valid() const { return pid > 0; }
};

/**
 * Fork a worker.  In the child: all inherited descriptors the
 * worker must not touch are closed, stdio is flushed first (so
 * buffered supervisor output is not emitted twice), @p childMain
 * runs with (request read fd, response write fd), and the child
 * _Exit(0)s -- @p childMain never returns to the caller's frame.
 *
 * @return the supervisor-side handle; pid < 0 (with fds -1) if the
 *         fork or pipe creation failed
 */
ChildProc spawnChild(
    const std::function<void(int requestFd, int responseFd)>
        &childMain);

/**
 * Write one length-prefixed frame, blocking, retrying EINTR and
 * short writes.
 *
 * @return false on error (EPIPE: the peer died) -- the caller
 *         treats the worker as lost
 */
bool writeFrameBlocking(int fd, std::string_view payload);

/**
 * Read one length-prefixed frame, blocking.
 *
 * @return false on EOF or error
 */
bool readFrameBlocking(int fd, std::string &payload);

/** What poll() saw on one worker's response pipe. */
struct PollEvent
{
    bool readable = false; //!< bytes available
    bool closed = false;   //!< EOF/error: the worker is gone
};

/**
 * Poll the response pipes in @p fds (entries < 0 are skipped) for
 * up to @p timeoutMs.  @p events must have fds.size() slots.
 *
 * @return number of fds with any event, 0 on timeout
 */
int pollChildren(const std::vector<int> &fds,
                 std::vector<PollEvent> &events, int timeoutMs);

/**
 * Non-blocking drain of @p fd into @p out (appends).
 *
 * @return false once the pipe is at EOF or errored (worker gone);
 *         true while more bytes may come later
 */
bool drainPipe(int fd, std::string &out);

/**
 * waitpid wrapper.  @p block waits for the exit; otherwise returns
 * false immediately if the child is still running.  On reap,
 * @p description gets a human-readable cause ("signal 9 (killed)",
 * "exit status 3").
 */
bool reapChild(std::int64_t pid, bool block,
               std::string &description);

/** Send SIGKILL to @p pid (supervisor hang handling). */
void killChild(std::int64_t pid);

/** Close both pipe ends of @p child (idempotent). */
void closeChildPipes(ChildProc &child);

} // namespace gaas::proc

#endif // GAAS_PROC_CHILD_HH
