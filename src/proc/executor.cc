#include "executor.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <deque>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include "core/journal.hh"
#include "core/workload.hh"
#include "obs/metrics.hh"
#include "proc/child.hh"
#include "proc/protocol.hh"
#include "trace/arena.hh"
#include "util/env.hh"
#include "util/error.hh"
#include "util/fault.hh"
#include "util/logging.hh"

namespace gaas::proc
{

namespace
{

unsigned
envUnsigned(const char *name, unsigned fallback)
{
    const std::uint64_t v = envU64(name, fallback);
    if (v > std::numeric_limits<unsigned>::max()) {
        warn("ignoring ", name, "=", v, " (does not fit an unsigned)");
        return fallback;
    }
    return static_cast<unsigned>(v);
}

} // namespace

MprocOptions
MprocOptions::fromEnv()
{
    MprocOptions o;
    o.maxAttempts =
        envUnsigned("GAAS_MPROC_RETRIES", o.maxAttempts);
    o.heartbeatMs =
        envUnsigned("GAAS_MPROC_HEARTBEAT_MS", o.heartbeatMs);
    o.heartbeatMiss =
        envUnsigned("GAAS_MPROC_HEARTBEAT_MISS", o.heartbeatMiss);
    o.backoffMs = envUnsigned("GAAS_MPROC_BACKOFF_MS", o.backoffMs);
    return o;
}

unsigned
mprocWorkers()
{
    return envUnsigned("GAAS_BENCH_MPROC", 0);
}

#if !defined(_WIN32)

namespace
{

using Clock = std::chrono::steady_clock;

/**
 * The worker child's main loop: read requests, run jobs through the
 * exact same runSweepJobIsolated the in-process pool uses, write
 * results back.  A side thread emits heartbeat frames (sharing a
 * write mutex with the result path, so frames never interleave).
 * Returns on Shutdown, pipe EOF, or a supervisor-side write error;
 * the caller (spawnChild's child branch) then _exit(0)s.
 */
void
workerLoop(const std::vector<core::SweepJob> &jobs, int requestFd,
           int responseFd, unsigned heartbeatMs)
{
    std::mutex writeMutex;
    std::atomic<bool> running{true};
    std::thread beater([&writeMutex, &running, responseFd,
                        heartbeatMs] {
        const std::string beat = encodeHeartbeat();
        for (;;) {
            {
                std::lock_guard<std::mutex> lock(writeMutex);
                if (!running.load(std::memory_order_relaxed))
                    return;
                if (!writeFrameBlocking(responseFd, beat))
                    return; // supervisor gone; job loop will see EOF
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(heartbeatMs));
        }
    });

    std::string payload;
    while (readFrameBlocking(requestFd, payload)) {
        Request req;
        try {
            req = decodeRequest(payload);
        } catch (const SimError &) {
            break; // corrupt stream: die loudly, supervisor requeues
        }
        if (req.type != FrameType::Job)
            break; // Shutdown
        if (req.job >= jobs.size())
            break;
        if (req.flags & kFlagHang) {
            // Injected wedge: take the write mutex so even the
            // heartbeat thread falls silent, then sleep forever.
            // The supervisor's heartbeat deadline SIGKILLs us.
            writeMutex.lock();
            running.store(false, std::memory_order_relaxed);
            for (;;)
                std::this_thread::sleep_for(std::chrono::hours(1));
        }
        if (req.flags & kFlagKill)
            ::raise(SIGKILL);

        const std::string frame = encodeResult(
            req.job, core::runSweepJobIsolated(jobs[req.job]));
        std::lock_guard<std::mutex> lock(writeMutex);
        if (!writeFrameBlocking(responseFd, frame))
            break;
    }
    running.store(false, std::memory_order_relaxed);
    // The beater may be mid-sleep; the child is about to _exit,
    // which ends all threads -- detach so ~thread() doesn't abort.
    beater.detach();
}

/** Restore the previous SIGPIPE disposition on scope exit.  The
 *  supervisor writes into pipes whose reader can die at any moment;
 *  it must see EPIPE (handled as a worker loss), not be killed. */
class ScopedSigpipeIgnore
{
  public:
    ScopedSigpipeIgnore()
    {
        struct sigaction ignore = {};
        ignore.sa_handler = SIG_IGN;
        ::sigaction(SIGPIPE, &ignore, &previous);
    }
    ~ScopedSigpipeIgnore() { ::sigaction(SIGPIPE, &previous, nullptr); }

  private:
    struct sigaction previous = {};
};

/** Generate the arena streams the ladder's standard workloads will
 *  replay, before any fork, so workers inherit them copy-on-write.
 *  One prewarm per distinct mp level, sized to the largest budget. */
void
prewarmArena(const std::vector<core::SweepJob> &jobs,
             const std::vector<std::size_t> &todo)
{
    std::vector<std::pair<unsigned, Count>> levels;
    for (const std::size_t i : todo) {
        if (jobs[i].workload)
            continue;
        const Count hint =
            jobs[i].warmup + jobs[i].instructions;
        auto it = std::find_if(
            levels.begin(), levels.end(),
            [&](const auto &l) { return l.first == jobs[i].mpLevel; });
        if (it == levels.end())
            levels.emplace_back(jobs[i].mpLevel, hint);
        else
            it->second = std::max(it->second, hint);
    }
    for (const auto &[mp, hint] : levels)
        core::Workload::prewarmStandardStreams(mp, hint);
}

/**
 * The supervisor: forks the worker pool, shards the points
 * core::driveSweep hands it over the workers and reports each
 * finished index exactly once.  Journal, finalize order and
 * dispositions belong to driveSweep; this class only keeps workers
 * alive and results flowing.
 */
class Supervisor : public core::SweepExecutor
{
  public:
    Supervisor(const MprocOptions &opts, core::RunJournal *journal)
        : o(opts), journal(journal)
    {
    }

    void run(const std::vector<core::SweepJob> &jobs,
             const std::vector<std::size_t> &todo,
             core::SweepStats &stats, const Sink &done) override;

  private:
    MprocOptions o;
    /** Only closed in each child, never read or written here. */
    core::RunJournal *journal;
};

void
Supervisor::run(const std::vector<core::SweepJob> &jobs,
                const std::vector<std::size_t> &todo,
                core::SweepStats &stats, const Sink &done)
{
    const obs::Stopwatch started;
    const std::size_t n = jobs.size();
    const std::size_t to_run = todo.size();

    trace::TraceArena::resetThreadTally();
    prewarmArena(jobs, todo);
    const trace::ArenaTally prewarm = trace::TraceArena::threadTally();

    ScopedSigpipeIgnore sigpipe;

    struct Slot
    {
        ChildProc child;
        FrameSplitter frames;
        bool alive = false;
        bool hasJob = false;
        std::size_t job = 0;
        Clock::time_point lastBeat;
    };

    const unsigned nworkers = static_cast<unsigned>(std::max<
        std::size_t>(
        1, std::min<std::size_t>(o.workers, to_run ? to_run : 1)));
    std::vector<Slot> slots(nworkers);

    std::vector<double> queueWait(n, 0.0);
    // Indices driveSweep did not hand over count as finished, so a
    // stray result frame can never be reported for them.
    std::vector<char> finished(n, 1);
    for (const std::size_t i : todo)
        finished[i] = 0;
    std::vector<unsigned> attempts(n, 0);
    std::vector<Clock::time_point> eligibleAt(n, Clock::now());
    std::deque<std::size_t> pending(todo.begin(), todo.end());
    // Results recorded since the last report(), handed to driveSweep
    // at the same loop points every iteration.
    std::vector<std::pair<std::size_t, core::SweepOutcome>> arrived;

    std::size_t completed = 0; //!< jobs with a recorded result
    std::uint64_t respawns = 0;
    std::uint64_t requeues = 0;

    auto report = [&] {
        for (auto &[i, out] : arrived)
            done(i, std::move(out));
        arrived.clear();
    };

    auto recordOutcome = [&](std::size_t i, core::SweepOutcome &&out,
                             unsigned workerSlot) {
        if (finished[i])
            return;
        // The child's stats frame carries timing and arena tallies;
        // queue wait, worker slot and requeues are supervisor-side.
        out.stats.queueWaitSeconds = queueWait[i];
        out.stats.worker = workerSlot;
        out.stats.requeues = attempts[i] > 0 ? attempts[i] - 1 : 0;
        arrived.emplace_back(i, std::move(out));
        finished[i] = 1;
        ++completed;
    };

    auto spawnWorker = [&](std::size_t s) {
        Slot &slot = slots[s];
        const unsigned hb = o.heartbeatMs;
        core::RunJournal *inherited = journal;
        slot.child = spawnChild([&jobs, hb, inherited](int rfd,
                                                       int wfd) {
            // Drop the inherited journal descriptor: flock lives on
            // the shared open-file description, so a worker that
            // outlives a killed supervisor must not keep the
            // journal locked against the --resume rerun.
            if (inherited)
                inherited->close();
            workerLoop(jobs, rfd, wfd, hb);
        });
        slot.frames = FrameSplitter{};
        slot.hasJob = false;
        slot.lastBeat = Clock::now();
        slot.alive = slot.child.valid();
        return slot.alive;
    };

    // Pop every complete frame a worker has sent.  Returns false if
    // the stream is malformed (the worker is then treated as lost).
    auto processFrames = [&](std::size_t s) {
        Slot &slot = slots[s];
        std::string payload;
        try {
            while (slot.frames.next(payload)) {
                std::uint64_t jobIndex = 0;
                core::SweepOutcome out;
                const FrameType type =
                    decodeResponse(payload, jobIndex, out);
                slot.lastBeat = Clock::now();
                if (type != FrameType::Result)
                    continue; // heartbeat
                if (jobIndex >= n)
                    return false;
                recordOutcome(jobIndex, std::move(out),
                              static_cast<unsigned>(s));
                if (slot.hasJob && slot.job == jobIndex)
                    slot.hasJob = false;
            }
        } catch (const SimError &) {
            return false;
        }
        return true;
    };

    // A worker is gone (pipe EOF, write error, malformed stream, or
    // missed heartbeats): salvage any result it managed to send,
    // reap it, requeue or poison its in-flight job, respawn.
    auto handleWorkerLoss = [&](std::size_t s) {
        Slot &slot = slots[s];
        if (!slot.alive)
            return;
        std::string tail;
        if (slot.child.fromChild >= 0)
            drainPipe(slot.child.fromChild, tail);
        if (!tail.empty())
            slot.frames.feed(tail.data(), tail.size());
        processFrames(s);
        killChild(slot.child.pid);
        std::string cause;
        reapChild(slot.child.pid, true, cause);
        closeChildPipes(slot.child);
        slot.alive = false;
        if (slot.hasJob && !finished[slot.job]) {
            const std::size_t j = slot.job;
            if (core::sweepCancelRequested()) {
                recordOutcome(j, core::cancelledOutcome(jobs[j]),
                              static_cast<unsigned>(s));
            } else if (attempts[j] >= o.maxAttempts) {
                core::SweepOutcome out;
                out.status = core::PointStatus::Failed;
                out.errorCode = ErrorCode::WorkerLost;
                out.error = "worker lost (" + cause +
                            ") on every one of " +
                            std::to_string(attempts[j]) +
                            " dispatches of config '" +
                            jobs[j].config.name +
                            "'; degrading this point";
                out.result.configName = jobs[j].config.name;
                warn("sweep point ", j, " (config '",
                     jobs[j].config.name, "') is poison: ", out.error);
                recordOutcome(j, std::move(out),
                              static_cast<unsigned>(s));
            } else {
                ++requeues;
                const unsigned shift = attempts[j] - 1;
                const std::uint64_t delay = std::min<std::uint64_t>(
                    shift >= 63
                        ? 5000
                        : std::uint64_t{o.backoffMs} << shift,
                    5000);
                eligibleAt[j] =
                    Clock::now() + std::chrono::milliseconds(delay);
                pending.push_front(j);
                warn("sweep worker ", s, " died (", cause,
                     ") running point ", j, " (config '",
                     jobs[j].config.name, "'); requeueing with ",
                     delay, " ms backoff (attempt ", attempts[j],
                     " of ", o.maxAttempts, ")");
            }
        }
        slot.hasJob = false;
        if (!core::sweepCancelRequested() && !pending.empty() &&
            spawnWorker(s))
            ++respawns;
    };

    // Hand the first backoff-eligible pending job to worker slot s.
    auto dispatch = [&](std::size_t s) {
        Slot &slot = slots[s];
        if (!slot.alive || slot.hasJob || pending.empty())
            return;
        const Clock::time_point now = Clock::now();
        const auto it = std::find_if(
            pending.begin(), pending.end(),
            [&](std::size_t j) { return eligibleAt[j] <= now; });
        if (it == pending.end())
            return;
        const std::size_t j = *it;
        pending.erase(it);
        // Fault injection is counted here, on the supervisor, one
        // hit per dispatch -- deterministic no matter which worker
        // process the job lands on.
        std::uint32_t flags = 0;
        if (fault::shouldFail("worker-kill"))
            flags |= kFlagKill;
        if (fault::shouldFail("worker-hang"))
            flags |= kFlagHang;
        if (attempts[j] == 0)
            queueWait[j] = started.seconds();
        ++attempts[j];
        slot.hasJob = true;
        slot.job = j;
        if (!writeFrameBlocking(slot.child.toChild,
                                encodeJobRequest(j, flags)))
            handleWorkerLoss(s); // EPIPE: died before the request
    };

    // Initial pool (a fully-reused sweep forks nothing).
    if (to_run > 0)
        for (std::size_t s = 0; s < slots.size(); ++s)
            spawnWorker(s);

    const auto heartbeatDeadline = std::chrono::milliseconds(
        std::uint64_t{o.heartbeatMs} * o.heartbeatMiss);
    std::vector<int> fds(slots.size(), -1);
    std::vector<PollEvent> events(slots.size());

    while (completed < to_run) {
        // Cooperative cancellation: in-flight jobs drain, queued
        // ones fail fast with the stable `cancelled` code.
        if (core::sweepCancelRequested() && !pending.empty()) {
            for (const std::size_t j : pending)
                recordOutcome(j, core::cancelledOutcome(jobs[j]), 0);
            pending.clear();
        }
        report();
        if (completed >= to_run)
            break;

        // Never deadlock on a dead pool: with work queued and no
        // live worker, respawn; if even fork fails, run the rest on
        // the supervisor itself -- degraded, but the ladder finishes.
        const bool anyAlive =
            std::any_of(slots.begin(), slots.end(),
                        [](const Slot &s) { return s.alive; });
        if (!anyAlive) {
            if (!pending.empty() && spawnWorker(0)) {
                ++respawns;
            } else if (!pending.empty()) {
                warn("cannot fork sweep workers; finishing ",
                     pending.size(), " point(s) in-process");
                for (const std::size_t j : pending) {
                    ++attempts[j];
                    recordOutcome(j,
                                  core::sweepCancelRequested()
                                      ? core::cancelledOutcome(jobs[j])
                                      : core::runSweepJobIsolated(jobs[j]),
                                  0);
                }
                pending.clear();
                continue;
            }
        }

        for (std::size_t s = 0; s < slots.size(); ++s)
            dispatch(s);

        for (std::size_t s = 0; s < slots.size(); ++s)
            fds[s] = slots[s].alive ? slots[s].child.fromChild : -1;
        pollChildren(fds, events, 10);

        for (std::size_t s = 0; s < slots.size(); ++s) {
            Slot &slot = slots[s];
            if (!slot.alive ||
                !(events[s].readable || events[s].closed))
                continue;
            std::string bytes;
            const bool open =
                drainPipe(slot.child.fromChild, bytes);
            if (!bytes.empty())
                slot.frames.feed(bytes.data(), bytes.size());
            const bool sane = processFrames(s);
            if (!open || !sane || events[s].closed)
                handleWorkerLoss(s);
        }

        const Clock::time_point now = Clock::now();
        for (std::size_t s = 0; s < slots.size(); ++s) {
            Slot &slot = slots[s];
            if (!slot.alive || now - slot.lastBeat < heartbeatDeadline)
                continue;
            warn("sweep worker ", s, " missed ", o.heartbeatMiss,
                 " heartbeats (", o.heartbeatMs,
                 " ms interval); killing it");
            handleWorkerLoss(s);
        }

        report();
    }
    report();

    // Orderly shutdown: every still-live worker is idle by now.
    const std::string bye = encodeShutdown();
    for (Slot &slot : slots) {
        if (!slot.alive)
            continue;
        writeFrameBlocking(slot.child.toChild, bye);
        closeChildPipes(slot.child);
        std::string cause;
        reapChild(slot.child.pid, true, cause);
        slot.alive = false;
    }

    stats.workers = nworkers;
    stats.mproc = true;
    stats.workerRespawns = respawns;
    stats.requeuedJobs = requeues;
    // Generation done in the supervisor's prewarm; the workers'
    // share arrives per job over the pipe.
    stats.arenaStreamsGenerated += prewarm.streamsGenerated;
    stats.arenaStreamsReused += prewarm.streamsReused;
    stats.arenaRefsGenerated += prewarm.refsGenerated;
    stats.arenaGenSeconds += prewarm.genSeconds;
}

} // namespace

std::vector<core::SweepOutcome>
runSweepMproc(const std::vector<core::SweepJob> &jobs,
              const MprocOptions &opts, core::SweepStats *stats,
              const core::SweepProgress &progress,
              core::RunJournal *journal)
{
    MprocOptions o = opts;
    if (o.workers == 0)
        o.workers = core::sweepWorkers();
    o.maxAttempts = std::max(1u, o.maxAttempts);
    o.heartbeatMs = std::max(1u, o.heartbeatMs);
    o.heartbeatMiss = std::max(1u, o.heartbeatMiss);

    if (!mprocSupported() || jobs.empty())
        return core::runSweepOutcomes(jobs, o.workers, stats,
                                      progress, journal);
    Supervisor supervisor(o, journal);
    return core::driveSweep(jobs, supervisor, stats, progress,
                            journal);
}

#else // _WIN32

std::vector<core::SweepOutcome>
runSweepMproc(const std::vector<core::SweepJob> &jobs,
              const MprocOptions &opts, core::SweepStats *stats,
              const core::SweepProgress &progress,
              core::RunJournal *journal)
{
    return core::runSweepOutcomes(jobs, opts.workers, stats,
                                  progress, journal);
}

#endif

} // namespace gaas::proc
