#include "sweep.hh"

#include <atomic>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "core/journal.hh"
#include "obs/metrics.hh"
#include "trace/arena.hh"
#include "util/env.hh"
#include "util/fault.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace gaas::core
{

const char *
pointStatusName(PointStatus status)
{
    switch (status) {
      case PointStatus::Ok:
        return "ok";
      case PointStatus::Failed:
        return "failed";
      case PointStatus::Degraded:
        return "degraded";
    }
    return "unknown";
}

bool
parsePointStatus(const std::string &name, PointStatus &out)
{
    for (const PointStatus s :
         {PointStatus::Ok, PointStatus::Failed,
          PointStatus::Degraded}) {
        if (name == pointStatusName(s)) {
            out = s;
            return true;
        }
    }
    return false;
}

double
SweepStats::refsPerSecond() const
{
    return wallSeconds > 0.0
               ? static_cast<double>(references) / wallSeconds
               : 0.0;
}

unsigned
sweepWorkers()
{
    const std::uint64_t parsed = envU64("GAAS_BENCH_JOBS", 0);
    if (parsed > std::numeric_limits<unsigned>::max()) {
        warn("ignoring GAAS_BENCH_JOBS=", parsed,
             " (more workers than fit an unsigned)");
    } else if (parsed > 0) {
        return static_cast<unsigned>(parsed);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

SimResult
runSweepJob(const SweepJob &job, SweepJobStats *stats)
{
    SweepJobStats local;
    const obs::Stopwatch total;
    // The arena attributes its work to threads; zeroing this thread's
    // slice here scopes the tally to exactly this job (workload build
    // plus any grow-on-demand during the run).
    trace::TraceArena::resetThreadTally();
    SimResult result;
    if (job.sampling.enabled && !job.traceFiles.empty()) {
        // The sampling controller builds standard workloads
        // internally; wiring trace files through it is future work.
        gaas_error(ErrorCode::Config,
                   "sampled simulation over trace-file workloads "
                   "is not supported yet (config '",
                   job.config.name, "')");
    }
    if (job.sampling.enabled && !job.workload) {
        // Sampled point: the controller owns workload construction
        // (one per sizing pass), so the whole thing is sim time.
        obs::ScopedTimer timer(local.simSeconds);
        result = runSampled(job.config, job.sampling,
                            job.instructions, job.mpLevel,
                            job.warmup, job.watchdogCycles);
    } else {
        // The simulator is built inside the build phase and run in
        // the sim phase; std::optional lets the two RAII timers
        // bracket construction and execution separately.
        std::optional<Simulator> sim;
        {
            obs::ScopedTimer timer(local.buildSeconds);
            Workload workload =
                job.workload ? job.workload()
                : !job.traceFiles.empty()
                    ? Workload::fromTraceFiles(job.traceFiles,
                                               job.traceStreaming)
                    : Workload::standard(
                          job.mpLevel,
                          job.warmup + job.instructions);
            sim.emplace(job.config, std::move(workload));
            sim->setWatchdogCycles(job.watchdogCycles);
        }
        {
            obs::ScopedTimer timer(local.simSeconds);
            result = sim->run(job.instructions, job.warmup);
        }
    }
    const trace::ArenaTally tally = trace::TraceArena::threadTally();
    if (stats) {
        stats->buildSeconds = local.buildSeconds;
        stats->simSeconds = local.simSeconds;
        stats->totalSeconds = total.seconds();
        stats->arenaStreamsGenerated = tally.streamsGenerated;
        stats->arenaStreamsReused = tally.streamsReused;
        stats->arenaRefsGenerated = tally.refsGenerated;
        stats->arenaGenSeconds = tally.genSeconds;
    }
    return result;
}

namespace
{

/** Cooperative cancel flag; see sweep.hh.  Written from signal
 *  handlers, so it must stay a lone lock-free atomic store. */
std::atomic<bool> cancel_requested{false};

} // namespace

void
requestSweepCancel()
{
    cancel_requested.store(true, std::memory_order_relaxed);
}

void
clearSweepCancel()
{
    cancel_requested.store(false, std::memory_order_relaxed);
}

bool
sweepCancelRequested()
{
    return cancel_requested.load(std::memory_order_relaxed);
}

SweepOutcome
cancelledOutcome(const SweepJob &job)
{
    SweepOutcome out;
    out.status = PointStatus::Failed;
    out.errorCode = ErrorCode::Cancelled;
    out.error = "sweep cancelled before this point started (config '" +
                job.config.name + "')";
    out.result = SimResult{};
    out.result.configName = job.config.name;
    return out;
}

SweepOutcome
runSweepJobIsolated(const SweepJob &job)
{
    SweepOutcome out;
    try {
        if (fault::shouldFail("sweep-job")) {
            gaas_error(ErrorCode::Internal,
                       "injected fault: sweep-job (config '",
                       job.config.name, "')");
        }
        out.result = runSweepJob(job, &out.stats);
    } catch (const SimError &e) {
        out.status = PointStatus::Failed;
        out.errorCode = e.code();
        out.error = e.what();
        out.result = SimResult{};
        out.result.configName = job.config.name;
    } catch (const std::exception &e) {
        out.status = PointStatus::Failed;
        out.errorCode = ErrorCode::Internal;
        out.error = e.what();
        out.result = SimResult{};
        out.result.configName = job.config.name;
    }
    return out;
}

std::vector<SweepOutcome>
driveSweep(const std::vector<SweepJob> &jobs, SweepExecutor &executor,
           SweepStats *stats, const SweepProgress &progress,
           RunJournal *journal)
{
    const obs::Stopwatch wall;
    const std::size_t n = jobs.size();
    std::vector<SweepOutcome> outcomes(n);
    std::vector<std::string> keys(n);
    std::vector<char> ready(n, 0);
    std::vector<std::size_t> todo;

    // Resolve journal reuse up front so the executor only ever sees
    // the points that actually need simulating.
    for (std::size_t i = 0; i < n; ++i) {
        const JournalRecord *rec = nullptr;
        if (journal) {
            keys[i] = sweepJobKey(jobs[i]);
            if (!keys[i].empty())
                rec = journal->find(keys[i]);
        }
        if (rec && rec->status != PointStatus::Failed) {
            outcomes[i].status = rec->status;
            outcomes[i].result = rec->result;
            outcomes[i].reused = true;
            ready[i] = 1;
        } else {
            todo.push_back(i);
        }
    }

    // Finalize the ready prefix in submission order: let the caller
    // see (and possibly downgrade) each point, then make it durable.
    std::size_t next = 0;
    auto finalizeReady = [&] {
        for (; next < n && ready[next]; ++next) {
            SweepOutcome &out = outcomes[next];
            if (progress)
                progress(next, out);
            // Cancelled points are never journaled: they carry no
            // result, and a resumed run must re-simulate them.
            if (!journal || out.reused || keys[next].empty() ||
                out.errorCode == ErrorCode::Cancelled)
                continue;
            JournalRecord rec;
            rec.status = out.status;
            rec.result = out.result;
            rec.errorCode = out.errorCode;
            rec.error = out.error;
            if (!journal->append(keys[next], rec) &&
                out.status == PointStatus::Ok) {
                // The point itself is fine; only its durability is
                // lost.  Never abort a sweep over journal I/O.
                out.status = PointStatus::Degraded;
            }
        }
    };

    SweepStats local;
    SweepStats &st = stats ? *stats : local;
    st = SweepStats{};
    finalizeReady();
    executor.run(jobs, todo, st,
                 [&](std::size_t i, SweepOutcome &&out) {
                     outcomes[i] = std::move(out);
                     ready[i] = 1;
                     finalizeReady();
                 });
    st.wallSeconds = wall.seconds();

    st.jobs = n;
    st.perJob.reserve(n);
    for (const SweepOutcome &out : outcomes) {
        st.references += out.result.references();
        if (out.status == PointStatus::Failed)
            ++st.failedPoints;
        else
            ++st.okPoints;
        if (out.status == PointStatus::Degraded)
            ++st.degradedPoints;
        if (out.reused)
            ++st.reusedPoints;
        const SweepJobStats &js = out.stats;
        st.arenaStreamsGenerated += js.arenaStreamsGenerated;
        st.arenaStreamsReused += js.arenaStreamsReused;
        st.arenaRefsGenerated += js.arenaRefsGenerated;
        st.arenaGenSeconds += js.arenaGenSeconds;
        st.perJob.push_back(js);
    }
    st.arenaBytes = trace::TraceArena::global().totalBytes();
    return outcomes;
}

namespace
{

/** The in-process executor: serial below two workers or two points,
 *  else a ThreadPool whose futures are gathered in submission order. */
class ThreadExecutor : public SweepExecutor
{
  public:
    explicit ThreadExecutor(unsigned workers) : workers(workers) {}

    void
    run(const std::vector<SweepJob> &jobs,
        const std::vector<std::size_t> &todo, SweepStats &stats,
        const Sink &done) override
    {
        stats.workers = workers;
        if (workers <= 1 || todo.size() <= 1) {
            // Serial reference path: also the pooled path's ground
            // truth.
            for (const std::size_t i : todo)
                done(i, sweepCancelRequested()
                            ? cancelledOutcome(jobs[i])
                            : runSweepJobIsolated(jobs[i]));
            return;
        }

        // The pool is declared after what its tasks use, so it joins
        // its workers before those die, on exception paths too.
        std::mutex id_mutex;
        std::map<std::thread::id, unsigned> worker_ids;
        ThreadPool pool(workers);
        std::vector<std::future<SweepOutcome>> futures;
        futures.reserve(todo.size());
        for (const std::size_t i : todo) {
            const SweepJob &job = jobs[i];
            const obs::Stopwatch submitted;
            futures.push_back(pool.submit([&job, &id_mutex,
                                           &worker_ids, submitted] {
                const double wait = submitted.seconds();
                unsigned worker = 0;
                {
                    // Dense worker indices, assigned in first-job
                    // order -- stable enough to spot an idle or
                    // overloaded worker in the telemetry.
                    std::lock_guard<std::mutex> lock(id_mutex);
                    worker = static_cast<unsigned>(
                        worker_ids
                            .emplace(std::this_thread::get_id(),
                                     worker_ids.size())
                            .first->second);
                }
                // A cancel drains the queue: jobs already running
                // finish, queued ones return immediately.
                SweepOutcome out = sweepCancelRequested()
                                       ? cancelledOutcome(job)
                                       : runSweepJobIsolated(job);
                out.stats.queueWaitSeconds = wait;
                out.stats.worker = worker;
                return out;
            }));
        }
        // Futures are held in submission order, so gathering them in
        // order restores determinism no matter how the workers
        // interleaved.
        for (std::size_t k = 0; k < todo.size(); ++k)
            done(todo[k], futures[k].get());
    }

  private:
    unsigned workers;
};

} // namespace

std::vector<SweepOutcome>
runSweepOutcomes(const std::vector<SweepJob> &jobs, unsigned workers,
                 SweepStats *stats, const SweepProgress &progress,
                 RunJournal *journal)
{
    ThreadExecutor executor(workers ? workers : sweepWorkers());
    return driveSweep(jobs, executor, stats, progress, journal);
}

} // namespace gaas::core
