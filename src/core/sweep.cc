#include "sweep.hh"

#include <algorithm>
#include <atomic>
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
    if (const unsigned jobs = envUnsigned("GAAS_BENCH_JOBS", 0))
        return jobs;
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

namespace
{

/** The armed `sweep-job` fault, counted once per job. */
void
injectJobFault(const SweepJob &job)
{
    if (fault::shouldFail("sweep-job")) {
        gaas_error(ErrorCode::Internal,
                   "injected fault: sweep-job (config '",
                   job.config.name, "')");
    }
}

/** Mark @p out Failed with @p code and @p error, its result zeroed
 *  bar the name. */
void
failOutcome(SweepOutcome &out, const SweepJob &job, ErrorCode code,
            std::string error)
{
    out.status = PointStatus::Failed;
    out.errorCode = code;
    out.error = std::move(error);
    out.result = SimResult{};
    out.result.configName = job.config.name;
}

} // namespace

SweepOutcome
runSweepJobIsolated(const SweepJob &job)
{
    SweepOutcome out;
    ErrorCode code = ErrorCode::Internal;
    std::string error;
    if (!captureError(
            [&] {
                injectJobFault(job);
                out.result = runSweepJob(job, &out.stats);
            },
            code, error))
        failOutcome(out, job, code, std::move(error));
    return out;
}

bool
sharesFrontEnd(const SweepJob &a, const SweepJob &b)
{
    const auto groupable = [](const SweepJob &job) {
        return job.sampling.enabled && !job.workload &&
               job.traceFiles.empty();
    };
    return groupable(a) && groupable(b) &&
           a.config.frontEnd() == b.config.frontEnd() &&
           a.mpLevel == b.mpLevel && a.instructions == b.instructions &&
           a.warmup == b.warmup && a.sampling == b.sampling;
}

std::vector<std::vector<std::size_t>>
sweepUnits(const std::vector<SweepJob> &jobs,
           const std::vector<std::size_t> &todo)
{
    // One unit per front end, in submission order; units come out
    // ordered by their first job.
    std::vector<std::vector<std::size_t>> units;
    for (const std::size_t i : todo) {
        auto u = std::find_if(units.begin(), units.end(),
                              [&](const std::vector<std::size_t> &unit) {
                                  return sharesFrontEnd(jobs[unit.front()],
                                                        jobs[i]);
                              });
        if (u == units.end())
            units.push_back({i});
        else
            u->push_back(i);
    }
    return units;
}

std::vector<SweepOutcome>
runSweepUnit(const std::vector<SweepJob> &jobs,
             const std::vector<std::size_t> &unit, ThreadPool *pool,
             unsigned helpers, GroupStats *grouped)
{
    if (sweepCancelRequested()) {
        std::vector<SweepOutcome> outs;
        for (const std::size_t i : unit)
            outs.push_back(cancelledOutcome(jobs[i]));
        return outs;
    }
    if (unit.size() == 1)
        return {runSweepJobIsolated(jobs[unit.front()])};

    const obs::Stopwatch wall;
    trace::TraceArena::resetThreadTally();
    std::vector<SweepOutcome> outs(unit.size());
    std::vector<SampledMember> members;
    std::vector<std::size_t> slot; // outs index of each member
    for (std::size_t k = 0; k < unit.size(); ++k) {
        const SweepJob &job = jobs[unit[k]];
        ErrorCode code = ErrorCode::Internal;
        std::string error;
        if (captureError([&] { injectJobFault(job); }, code, error)) {
            SampledMember &m = members.emplace_back();
            m.config = job.config;
            m.watchdogCycles = job.watchdogCycles;
            slot.push_back(k);
        } else {
            failOutcome(outs[k], job, code, std::move(error));
        }
    }

    // A front-end error fails every job of the unit; a member's own
    // error fails only its job.
    const SweepJob &first = jobs[unit.front()];
    ErrorCode code = ErrorCode::Internal;
    std::string error;
    GroupStats group;
    const bool ran = members.empty() ||
                     captureError(
                         [&] {
                             group = runSampledGroup(
                                 members, first.sampling,
                                 first.instructions, first.mpLevel,
                                 first.warmup, pool, helpers);
                         },
                         code, error);
    for (std::size_t m = 0; m < members.size(); ++m) {
        SweepOutcome &out = outs[slot[m]];
        const SweepJob &job = jobs[unit[slot[m]]];
        if (!ran)
            failOutcome(out, job, code, error);
        else if (members[m].failed)
            failOutcome(out, job, members[m].errorCode,
                        std::move(members[m].error));
        else
            out.result = std::move(members[m].result);
    }
    if (grouped)
        *grouped += group;

    // Host time: the front-end pass splits evenly over the unit's
    // jobs, and each adds its own replays, on whichever threads ran
    // them, or its solo run, so the jobs sum to the thread-seconds
    // the unit kept busy: its wall time when no helper ran.  When no
    // front end recorded (every member ran solo or failed) or it
    // threw, the unit's wall less its members' own seconds splits
    // instead.  The arena work is the front end's, charged to the
    // first job.
    double setup = group.frontEndSeconds;
    if (!ran || group.recordedCalls == 0) {
        setup = wall.seconds();
        for (const SampledMember &m : members)
            setup -= m.seconds;
    }
    const double share = setup / static_cast<double>(unit.size());
    for (SweepOutcome &out : outs) {
        out.stats.simSeconds = share;
        out.stats.totalSeconds = share;
    }
    for (std::size_t m = 0; m < members.size(); ++m) {
        outs[slot[m]].stats.simSeconds += members[m].seconds;
        outs[slot[m]].stats.totalSeconds += members[m].seconds;
    }
    const trace::ArenaTally tally = trace::TraceArena::threadTally();
    SweepJobStats &js = outs.front().stats;
    js.arenaStreamsGenerated = tally.streamsGenerated;
    js.arenaStreamsReused = tally.streamsReused;
    js.arenaRefsGenerated = tally.refsGenerated;
    js.arenaGenSeconds = tally.genSeconds;
    return outs;
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
        const SweepOutcome *rec = nullptr;
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
            if (!journal->append(keys[next], out) &&
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

/** The in-process executor: runs sweepUnits() serially below two
 *  workers or two jobs, else on a ThreadPool whose futures are
 *  gathered in submission order.  A grouped unit replays its members
 *  on workers - 1 helper tasks of the same pool as well, a lone unit
 *  included. */
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
        const std::vector<std::vector<std::size_t>> units =
            sweepUnits(jobs, todo);
        const auto deliver = [&done](const std::vector<std::size_t> &unit,
                                     std::vector<SweepOutcome> outs) {
            for (std::size_t k = 0; k < unit.size(); ++k)
                done(unit[k], std::move(outs[k]));
        };
        if (workers <= 1 || todo.size() <= 1) {
            // Serial reference path: also the pooled path's ground
            // truth.
            for (const std::vector<std::size_t> &unit : units)
                deliver(unit, runSweepUnit(jobs, unit, nullptr, 0,
                                           &stats.grouped));
            return;
        }

        // The pool is declared after what its tasks use, so it joins
        // its workers before those die, on exception paths too.
        std::mutex id_mutex;
        std::map<std::thread::id, unsigned> worker_ids;
        std::vector<GroupStats> grouped(units.size());
        ThreadPool pool(workers);
        std::vector<std::future<std::vector<SweepOutcome>>> futures;
        futures.reserve(units.size());
        for (std::size_t u = 0; u < units.size(); ++u) {
            const obs::Stopwatch submitted;
            futures.push_back(pool.submit([&jobs, &unit = units[u],
                                           &id_mutex, &worker_ids,
                                           &group = grouped[u], &pool,
                                           helpers = workers - 1,
                                           submitted] {
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
                // A cancel drains the queue: units already running
                // finish, queued ones return immediately.  A grouped
                // unit's helper tasks queue behind the units already
                // submitted, so they take only workers no unit is
                // waiting for.
                std::vector<SweepOutcome> outs =
                    runSweepUnit(jobs, unit, &pool, helpers, &group);
                for (SweepOutcome &out : outs) {
                    out.stats.queueWaitSeconds = wait;
                    out.stats.worker = worker;
                }
                return outs;
            }));
        }
        // Futures are held in submission order, so gathering them in
        // order restores determinism no matter how the workers
        // interleaved.
        for (std::size_t u = 0; u < units.size(); ++u) {
            deliver(units[u], futures[u].get());
            stats.grouped += grouped[u];
        }
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
