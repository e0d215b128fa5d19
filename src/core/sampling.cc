#include "sampling.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "core/result_io.hh"
#include "core/simulator.hh"
#include "core/workload.hh"
#include "obs/metrics.hh"
#include "stats/distribution.hh"
#include "synth/suite.hh"
#include "util/error.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace gaas::core
{

namespace
{

/** Sizing rounds before the controller accepts whatever CI the
 *  episode cap yields.  Growth continues the same machine, so a
 *  round only costs the *additional* episodes it schedules. */
constexpr Count kMaxRounds = 3;

constexpr double kConfidence = 0.95;

/**
 * Per-process trace references consumed per *global* skipped
 * instruction: the process's instruction share
 * (synth::instructionShares, the model workload.cc's refHint uses)
 * times its references per instruction, 1 (Inst) + loadFrac +
 * storeFrac.  No slack factor: this converts a gap we want to *land
 * after*, not a buffer we want to oversize.
 */
std::vector<double>
refsPerSkippedInstruction(
    const std::vector<synth::BenchmarkSpec> &specs)
{
    std::vector<double> factors = synth::instructionShares(specs);
    for (std::size_t i = 0; i < specs.size(); ++i)
        factors[i] *= 1.0 + specs[i].loadFrac + specs[i].storeFrac;
    return factors;
}

std::vector<Count>
refsForGap(const std::vector<double> &factors, Count gap)
{
    std::vector<Count> refs;
    refs.reserve(factors.size());
    for (const double f : factors)
        refs.push_back(static_cast<Count>(
            std::llround(f * static_cast<double>(gap))));
    return refs;
}

/** Round @p n up to the next multiple of @p p (p > 0). */
Count
roundUpTo(Count n, Count p)
{
    return ((n + p - 1) / p) * p;
}

/** Head and body window means of one process stratum. */
struct Stratum
{
    stats::SampleStat headCpi;
    stats::SampleStat bodyCpi;
};

/**
 * The estimate one pass yields.  Per process p the episode-average
 * CPI recombines the head and body window means over the expected
 * occupancy length E[len_p]: an occupancy spends its first Lh
 * instructions at the head CPI and the rest at the body CPI, so
 *
 *     cpi_p = b_p + (Lh / E[len_p]) * (h_p - b_p)
 *
 * where E[len_p] follows from time-slice expiry (timeSliceCycles
 * cycles at the two-phase rate) truncated by the per-instruction
 * Bernoulli syscall (benchmark.cc), E[min(T, Geom(q))] =
 * (1 - (1-q)^T) / q.  The machine interleaves one occupancy per
 * process per round, so the global CPI is the occupancy-length
 * weighted mean of the per-process CPIs (equal-length occupancies
 * reduce it to the harmonic mean of per-process CPIs in IPC form).
 * The standard error propagates the per-stratum window variances
 * through the same weights.
 */
struct PassEstimate
{
    double cpi = 0.0;
    double stdError = 0.0;
    double halfWidth = 0.0;

    static PassEstimate
    from(const std::vector<Stratum> &strata,
         const std::vector<synth::BenchmarkSpec> &specs,
         Cycles slice_cycles, Count head, Count body, Count n)
    {
        PassEstimate e;
        const std::size_t p = strata.size();
        std::vector<double> cpiOf(p, 0.0), lenOf(p, 0.0),
            varOf(p, 0.0);
        for (std::size_t i = 0; i < p; ++i) {
            const double h = strata[i].headCpi.mean();
            const double b = strata[i].bodyCpi.mean();
            if (h <= 0.0 || b <= 0.0)
                return e; // dead machine; all-zero estimate
            const double lh = static_cast<double>(head);
            // Instructions until slice expiry: Lh at the head rate,
            // the rest at the body rate.
            double expiry =
                lh + (static_cast<double>(slice_cycles) - lh * h) / b;
            expiry = std::max(expiry,
                              lh + static_cast<double>(body));
            const double q =
                specs[i].syscallsPerMInstr * 1e-6;
            double len = expiry;
            if (q > 0.0)
                len = (1.0 - std::pow(1.0 - q, expiry)) / q;
            len = std::max(len, lh + static_cast<double>(body));
            const double kappa = lh / len;
            cpiOf[i] = b + kappa * (h - b);
            lenOf[i] = len;
            varOf[i] =
                (1.0 - kappa) * (1.0 - kappa) *
                    strata[i].bodyCpi.sampleVariance() /
                    static_cast<double>(strata[i].bodyCpi.count()) +
                kappa * kappa *
                    strata[i].headCpi.sampleVariance() /
                    static_cast<double>(strata[i].headCpi.count());
        }
        double lenSum = 0.0;
        for (const double l : lenOf)
            lenSum += l;
        double mean = 0.0, var = 0.0;
        for (std::size_t i = 0; i < p; ++i) {
            const double w = lenOf[i] / lenSum;
            mean += w * cpiOf[i];
            var += w * w * varOf[i];
        }
        e.cpi = mean;
        e.stdError = std::sqrt(var);
        const Count df = n > static_cast<Count>(p)
                             ? n - static_cast<Count>(p)
                             : 1;
        e.halfWidth = studentT95(df) * e.stdError;
        return e;
    }
};

/** Exact full-detail run, marked as a sampled-run fallback. */
SimResult
runFallback(const SystemConfig &config, Count total,
            unsigned mp_level, Count warmup, Cycles watchdog)
{
    Simulator sim(config,
                  Workload::standard(mp_level, warmup + total));
    sim.setWatchdogCycles(watchdog);
    SimResult res = sim.run(total, warmup);
    res.sampling.passes = 1;
    res.sampling.intervals = 0; // the fallback marker
    res.sampling.measuredInstructions = res.instructions;
    res.sampling.cpiMean = res.cpi();
    res.sampling.confidence = kConfidence;
    return res;
}

/**
 * The episode schedule: a function of (plan, budget, MP level,
 * warmup) alone, which is why every member of a group shares it.
 */
struct Schedule
{
    Count warm = 0;
    Count head = 0;
    Count body = 0;
    std::vector<synth::BenchmarkSpec> specs;
    Count procCount = 0;
    /** Episodes in the first sizing round. */
    Count floor = 0;
    Count cap = 0;
    /** Instructions skipped between episodes. */
    Count gap = 0;
    /** false: the budget cannot fit the schedule (runFallback). */
    bool feasible = false;
    std::vector<Count> warmupRefs; //!< per process, for the warmup
    std::vector<Count> gapRefs;    //!< per process, for one gap
};

Schedule
makeSchedule(const SamplingConfig &plan, Count total_instructions,
             unsigned mp_level, Count warmup_instructions)
{
    Schedule s;
    s.body = plan.measureInstructions;
    s.head = plan.headInstructions;
    s.warm = plan.warmInstructions;
    if (s.body == 0 || s.head == 0)
        gaas_fatal("sampling: measureInstructions and "
                   "headInstructions must be > 0");
    const Count episode = s.warm + s.head + s.body;

    s.specs = synth::workloadSpecs(mp_level);
    s.procCount = static_cast<Count>(s.specs.size());

    // Interval counts are multiples of the process count with at
    // least two episodes per process: the estimator stratifies by
    // process and needs within-stratum variances.
    s.floor = roundUpTo(std::max(plan.minIntervals, 2 * s.procCount),
                        s.procCount);
    s.cap = std::max(s.floor,
                     (std::max(plan.maxIntervals, s.floor) /
                      s.procCount) *
                         s.procCount);

    // An episode consumes warm + head + body instructions out of
    // its period; the schedule is feasible only while the period
    // leaves a positive gap to skip.
    s.feasible = total_instructions / s.floor > episode;
    if (!s.feasible)
        return s;

    // The inter-episode gap is fixed by the floor count: growth
    // rounds append episodes at the same stride (the trace sources
    // wrap), so earlier measurements stay valid and a round only
    // costs its additional episodes.  The schedule -- and therefore
    // the result -- is a deterministic function of (config, plan,
    // budget): growth depends only on the measured variances.
    s.gap = total_instructions / s.floor - episode;
    const std::vector<double> factors =
        refsPerSkippedInstruction(s.specs);
    s.warmupRefs = refsForGap(factors, warmup_instructions);
    s.gapRefs = refsForGap(factors, s.gap);
    return s;
}

/**
 * What the controller drives: a machine simulating one or more
 * configurations that share a front end.  The controller walks the
 * episode schedule on it; the machine hands each member's episodes
 * to account(), in episode order per member, and account() says how
 * far that member's schedule now runs.
 */
class EpisodeMachine
{
  public:
    /** Member @p m's head and body counters of episode @p j, whose
     *  stratum is process @p index.  @return the last episode @p m
     *  takes part in: @p j once its estimate is final. */
    using Account =
        std::function<Count(std::size_t m, Count j, std::size_t index,
                            SimResult &head, SimResult &body)>;

    explicit EpisodeMachine(std::size_t members) : members(members) {}
    virtual ~EpisodeMachine() = default;

    /** Every member takes part in episodes 0..@p last, and hands
     *  them to @p account. */
    virtual void begin(Count last, Account account) = 0;

    virtual void
    fastForward(const std::vector<Count> &per_process_refs) = 0;
    virtual void selectProcess(std::size_t index) = 0;
    virtual void runWarm(Count instructions) = 0;

    /** Episode @p j's detailed windows: pin process @p index onto a
     *  fresh occupancy and run @p head instructions, then the same
     *  for @p body. */
    virtual void measure(Count j, std::size_t index, Count head,
                         Count body) = 0;

    /** Whether a member takes part in episode @p j; false once every
     *  member's estimate is final or the member left. */
    virtual bool wants(Count j) = 0;

    /** Once this returns, no thread calls account() any more. */
    virtual void stop() {}

    const std::size_t members;
};

/** One configuration's estimate as the controller builds it. */
struct MemberEstimate
{
    std::vector<Stratum> strata;
    SimResult agg; //!< every window's counters summed
    PassEstimate est;
    Count n = 0; //!< episodes of the current round
    Count passes = 1;
};

/**
 * End of @p e's sizing round: estimate, then grow n for another
 * round unless the estimate is final (n unchanged).
 */
void
closeRound(MemberEstimate &e, const Schedule &s,
           const SamplingConfig &plan, Cycles slice_cycles)
{
    e.est = PassEstimate::from(e.strata, s.specs, slice_cycles, s.head,
                               s.body, e.n);
    const bool met = e.est.cpi > 0.0 &&
                     e.est.halfWidth <= plan.targetRelHalfWidth * e.est.cpi;
    if (met || e.n >= s.cap || e.passes >= kMaxRounds)
        return;

    // Online sizing: the half-width shrinks as 1/sqrt(n), so
    // n_req = n * (half / target)^2, rounded up to keep the strata
    // balanced.
    const double target = plan.targetRelHalfWidth * e.est.cpi;
    Count req = s.cap;
    if (target > 0.0) {
        const double ratio = e.est.halfWidth / target;
        req = roundUpTo(static_cast<Count>(std::ceil(
                            static_cast<double>(e.n) * ratio * ratio)),
                        s.procCount);
    }
    const Count next =
        std::min(s.cap, std::max(req, e.n + s.procCount));
    if (next > e.n) {
        e.n = next;
        ++e.passes;
    }
}

/**
 * The one sampling controller.  Runs the episode schedule on
 * @p machine until every member's estimate is final, and returns
 * the estimates.  Each member keeps its own strata, n and rounds;
 * growth appends episodes at the same stride, so the machine runs
 * the union of the members' schedules and a member that stopped
 * takes no part in the episodes after its last.
 */
std::vector<MemberEstimate>
runEpisodes(EpisodeMachine &machine, const Schedule &s,
            const SamplingConfig &plan, Cycles slice_cycles,
            Count warmup_instructions)
{
    std::vector<MemberEstimate> ests(machine.members);
    for (MemberEstimate &e : ests) {
        e.strata.resize(static_cast<std::size_t>(s.procCount));
        e.n = s.floor;
    }
    // A member's episode joins its stratum and its summed counters,
    // and the episode that ends its round sizes it again.  Each
    // member's episodes come in order, from whichever thread replays
    // that member.
    const auto account = [&](std::size_t m, Count j, std::size_t meas,
                             SimResult &head, SimResult &body) {
        MemberEstimate &e = ests[m];
        e.strata[meas].headCpi.add(head.cpi());
        e.strata[meas].bodyCpi.add(body.cpi());
        if (j == 1)
            e.agg = std::move(head);
        else
            accumulateResult(e.agg, head);
        accumulateResult(e.agg, body);
        if (e.n == j)
            closeRound(e, s, plan, slice_cycles);
        return e.n;
    };

    try {
        machine.begin(s.floor, account);
        // The full-detail warmup span is just skipped: every episode
        // brings its own functional warming, and detailed warmup
        // cycles would cost a third of the budget for state the first
        // fast-forward throws away.
        if (warmup_instructions > 0)
            machine.fastForward(s.warmupRefs);
        // One warm round at start so the first episodes do not
        // measure a near-empty hierarchy: every process lays down a
        // footprint, twice as deep as a recovery burst.
        for (Count k = 0; k < s.procCount; ++k) {
            machine.selectProcess(static_cast<std::size_t>(k));
            machine.runWarm(2 * s.warm);
        }

        // Recover/measure pipeline: episode j fast-forwards every
        // trace EXCEPT the one recovered last episode (so its rebuilt
        // reuse state never goes stale), functionally recovers the
        // next stratum's process, then measures the held-back one --
        // whose L1/TLB lines the recovery bursts in between evicted,
        // the way a real inter-occupancy round does.  Episode 0 only
        // primes the pipeline.
        std::vector<Count> skipRefs;
        for (Count j = 0; machine.wants(j); ++j) {
            const std::size_t rec =
                static_cast<std::size_t>(j % s.procCount);
            const std::size_t meas = static_cast<std::size_t>(
                (j + s.procCount - 1) % s.procCount);
            skipRefs = s.gapRefs;
            if (j > 0)
                skipRefs[meas] = 0;
            machine.fastForward(skipRefs);
            machine.selectProcess(rec);
            machine.runWarm(s.warm);
            // Head window: the recovered process on a fresh
            // occupancy, measuring its switch-in transient.  Body
            // window: re-pinned (a syscall can rotate the process
            // out mid-head), measuring the flat regime.
            if (j > 0)
                machine.measure(j, meas, s.head, s.body);
        }
    } catch (...) {
        // Replays still running write into ests.
        machine.stop();
        throw;
    }
    machine.stop();
    return ests;
}

/** The sampled result of a finished estimate. */
SimResult
finish(MemberEstimate &&e, const Schedule &s,
       const SamplingConfig &plan, Count warmup_instructions)
{
    SimResult agg = std::move(e.agg);
    agg.sampling.passes = e.passes;
    agg.sampling.intervals = e.n;
    agg.sampling.measuredInstructions = agg.instructions;
    agg.sampling.warmedInstructions =
        (2 * s.procCount + e.n + 1) * s.warm;
    agg.sampling.skippedInstructions =
        warmup_instructions + (e.n + 1) * s.gap;
    agg.sampling.cpiMean = e.est.cpi;
    agg.sampling.cpiStdError = e.est.stdError;
    // Reported half-width = Student-t sampling term + the
    // finite-warming systematic allowance (the sizing rounds compare
    // the sampling term alone against the target).
    agg.sampling.cpiHalfWidth =
        e.est.halfWidth + plan.warmingBiasRel * e.est.cpi;
    agg.sampling.confidence = kConfidence;
    // Downstream consumers (figure CSVs, progress lines) read
    // SimResult::cpi(); pin it to the occupancy-weighted estimate.
    // The naive ratio of summed counters would overweight the
    // transient-rich head windows and slow processes, which the
    // scheduler's occupancy mix does not.
    if (agg.instructions > 0 && e.est.cpi > 0.0)
        agg.cycles = static_cast<Cycles>(std::llround(
            e.est.cpi * static_cast<double>(agg.instructions)));
    return agg;
}

/** One configuration on one coupled Simulator: runSampled. */
class SoloMachine final : public EpisodeMachine
{
  public:
    SoloMachine(const SystemConfig &config, Workload workload,
                Cycles watchdog_cycles)
        : EpisodeMachine(1), sim(config, std::move(workload))
    {
        sim.setWatchdogCycles(watchdog_cycles);
    }

    void
    begin(Count last_, Account account_) override
    {
        last = last_;
        account = std::move(account_);
    }

    void
    fastForward(const std::vector<Count> &per_process_refs) override
    {
        sim.fastForward(per_process_refs);
    }

    void selectProcess(std::size_t index) override
    {
        sim.selectProcess(index);
    }

    void runWarm(Count instructions) override
    {
        sim.runWarm(instructions);
    }

    void
    measure(Count j, std::size_t index, Count head,
            Count body) override
    {
        SimResult h = window(index, head);
        SimResult b = window(index, body);
        last = account(0, j, index, h, b);
    }

    bool wants(Count j) override { return j <= last; }

  private:
    SimResult
    window(std::size_t index, Count instructions)
    {
        sim.selectProcess(index);
        sim.resetMeasurement();
        return sim.run(instructions, 0);
    }

    Simulator sim;
    Account account;
    Count last = 0;
};

/**
 * Several configurations over one recording front end.  The front
 * end records each window once -- its back-end calls, its counters
 * and the clock around it -- and keeps it until every open member
 * has replayed it.  Members replay in window order, each on one
 * thread at a time: the helper tasks and, where it must wait, the
 * front end's own thread.  Back-end call k of a member happens at
 * its front-end time plus the stalls that member's back end
 * returned before it -- exactly the `now + stall` the coupled
 * simulator passes, across instructions, within one instruction and
 * within one miss.  Warm windows replay with accounting off and,
 * their stalls being 0, leave those totals alone.
 *
 * The front end records ahead up to the last episode an open member
 * takes part in, so it waits for replays only where a member's round
 * closes; until a helper has started it replays each window itself.
 * What it recorded ahead for a member that then leaves goes unused.
 */
class GroupMachine final : public EpisodeMachine
{
  public:
    /** @p backs[m] is member m's back end; the front end is built
     *  from the first member's configuration. */
    GroupMachine(const std::vector<SampledMember *> &members,
                 std::vector<std::unique_ptr<BackEnd>> backs,
                 Workload workload, ThreadPool *pool, unsigned helpers)
        : EpisodeMachine(members.size()),
          front(members.front()->config, std::move(workload)),
          slice(members.front()->config.timeSliceCycles), pool(pool),
          helpers(pool ? helpers : 0), team(std::make_shared<Team>())
    {
        replays.resize(members.size());
        for (std::size_t i = 0; i < members.size(); ++i) {
            SampledMember *m = members[i];
            replays[i].member = m;
            replays[i].index = i;
            replays[i].back = std::move(backs[i]);
            if (m->watchdogCycles != 0 &&
                (log.watchdogFloor == 0 ||
                 m->watchdogCycles < log.watchdogFloor))
                log.watchdogFloor = m->watchdogCycles;
        }
        front.recordBackEnd(&log);
        team->machine = this;
    }

    ~GroupMachine() override { stop(); }

    /** Helper tasks hold its address. */
    GroupMachine(const GroupMachine &) = delete;
    GroupMachine &operator=(const GroupMachine &) = delete;

    void
    begin(Count last, Account account_) override
    {
        account = std::move(account_);
        for (Replay &r : replays)
            r.last = last;
        // A helper beyond one per member would never claim one.
        const std::size_t count =
            std::min<std::size_t>(helpers, replays.size());
        for (std::size_t k = 0; k < count; ++k)
            pool->submit([team = team] { help(*team); });
    }

    void
    fastForward(const std::vector<Count> &per_process_refs) override
    {
        front.fastForward(per_process_refs);
    }

    void selectProcess(std::size_t index) override
    {
        front.selectProcess(index);
    }

    void
    runWarm(Count instructions) override
    {
        front.runWarm(instructions);
        publish(Window{});
    }

    void
    measure(Count j, std::size_t index, Count head,
            Count body) override
    {
        record(Window::Head, j, index, head);
        record(Window::Body, j, index, body);
    }

    bool
    wants(Count j) override
    {
        std::unique_lock<std::mutex> lock(team->mutex);
        const obs::Stopwatch clock;
        for (;;) {
            if (team->failure)
                std::rethrow_exception(team->failure);
            bool open = false;
            Count last = 0;
            for (const Replay &r : replays) {
                if (!r.closed) {
                    open = true;
                    last = std::max(last, r.last);
                }
            }
            if (!open || j <= last) {
                synced += clock.seconds();
                return open;
            }
            // Every open member's round ends before j: help them
            // close it, or wait while helpers do.
            if (!replayOne(lock))
                team->progress.wait(lock);
        }
    }

    void
    stop() override
    {
        std::unique_lock<std::mutex> lock(team->mutex);
        const obs::Stopwatch clock;
        team->done = true;
        team->work.notify_all();
        team->progress.wait(lock, [this] { return team->active == 0; });
        synced += clock.seconds();
    }

    /** Seconds the calling thread spent replaying or waiting for
     *  replays; the rest of its time is the front-end pass. */
    double syncSeconds() const { return synced; }

    /** Replay seconds over all threads, and the recorded calls;
     *  each member's replay seconds are added to its own. */
    GroupStats
    stats()
    {
        GroupStats st;
        for (Replay &r : replays) {
            r.member->seconds += r.seconds;
            st.replaySeconds += r.seconds;
        }
        st.recordedCalls = recorded;
        return st;
    }

  private:
    /** One recorded window. */
    struct Window
    {
        enum Kind : std::uint8_t { Warm, Head, Body };

        std::vector<BackEndCall> calls;
        Kind kind = Warm;
        /** @name Detailed windows only */
        ///@{
        Count episode = 0;
        std::size_t process = 0; //!< the stratum
        Cycles start = 0;        //!< front-end clock before and
        Cycles end = 0;          //!< after the window
        SimResult counters;      //!< the front end's counters
        ///@}
    };

    /** One member's back end and where its replay stands.  Guarded
     *  by the team mutex, except while busy: then only the thread
     *  that set busy touches the rest. */
    struct Replay
    {
        SampledMember *member = nullptr;
        std::size_t index = 0;
        std::unique_ptr<BackEnd> back;
        /** Stalls this back end has returned so far: the member's
         *  clock is the front end's plus this. */
        Cycles stalled = 0;
        /** Next window to replay (an index since the first). */
        Count next = 0;
        /** Last episode the member takes part in (account()). */
        Count last = 0;
        bool busy = false;
        /** Final, failed or gone solo: replays nothing more. */
        bool closed = false;
        SimResult head, body;
        double seconds = 0.0;
    };

    /** What helper tasks share with the front end; it outlives the
     *  machine for helper tasks that start after the group ends. */
    struct Team
    {
        std::mutex mutex;
        std::condition_variable work;     //!< a window was published
        std::condition_variable progress; //!< a replay batch ended
        GroupMachine *machine = nullptr;  //!< valid until done
        bool done = false;
        unsigned active = 0; //!< helpers inside help()
        std::exception_ptr failure;
    };

    /** A helper task: replay members until the group stops. */
    static void
    help(Team &team)
    {
        std::unique_lock<std::mutex> lock(team.mutex);
        if (team.done)
            return;
        ++team.active;
        while (!team.done) {
            try {
                if (!team.machine->replayOne(lock))
                    team.work.wait(lock);
            } catch (...) {
                // The front end rethrows it at its next wait or
                // window.
                if (!lock.owns_lock())
                    lock.lock();
                if (!team.failure)
                    team.failure = std::current_exception();
                break;
            }
        }
        --team.active;
        team.progress.notify_all();
    }

    /** Run a detailed window of @p instructions on process @p index
     *  and publish it. */
    void
    record(Window::Kind kind, Count j, std::size_t index,
           Count instructions)
    {
        Window w;
        w.kind = kind;
        w.episode = j;
        w.process = index;
        front.selectProcess(index);
        front.resetMeasurement();
        w.start = front.clock();
        w.counters = front.run(instructions, 0);
        w.end = front.clock();
        publish(std::move(w));
    }

    /** Hand the calls just logged to @p w and queue it for the
     *  members; free the windows every open member has replayed. */
    void
    publish(Window w)
    {
        recorded += log.calls.size();
        w.calls.swap(log.calls);
        std::unique_lock<std::mutex> lock(team->mutex);
        if (team->failure)
            std::rethrow_exception(team->failure);
        Count keep = first + windows.size();
        for (const Replay &r : replays) {
            if (!r.closed)
                keep = std::min(keep, r.next);
        }
        // Freed call buffers are kept for later windows, so the
        // front end's heap serves every window.
        for (; first < keep; ++first) {
            spare.push_back(std::move(windows.front().calls));
            spare.back().clear();
            windows.pop_front();
        }
        if (!spare.empty()) {
            log.calls.swap(spare.back());
            spare.pop_back();
        }
        windows.push_back(std::move(w));
        team->work.notify_all();
        if (team->active == 0) {
            // No helper has started: replay on this thread, window by
            // window, as a lone thread would.
            const obs::Stopwatch clock;
            while (team->active == 0 && replayOne(lock)) {
            }
            synced += clock.seconds();
        }
    }

    /**
     * Claim the open, idle member furthest behind that has windows
     * to replay, and replay those published so far.  Called and
     * returns with the team mutex held through @p lock, which it
     * drops while replaying.  @return false if no member was
     * claimable.
     */
    bool
    replayOne(std::unique_lock<std::mutex> &lock)
    {
        const Count published = first + windows.size();
        Replay *r = nullptr;
        for (Replay &c : replays) {
            if (!c.closed && !c.busy && c.next < published &&
                (!r || c.next < r->next))
                r = &c;
        }
        if (!r)
            return false;
        r->busy = true;
        Count last = r->last;
        bool stays = true;
        do {
            const Window &w = windows[r->next - first];
            lock.unlock();
            const obs::Stopwatch clock;
            stays = replay(*r, w, last);
            if (!stays)
                r->back.reset();
            r->seconds += clock.seconds();
            lock.lock();
            ++r->next;
            r->last = last;
        } while (stays && r->next < published && !team->done);
        r->closed = !stays;
        r->busy = false;
        team->progress.notify_all();
        return true;
    }

    /**
     * Replay window @p w on @p r; a body window's episode then goes
     * to account(), which sets @p last.  @return false once the
     * member is done with the group: its estimate is final, or it
     * left (replayWindow).
     */
    bool
    replay(Replay &r, const Window &w, Count &last)
    {
        switch (w.kind) {
          case Window::Warm:
            for (const BackEndCall &c : w.calls)
                r.back->replay<false>(c, r.stalled);
            return true;
          case Window::Head:
            return replayWindow(r, w, r.head);
          case Window::Body:
            break;
        }
        if (!replayWindow(r, w, r.body))
            return false;
        last = account(r.index, w.episode, w.process, r.head, r.body);
        return last > w.episode;
    }

    /**
     * Replay detailed window @p w on @p r and build its counters
     * into @p out.  @return false if the member left the group: its
     * watchdog expired (failed), or its clock reached its slice end
     * on an instruction where the front end did not switch (it must
     * run solo).
     */
    bool
    replayWindow(Replay &r, const Window &w, SimResult &out)
    {
        BackEnd &back = *r.back;
        back.resetStats();
        const Cycles before = r.stalled;
        Cycles sliceEnd = w.start + r.stalled + slice;
        // The stall totals before the last four calls: a marker
        // needs the total before its instruction's first call, and
        // one instruction makes at most three.
        std::array<Cycles, 4> prior{};
        std::size_t made = 0;
        for (const BackEndCall &c : w.calls) {
            if (c.op != BackEndOp::Instruction) {
                prior[made++ % prior.size()] = r.stalled;
                r.stalled += back.replay<true>(c, r.stalled);
                continue;
            }
            const Cycles own_before =
                c.calls ? prior[(made - c.calls) % prior.size()]
                        : r.stalled;
            // The member's clock reached its slice end before this
            // instruction: it switched where the front end did not.
            if (c.at + own_before >= sliceEnd)
                return leave(r, false);
            const Cycles cycles = c.arg + (r.stalled - own_before);
            const Cycles budget = r.member->watchdogCycles;
            if (budget != 0 && cycles > budget) {
                captureError(
                    [&] {
                        watchdogExpired(r.member->config.name, cycles,
                                        budget);
                    },
                    r.member->errorCode, r.member->error);
                return leave(r, true);
            }
            if (c.flag)
                sliceEnd = c.at + c.arg + r.stalled + slice;
        }
        if (w.end + r.stalled >= sliceEnd)
            return leave(r, false);

        out = w.counters;
        out.configName = r.member->config.name;
        out.cycles += r.stalled - before;
        SimResult below;
        below.comp = back.components();
        below.sys = back.stats();
        accumulateResult(out, below);
        return true;
    }

    static bool
    leave(Replay &r, bool failed)
    {
        (failed ? r.member->failed : r.member->ranSolo) = true;
        return false;
    }

    Simulator front;
    BackEndLog log;
    Cycles slice;
    ThreadPool *pool;
    unsigned helpers;
    Account account;
    std::vector<Replay> replays;

    /** @name Guarded by the team mutex */
    ///@{
    std::deque<Window> windows; //!< windows first, first + 1, ...
    Count first = 0;
    ///@}

    /** @name The front end's own */
    ///@{
    std::vector<std::vector<BackEndCall>> spare;
    std::uint64_t recorded = 0;
    double synced = 0.0;
    ///@}

    std::shared_ptr<Team> team;
};

} // namespace

double
studentT95(Count df)
{
    // Two-sided 95% critical values of Student's t, df 1..30.
    static constexpr double kTable[30] = {
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306,
        2.262,  2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120,
        2.110,  2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064,
        2.060,  2.056, 2.052, 2.048, 2.045, 2.042};
    if (df == 0)
        return kTable[0];
    if (df <= 30)
        return kTable[df - 1];
    // Bracket rows 40/60/120; the lower bracket's (larger) value
    // keeps the interval conservative between rows.
    if (df < 40)
        return kTable[29];
    if (df < 60)
        return 2.021;
    if (df < 120)
        return 2.000;
    return 1.980;
}

SimResult
runSampled(const SystemConfig &config, const SamplingConfig &plan,
           Count total_instructions, unsigned mp_level,
           Count warmup_instructions, Cycles watchdog_cycles)
{
    const Schedule s = makeSchedule(plan, total_instructions, mp_level,
                                    warmup_instructions);
    if (!s.feasible)
        return runFallback(config, total_instructions, mp_level,
                           warmup_instructions, watchdog_cycles);
    SoloMachine machine(config,
                        Workload::standard(mp_level,
                                           warmup_instructions +
                                               total_instructions),
                        watchdog_cycles);
    std::vector<MemberEstimate> ests =
        runEpisodes(machine, s, plan, config.timeSliceCycles,
                    warmup_instructions);
    return finish(std::move(ests.front()), s, plan,
                  warmup_instructions);
}

GroupStats &
GroupStats::operator+=(const GroupStats &other)
{
    frontEndSeconds += other.frontEndSeconds;
    replaySeconds += other.replaySeconds;
    recordedCalls += other.recordedCalls;
    return *this;
}

GroupStats
runSampledGroup(std::vector<SampledMember> &members,
                const SamplingConfig &plan, Count total_instructions,
                unsigned mp_level, Count warmup_instructions,
                ThreadPool *pool, unsigned helpers)
{
    const obs::Stopwatch wall;
    GroupStats stats;
    const auto fail = [](SampledMember &m) {
        m.failed = true;
        m.result = SimResult{};
        m.result.configName = m.config.name;
    };
    const auto solo = [&](SampledMember &m) {
        const obs::Stopwatch clock;
        m.ranSolo = true;
        if (!captureError(
                [&] {
                    m.result = runSampled(m.config, plan,
                                          total_instructions, mp_level,
                                          warmup_instructions,
                                          m.watchdogCycles);
                },
                m.errorCode, m.error))
            fail(m);
        m.seconds += clock.seconds();
    };

    for (const SampledMember &m : members) {
        if (m.config.frontEnd() != members.front().config.frontEnd())
            gaas_error(ErrorCode::Internal, "runSampledGroup: config '",
                       m.config.name, "' does not share the front end of '",
                       members.front().config.name, "'");
    }
    const Schedule s = makeSchedule(plan, total_instructions, mp_level,
                                    warmup_instructions);
    if (!s.feasible) {
        // The full-detail fallback shares nothing below the
        // workload.
        for (SampledMember &m : members)
            solo(m);
        return stats;
    }

    // A configuration whose back end does not stand up fails alone,
    // as its solo run would.
    std::vector<SampledMember *> live;
    std::vector<std::unique_ptr<BackEnd>> backs;
    for (SampledMember &m : members) {
        if (captureError(
                [&] {
                    m.config.validate();
                    backs.push_back(std::make_unique<BackEnd>(m.config));
                },
                m.errorCode, m.error))
            live.push_back(&m);
        else
            fail(m);
    }
    if (live.empty())
        return stats;

    std::vector<MemberEstimate> ests;
    {
        GroupMachine machine(
            live, std::move(backs),
            Workload::standard(mp_level, warmup_instructions +
                                             total_instructions),
            pool, helpers);
        ests = runEpisodes(machine, s, plan,
                           live.front()->config.timeSliceCycles,
                           warmup_instructions);
        stats = machine.stats();
        stats.frontEndSeconds = wall.seconds() - machine.syncSeconds();
    }
    for (std::size_t i = 0; i < live.size(); ++i) {
        SampledMember &m = *live[i];
        if (m.failed)
            fail(m);
        else if (m.ranSolo)
            solo(m);
        else
            m.result = finish(std::move(ests[i]), s, plan,
                              warmup_instructions);
    }
    return stats;
}

} // namespace gaas::core
