#include "sampling.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
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
 * configurations that share a front end.  Member m takes part in a
 * window while open[m] is set.  The controller clears it once m's
 * estimate is final; a machine clears it when it drops m.
 */
class EpisodeMachine
{
  public:
    explicit EpisodeMachine(std::size_t members) : open(members, 1) {}
    virtual ~EpisodeMachine() = default;

    virtual void
    fastForward(const std::vector<Count> &per_process_refs) = 0;
    virtual void selectProcess(std::size_t index) = 0;
    virtual void runWarm(Count instructions) = 0;

    /** A detailed window: pin process @p index onto a fresh
     *  occupancy, start a measurement and run @p instructions;
     *  out[m] receives open member m's counters. */
    virtual void measure(std::size_t index, Count instructions,
                         std::vector<SimResult> &out) = 0;

    std::vector<char> open;
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
 * End of @p e's sizing round: estimate, then either stop (@return
 * true) or grow n for another round.
 */
bool
closeRound(MemberEstimate &e, const Schedule &s,
           const SamplingConfig &plan, Cycles slice_cycles)
{
    e.est = PassEstimate::from(e.strata, s.specs, slice_cycles, s.head,
                               s.body, e.n);
    const bool met = e.est.cpi > 0.0 &&
                     e.est.halfWidth <= plan.targetRelHalfWidth * e.est.cpi;
    if (met || e.n >= s.cap || e.passes >= kMaxRounds)
        return true;

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
    if (next <= e.n)
        return true;
    e.n = next;
    ++e.passes;
    return false;
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
    const std::size_t members = machine.open.size();
    std::vector<MemberEstimate> ests(members);
    for (MemberEstimate &e : ests) {
        e.strata.resize(static_cast<std::size_t>(s.procCount));
        e.n = s.floor;
    }

    // The full-detail warmup span is just skipped: every episode
    // brings its own functional warming, and detailed warmup cycles
    // would cost a third of the budget for state the first
    // fast-forward throws away.
    if (warmup_instructions > 0)
        machine.fastForward(s.warmupRefs);
    // One warm round at start so the first episodes do not measure
    // a near-empty hierarchy: every process lays down a footprint,
    // twice as deep as a recovery burst.
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
    std::vector<SimResult> heads(members), bodies(members);
    std::vector<Count> skipRefs;
    const auto anyOpen = [&machine] {
        return std::find(machine.open.begin(), machine.open.end(),
                         1) != machine.open.end();
    };
    for (Count j = 0; anyOpen(); ++j) {
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
        if (j > 0) {
            // Head window: the recovered process on a fresh
            // occupancy, measuring its switch-in transient.  Body
            // window: re-pinned (a syscall can rotate the process
            // out mid-head), measuring the flat regime.
            machine.measure(meas, s.head, heads);
            machine.measure(meas, s.body, bodies);
            for (std::size_t m = 0; m < members; ++m) {
                if (!machine.open[m])
                    continue;
                MemberEstimate &e = ests[m];
                e.strata[meas].headCpi.add(heads[m].cpi());
                e.strata[meas].bodyCpi.add(bodies[m].cpi());
                if (j == 1)
                    e.agg = std::move(heads[m]);
                else
                    accumulateResult(e.agg, heads[m]);
                accumulateResult(e.agg, bodies[m]);
            }
        }
        for (std::size_t m = 0; m < members; ++m) {
            if (machine.open[m] && ests[m].n == j &&
                closeRound(ests[m], s, plan, slice_cycles))
                machine.open[m] = 0;
        }
    }
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
    measure(std::size_t index, Count instructions,
            std::vector<SimResult> &out) override
    {
        sim.selectProcess(index);
        sim.resetMeasurement();
        out.front() = sim.run(instructions, 0);
    }

  private:
    Simulator sim;
};

/**
 * Several configurations over one recording front end: each window
 * runs once on the front end, then every open member's back end
 * replays its calls.  Back-end call k of a member happens at its
 * front-end time plus the stalls that member's back end returned
 * before it -- exactly the `now + stall` the coupled simulator
 * passes, across instructions, within one instruction and within
 * one miss.  Warm windows replay with accounting off and, their
 * stalls being 0, leave those totals alone.
 */
class GroupMachine final : public EpisodeMachine
{
  public:
    /** @p backs[m] is member m's back end; the front end is built
     *  from the first member's configuration. */
    GroupMachine(const std::vector<SampledMember *> &members,
                 std::vector<std::unique_ptr<BackEnd>> backs,
                 Workload workload)
        : EpisodeMachine(members.size()),
          front(members.front()->config, std::move(workload)),
          slice(members.front()->config.timeSliceCycles)
    {
        for (std::size_t i = 0; i < members.size(); ++i) {
            SampledMember *m = members[i];
            replays.push_back({m, std::move(backs[i]), 0});
            if (m->watchdogCycles != 0 &&
                (log.watchdogFloor == 0 ||
                 m->watchdogCycles < log.watchdogFloor))
                log.watchdogFloor = m->watchdogCycles;
        }
        front.recordBackEnd(&log);
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
        log.calls.clear();
        front.runWarm(instructions);
        eachOpen([this](std::size_t, Replay &r) {
            for (const BackEndCall &c : log.calls)
                r.back->replay<false>(c, r.stalled);
        });
    }

    void
    measure(std::size_t index, Count instructions,
            std::vector<SimResult> &out) override
    {
        front.selectProcess(index);
        front.resetMeasurement();
        log.calls.clear();
        const Cycles start = front.clock();
        const SimResult window = front.run(instructions, 0);
        eachOpen([&](std::size_t m, Replay &r) {
            if (!replayWindow(r, window, start, out[m]))
                open[m] = 0;
        });
    }

  private:
    struct Replay
    {
        SampledMember *member;
        std::unique_ptr<BackEnd> back;
        /** Stalls this back end has returned so far: the member's
         *  clock is the front end's plus this. */
        Cycles stalled;
    };

    /**
     * Replay the detailed window just logged on @p r and build its
     * counters into @p out.  @return false if the member left the
     * group: its watchdog expired (failed), or its clock reached
     * its slice end on an instruction where the front end did not
     * switch (it must run solo).
     */
    bool
    replayWindow(Replay &r, const SimResult &window, Cycles start,
                 SimResult &out)
    {
        BackEnd &back = *r.back;
        back.resetStats();
        const Cycles before = r.stalled;
        Cycles sliceEnd = start + r.stalled + slice;
        // The stall totals before the last four calls: a marker
        // needs the total before its instruction's first call, and
        // one instruction makes at most three.
        std::array<Cycles, 4> prior{};
        std::size_t made = 0;
        for (const BackEndCall &c : log.calls) {
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
        if (front.clock() + r.stalled >= sliceEnd)
            return leave(r, false);

        out = window;
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

    /** Run @p fn(m, replay) for every open member m, timed into its
     *  seconds; a closed member's back end is freed instead. */
    template <class Fn>
    void
    eachOpen(Fn &&fn)
    {
        for (std::size_t m = 0; m < replays.size(); ++m) {
            Replay &r = replays[m];
            if (!open[m]) {
                r.back.reset();
                continue;
            }
            const obs::Stopwatch clock;
            fn(m, r);
            r.member->seconds += clock.seconds();
        }
    }

    Simulator front;
    BackEndLog log;
    std::vector<Replay> replays;
    Cycles slice;
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

void
runSampledGroup(std::vector<SampledMember> &members,
                const SamplingConfig &plan, Count total_instructions,
                unsigned mp_level, Count warmup_instructions)
{
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
        return;
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
        return;

    std::vector<MemberEstimate> ests;
    {
        GroupMachine machine(
            live, std::move(backs),
            Workload::standard(mp_level, warmup_instructions +
                                             total_instructions));
        ests = runEpisodes(machine, s, plan,
                           live.front()->config.timeSliceCycles,
                           warmup_instructions);
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
}

} // namespace gaas::core
