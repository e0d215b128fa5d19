/**
 * @file
 * SMARTS-style sampled simulation [WWFH03-like]: instead of
 * simulating every instruction in detail, systematically visit n
 * measurement intervals spread across the budget.  Between
 * intervals the trace is fast-forwarded (a seek, no simulation);
 * each interval is preceded by a functional-warming burst that
 * updates cache/TLB/write-buffer state without loss accounting, so
 * the detailed measurement starts from a realistically warmed
 * hierarchy.
 *
 * Intervals are stratified by process: a measurement window is far
 * shorter than one 500k-cycle time slice, so each window inevitably
 * measures a single process, and interval j is pinned to process
 * j mod P (Simulator::selectProcess).  Each interval is an
 * *episode* that measures two windows of a fresh scheduling
 * occupancy: the head [0, Lh] -- the expensive switch-in transient
 * where the incoming process finds its L1/TLB state evicted -- and
 * the body [Lh, Lh+Lm], the flat post-transient regime.  A
 * fixed-offset window alone is biased low by the transient's share
 * of every occupancy (~2% here); the estimator recombines head and
 * body with each process's expected occupancy length (time-slice
 * expiry at timeSliceCycles cycles, or earlier Bernoulli-syscall
 * truncation), then averages the per-process CPIs weighted by
 * those occupancy lengths -- the round-robin composition the full
 * machine realizes.  The per-stratum variances feed a confidence
 * interval (Student t at n - P degrees of freedom, 95%); the
 * controller grows n online -- in multiples of P -- until the
 * sampling term meets the relative-precision target.  The reported
 * half-width adds a documented systematic allowance for finite
 * warming depth on top of the sampling term (see
 * SamplingConfig::warmingBiasRel).
 *
 * Accuracy contract: the full-detail CPI of the same (config, mp,
 * budget) point lies within the reported CI with the stated
 * confidence -- the validation suite (test_sampling.cc) checks it
 * point by point.
 */

#ifndef GAAS_CORE_SAMPLING_HH
#define GAAS_CORE_SAMPLING_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hh"
#include "core/cpi.hh"
#include "util/error.hh"
#include "util/types.hh"

namespace gaas
{
class ThreadPool;
} // namespace gaas

namespace gaas::core
{

/** Knobs of the sampled-simulation controller. */
struct SamplingConfig
{
    /** Master switch; false means full-detail simulation and every
     *  output stays byte-identical to the unsampled build. */
    bool enabled = false;

    /** Detailed instructions of the body window per episode (the
     *  flat post-transient measurement). */
    Count measureInstructions = 14'000;

    /** Detailed instructions of the head window per episode: the
     *  switch-in transient, measured from the pinned process's
     *  first post-switch instruction.  Long enough to span the bulk
     *  of the transient; the body starts where the head ends, so
     *  the pair tiles the occupancy with no unmodelled gap. */
    Count headInstructions = 16'000;

    /** Functionally warmed instructions per recovery burst: after
     *  its trace is fast-forwarded, a process must re-establish its
     *  short-term reuse state (array-segment rescans, hot stack and
     *  heap lines) before a measurement of it means anything.  Each
     *  episode recovers the *next* stratum's process, then measures
     *  the one recovered last episode -- whose own trace was held
     *  back from that episode's fast-forward, so its recovered
     *  state is never stale, while the intervening bursts evict its
     *  L1/TLB lines the way a real inter-occupancy round does.
     *  Also half the per-process length of the one-time start-up
     *  warm round. */
    Count warmInstructions = 32'000;

    /** Episodes in the first sizing round (also the floor).
     *  Rounded up to a multiple of the process count, with at least
     *  two episodes per process: the stratified CI needs a
     *  within-stratum variance.  Three per process keeps the
     *  first-round CI tight enough that the sizing loop almost
     *  always stops immediately. */
    Count minIntervals = 24;

    /** Hard ceiling on episodes (rounded down to a multiple of the
     *  process count). */
    Count maxIntervals = 40;

    /** Stop when t * stdError <= target * mean (the relative 95%
     *  half-width of the *sampling* term); 0.03 = +/-3%.  Tighter
     *  targets grow the episode count online (up to maxIntervals),
     *  each growth round costing only its additional episodes. */
    double targetRelHalfWidth = 0.03;

    /** Relative systematic allowance for finite warming depth,
     *  added to the reported half-width on top of the Student-t
     *  sampling term.  Episodic warming cannot rebuild all the
     *  state a full-detail run accumulates, so sampled CPIs read
     *  high: on the fig6 ladder at its default budget all 28
     *  points are +0.9% to +5.7% above full detail (median +3.4%),
     *  largest at 16KW, where deep L2 residency cannot explain it.
     *  The 3% default therefore does not cover the worst case.
     *  ROADMAP item 3 replaces this constant with a measured
     *  warming bound. */
    double warmingBiasRel = 0.03;

    bool operator==(const SamplingConfig &) const = default;
};

/**
 * Two-sided 95% Student-t multiplier for @p df degrees of freedom.
 * Between tabulated rows the multiplier of the *lower* df is used,
 * so the interval is never narrower than the exact value.
 */
double studentT95(Count df);

/**
 * Run one (config, mp level, instruction budget) point under the
 * sampled regime and return the aggregate result: the measured
 * counters of all intervals summed (accumulateResult), plus a
 * filled SimResult::sampling summary.  cycles is rescaled so the
 * headline cpi() equals sampling.cpiMean, the stratified estimate
 * -- figure CSVs and progress lines then report the same number
 * the CI describes.  The full-detail warmup span, like the gaps,
 * is skipped rather than simulated; each interval brings its own
 * functional warming.
 *
 * Falls back to an exact full-detail run (sampling.intervals == 0)
 * when the budget cannot fit minIntervals warm+measure bursts.
 *
 * Deterministic: same inputs, same result, independent of how many
 * sizing passes earlier configurations needed.
 */
SimResult runSampled(const SystemConfig &config,
                     const SamplingConfig &plan,
                     Count total_instructions, unsigned mp_level = 8,
                     Count warmup_instructions = 0,
                     Cycles watchdog_cycles = 0);

/** One configuration of a sampled group (runSampledGroup) and how
 *  it ended. */
struct SampledMember
{
    SystemConfig config;
    Cycles watchdogCycles = 0;

    /** @name Filled in by runSampledGroup */
    ///@{
    /** What runSampled returns for this configuration (zeroed, bar
     *  the name, if failed). */
    SimResult result;
    bool failed = false;
    ErrorCode errorCode = ErrorCode::Internal;
    std::string error; //!< what its solo run would have thrown
    /** Ran through runSampled itself: it tripped the time-slice
     *  guard, or the budget cannot fit the episode schedule. */
    bool ranSolo = false;
    /** Host seconds of this member's own work: its back-end
     *  replays, on whichever threads ran them, or its solo run. */
    double seconds = 0.0;
    ///@}
};

/** Where a grouped run's host time went. */
struct GroupStats
{
    /** The front-end pass on the calling thread: building the
     *  workload, front end and back ends, and recording every
     *  window; its replays and waits excluded. */
    double frontEndSeconds = 0.0;
    /** Back-end replays, summed over every thread that ran them. */
    double replaySeconds = 0.0;
    /** Back-end calls and Instruction markers the front end
     *  recorded (BackEndLog).  The front end records ahead to the
     *  largest episode an open member is committed to; if that
     *  member then leaves the group (slice guard, watchdog), what
     *  was recorded ahead for it goes unused, and how much that was
     *  depends on how far the helpers let the front end run.  The
     *  count is fixed when a member that stays runs to the episode
     *  cap, or when no helper runs. */
    std::uint64_t recordedCalls = 0;

    GroupStats &operator+=(const GroupStats &other);
};

/**
 * runSampled for every member at once, over one shared front end.
 * Every member must have the same config.frontEnd(); the rest of
 * each configuration -- L2 organisation, geometry and timing, write
 * buffer, memory, load bypass, concurrent I-refill, dirty buffer --
 * may differ.
 *
 * Under the sampled schedule nothing below the L1s steers the
 * front end: warm windows run on the stall-free clock, and a
 * detailed window is far shorter than a time slice.  So one
 * recording front end (Simulator::recordBackEnd) walks the union of
 * the members' episode schedules, once, and each member's BackEnd
 * replays every window's back-end calls on its own clock: call k at
 * its front-end time plus the stalls that back end returned before
 * it.  The one controller turns each member's windows into exactly
 * the result runSampled gives it.  One guard keeps that exact: a
 * member whose own clock reaches its slice end on an instruction
 * where the front end did not switch is re-run solo, and so is every
 * member when the budget cannot fit the schedule.
 *
 * The front end keeps each window until every open member has
 * replayed it, and records ahead while up to @p helpers tasks queued
 * on @p pool replay the members in window order; it waits for them
 * only where a member's sizing round closes.  With no pool (or no
 * helper started yet) the calling thread replays each window as it
 * records it.  Results do not depend on the helper count.
 *
 * A member's own failure (its configuration does not validate, or
 * its watchdog expires) fails only that member, with the code and
 * message its solo run would give.  An error of the shared front
 * end (workload, trace) throws.
 */
GroupStats runSampledGroup(std::vector<SampledMember> &members,
                           const SamplingConfig &plan,
                           Count total_instructions,
                           unsigned mp_level = 8,
                           Count warmup_instructions = 0,
                           ThreadPool *pool = nullptr,
                           unsigned helpers = 0);

} // namespace gaas::core

#endif // GAAS_CORE_SAMPLING_HH
