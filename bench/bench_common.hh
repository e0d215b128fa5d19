/**
 * @file
 * Shared plumbing for the figure/table bench binaries: instruction
 * budgets (overridable via environment), the sweep front end every
 * figure point enters through (bench::Sweep over core::driveSweep,
 * on threads or forked worker processes), CSV output placement, and
 * per-point observability (progress lines, JSON stats dumps).
 *
 * Environment knobs:
 *   GAAS_BENCH_INSTRUCTIONS  per-configuration instruction budget
 *                            (default 4,000,000; L2-size sweeps
 *                            scale it up further -- see
 *                            Sweep::addScaled)
 *   GAAS_BENCH_MP            multiprogramming level (default 8)
 *   GAAS_BENCH_JOBS          sweep worker threads (default
 *                            hardware_concurrency)
 *   GAAS_BENCH_MPROC         run sweeps across N forked worker
 *                            *processes* (0/unset: threads); a
 *                            worker crash or hang is requeued, not
 *                            fatal (same as --mproc N; supervision
 *                            knobs GAAS_MPROC_RETRIES,
 *                            GAAS_MPROC_HEARTBEAT_MS,
 *                            GAAS_MPROC_HEARTBEAT_MISS,
 *                            GAAS_MPROC_BACKOFF_MS -- see
 *                            proc/executor.hh)
 *   GAAS_BENCH_CSV_DIR       where CSVs are written
 *                            (default ./bench_out)
 *   GAAS_BENCH_PROGRESS      any value but "0": stderr progress line
 *                            per finished point (same as --progress)
 *   GAAS_BENCH_STATS_DIR     write one JSON stats dump per point
 *                            into this directory (same as
 *                            --stats-json DIR)
 *   GAAS_BENCH_RESUME        journal sweep points into this
 *                            directory and skip points already
 *                            journaled by an earlier (killed) run
 *                            (same as --resume DIR)
 *   GAAS_BENCH_WATCHDOG      per-instruction cycle budget for the
 *                            zero-progress watchdog (default 0: off)
 *   GAAS_BENCH_SAMPLE        any value but "0": run every point under
 *                            SMARTS-style sampled simulation (same as
 *                            --sample); CPI gains a 95% CI, wall
 *                            clock drops 10-50x
 *   GAAS_BENCH_SAMPLE_MEASURE  body-window instructions per episode
 *   GAAS_BENCH_SAMPLE_HEAD     head (switch-in transient) window
 *                              instructions per episode
 *   GAAS_BENCH_SAMPLE_WARM     functionally warmed instructions
 *                              before each episode
 *   GAAS_BENCH_SAMPLE_MIN      intervals in the first sizing pass
 *   GAAS_BENCH_SAMPLE_MAX      interval cap per pass
 *   GAAS_BENCH_SAMPLE_TARGET   relative 95% half-width target for
 *                              the sampling term (default 0.03)
 *   GAAS_BENCH_SAMPLE_BIAS     relative systematic allowance for
 *                              finite warming depth, added to the
 *                              reported half-width (default 0.03)
 *
 * All numeric knobs parse strictly (util/env.hh): trailing garbage,
 * signs, zero and overflow are rejected with a warning.
 *
 * Failure model: a sweep point that throws becomes a Failed
 * SweepOutcome; the figure keeps running, renders the point as
 * `failed:<code>` (see cell()), and main() reports it through
 * exitCode() -- nonzero only after the whole ladder drained.  Under
 * --mproc even a worker-process crash or hang only costs a requeue
 * (proc/executor.hh).  SIGTERM/SIGINT request a graceful drain:
 * in-flight points finish and journal, queued ones fail with the
 * stable `cancelled` code, the partial CSVs are still written
 * atomically, and exitCode() becomes 3 if the drain cancelled at
 * least one point.
 */

#ifndef GAAS_BENCH_COMMON_HH
#define GAAS_BENCH_COMMON_HH

#include <cstddef>
#include <string>
#include <vector>

#include "core/config.hh"
#include "core/sweep.hh"
#include "stats/table.hh"
#include "util/types.hh"

namespace gaas::bench
{

/**
 * Parse the bench binaries' shared command line.  Recognised flags:
 *
 *   --progress         stderr line per finished point
 *   --stats-json DIR   one JSON stats dump per point into DIR
 *   --resume DIR       journal points into DIR; skip points already
 *                      journaled by an earlier (killed) run
 *   --sample           sampled simulation with confidence intervals
 *                      instead of full-detail runs (see
 *                      core/sampling.hh; knobs via
 *                      GAAS_BENCH_SAMPLE_*)
 *   --mproc N          run sweeps across N forked worker processes
 *                      (overrides GAAS_BENCH_MPROC; 0 = threads)
 *   --help             print usage and exit 0
 *
 * Anything else prints usage to stderr and exits 2.  Call first in
 * every figure main().
 *
 * The stats-dump directory is validated here, once: created if
 * missing and probe-written.  If it is unusable a single structured
 * warning is emitted, dumps are disabled, and every subsequent Ok
 * point is downgraded to Degraded -- the simulation itself never
 * stops over an unwritable stats directory.
 */
void init(int argc, char **argv);

/** True when --progress or GAAS_BENCH_PROGRESS (not "0") is set. */
bool progressEnabled();

/** JSON dump directory (--stats-json / GAAS_BENCH_STATS_DIR);
 *  empty when per-point dumps are disabled. */
std::string statsJsonDir();

/** Resume/journal directory (--resume / GAAS_BENCH_RESUME);
 *  empty when checkpointing is disabled. */
std::string resumeDir();

/** Watchdog budget for every enqueued job (GAAS_BENCH_WATCHDOG). */
Cycles watchdogBudget();

/**
 * The sampled-simulation plan every enqueued job gets: disabled
 * unless --sample / GAAS_BENCH_SAMPLE is set, knobs from the
 * GAAS_BENCH_SAMPLE_* environment (defaults from SamplingConfig).
 */
core::SamplingConfig samplingPlan();

/**
 * Worker-process count for sweeps: --mproc if given, else
 * GAAS_BENCH_MPROC; 0 = in-process threads.
 */
unsigned mprocWorkerCount();

/**
 * Process exit status for main(): 3 if a SIGTERM/SIGINT drain
 * cancelled at least one point, else 1 if any point Failed (or a
 * fatal setup error was noted), else 0.  A signal that arrives after
 * the last point was dispatched cancels nothing, so that run exits 0
 * (or 1).  Reading it does not reset it.
 */
int exitCode();

/**
 * Record one finished simulation point: bumps the process-wide point
 * counter, warns (with the stable error code) if the point Failed,
 * emits the stderr progress line when enabled, and writes
 * `<statsJsonDir()>/NNN-<config>.json` when a dump directory is
 * configured.  The counter makes filenames collision-free even when
 * a figure runs the same configuration at several workload levels.
 *
 * Mutates @p outcome: an Ok point whose stats dump could not be
 * written is downgraded to Degraded (so the sweep journals the
 * loss), and failed points feed exitCode().
 */
void notePoint(core::SweepOutcome &outcome);

/**
 * Table-cell text for one sweep point: @p value formatted at
 * @p precision for Ok/Degraded points, `failed:<code>` for Failed
 * ones -- the explicit row every figure CSV emits instead of
 * silently dropping a dead point.
 */
std::string cell(const core::SweepOutcome &outcome, double value,
                 int precision = 4);

/** Per-configuration instruction budget. */
Count instructionBudget();

/** Warmup instructions before measurement (GAAS_BENCH_WARMUP,
 *  default half the measurement budget). */
Count warmupBudget();

/** Multiprogramming level for workload construction. */
unsigned mpLevel();

/**
 * The sweep front end every figure point enters through: a figure
 * binary enqueues its whole configuration ladder up front, then
 * reads the outcomes back in enqueue order -- turning the figure's
 * wall clock from the sum of its configurations into (roughly) the
 * max, and giving every point the shared --resume, --mproc,
 * --sample, --stats-json and failure handling.
 *
 * The add() overloads return the job's index into run()'s result
 * vector.  Results are bit-identical to a serial run.
 */
class Sweep
{
  public:
    /** Enqueue @p config at the standard budget and MP level. */
    std::size_t add(const core::SystemConfig &config);

    /** Enqueue at an explicit multiprogramming level. */
    std::size_t add(const core::SystemConfig &config,
                    unsigned mp_level);

    /**
     * Enqueue with the budget scaled by @p factor.  The L2-sweep
     * figures (6, 7, 8 / Table 2) need several-times-longer traces
     * than the CPI ladders: short windows overstate large-cache miss
     * ratios with unamortised first-touch misses (the [BKW90]
     * long-trace effect the paper discusses in Section 3).
     */
    std::size_t addScaled(const core::SystemConfig &config,
                          unsigned factor);

    /**
     * Enqueue at an explicit MP level and budget.  The one place a
     * bench job is stamped with the watchdog budget and sampling
     * plan; the other add()s delegate here.
     */
    std::size_t add(const core::SystemConfig &config,
                    unsigned mp_level, Count instructions,
                    Count warmup);

    /** Number of jobs enqueued so far. */
    std::size_t size() const { return jobs.size(); }

    /**
     * Run every enqueued job across GAAS_BENCH_JOBS workers -- or,
     * when mprocWorkerCount() > 0, across that many forked worker
     * processes (proc::runSweepMproc: bit-identical results, but a
     * worker crash or hang is requeued instead of fatal) -- print a
     * one-line wall-clock/throughput summary (with ok/failed/
     * degraded/reused disposition counts), and return the outcomes
     * in enqueue order.  A throwing job becomes a Failed outcome;
     * the other points still run.  When resumeDir() is set, points
     * are journaled as they finish and points already journaled by
     * an earlier run are reused without simulating.  Every finished
     * point flows through notePoint() (in enqueue order, on this
     * thread).  The queue is cleared so the Sweep can be reused (the
     * ablations binary runs one sweep per table).
     */
    std::vector<core::SweepOutcome> run();

  private:
    std::vector<core::SweepJob> jobs;
};

/** Print @p table to stdout and write bench_out/<name>.csv. */
void emit(const stats::Table &table, const std::string &name);

/** Standard banner: figure id + paper caption + knob values. */
void banner(const std::string &figure, const std::string &caption);

} // namespace gaas::bench

#endif // GAAS_BENCH_COMMON_HH
