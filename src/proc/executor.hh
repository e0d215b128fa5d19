/**
 * @file
 * The multi-process sweep executor: a supervisor that forks worker
 * processes, shards SweepJobs to them over a length-prefixed pipe
 * protocol (proc/protocol.hh), and survives the death of any
 * worker.
 *
 * Fault model, layered on PR-4's in-process isolation:
 *
 *  - A job that *throws* in a worker comes back as a Failed
 *    outcome, exactly as in-process -- the worker survives.
 *  - A worker that *dies* (SIGSEGV, SIGKILL, OOM kill, _Exit) is
 *    detected by pipe EOF + waitpid; its in-flight job is requeued
 *    with exponential backoff and a replacement worker is forked.
 *  - A worker that *hangs* (no heartbeat frame within
 *    heartbeatMs * heartbeatMiss) is SIGKILLed by the supervisor
 *    and handled as a death.  This catches stuck processes the
 *    per-job cycle watchdog cannot (that watchdog lives inside the
 *    simulation loop; a worker wedged outside it never trips it).
 *  - A job whose workers keep dying is poison: after maxAttempts
 *    dispatches it degrades to a Failed outcome with the stable
 *    code `worker-lost` -- the ladder completes, the CSV shows
 *    `failed:worker-lost`, the process exits nonzero after
 *    draining.  One bad point never aborts a campaign.
 *  - A *supervisor* death is recovered the same way a single
 *    process death always was: every finalized point was appended
 *    to the fsynced resume journal, so `--resume` replays it.
 *
 * Results cross the pipe in core/result_io's bit-exact encoding.
 * The supervisor is only a core::SweepExecutor: it reports each
 * finished index once, and core::driveSweep -- which the in-process
 * engine uses too -- resolves journal reuse, finalizes points in
 * submission order and counts dispositions.  CSVs,
 * per-point JSON dumps and journals are therefore byte-identical
 * to a serial run no matter how many workers died along the way.
 *
 * Workers are forked after the supervisor pre-generates the trace
 * arena streams the ladder needs, so children replay shared
 * immutable pages copy-on-write instead of regenerating per
 * process.
 */

#ifndef GAAS_PROC_EXECUTOR_HH
#define GAAS_PROC_EXECUTOR_HH

#include <vector>

#include "core/sweep.hh"

namespace gaas::core
{
class RunJournal;
}

namespace gaas::proc
{

/** Supervision knobs; fromEnv() reads the GAAS_MPROC_* variables
 *  (strict util/env parsing, silently keeping defaults if unset). */
struct MprocOptions
{
    /** Worker processes; 0 = core::sweepWorkers() (GAAS_BENCH_JOBS
     *  else hardware_concurrency). */
    unsigned workers = 0;

    /** Total dispatch attempts per job before it is poison and
     *  degrades to failed:worker-lost (GAAS_MPROC_RETRIES). */
    unsigned maxAttempts = 3;

    /** Worker heartbeat interval, milliseconds
     *  (GAAS_MPROC_HEARTBEAT_MS). */
    unsigned heartbeatMs = 500;

    /** Heartbeat intervals of silence before a worker is declared
     *  hung and SIGKILLed (GAAS_MPROC_HEARTBEAT_MISS). */
    unsigned heartbeatMiss = 20;

    /** Base requeue delay after a worker loss, milliseconds; the
     *  Nth requeue of a job waits backoffMs << (N-1), capped at
     *  5 s (GAAS_MPROC_BACKOFF_MS). */
    unsigned backoffMs = 50;

    static MprocOptions fromEnv();
};

/**
 * Worker-process count requested via GAAS_BENCH_MPROC (strict
 * parse); 0 = multi-process mode off.  The bench harness also
 * accepts `--mproc N`, which overrides this.
 */
unsigned mprocWorkers();

/**
 * Run @p jobs across opts.workers forked worker processes:
 * core::driveSweep, as behind core::runSweepOutcomes (so the same
 * submission-order outcomes and progress, journal reuse/append and
 * cooperative cancellation), with the supervisor as executor, which
 * adds the cross-process fault model described in the file comment.  SweepStats gains mproc=true,
 * workerRespawns and requeuedJobs; per-job telemetry carries the
 * worker slot and requeue count.
 *
 * On platforms without fork (Windows), falls back to the
 * in-process pool.
 */
std::vector<core::SweepOutcome>
runSweepMproc(const std::vector<core::SweepJob> &jobs,
              const MprocOptions &opts = {},
              core::SweepStats *stats = nullptr,
              const core::SweepProgress &progress = {},
              core::RunJournal *journal = nullptr);

} // namespace gaas::proc

#endif // GAAS_PROC_EXECUTOR_HH
