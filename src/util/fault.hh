/**
 * @file
 * Deterministic fault injection for robustness tests.
 *
 * Code on a fallible path declares a named injection point:
 *
 *     if (gaas::fault::shouldFail("file-write"))
 *         return false;   // behave exactly like the real failure
 *
 * Nothing fires unless an injection spec is armed, either
 * programmatically (fault::configure) or via the GAAS_FAULT
 * environment variable.  A spec is a comma-separated list of
 * `point:N` (fail exactly the Nth hit of that point, 1-based,
 * repeatable) or `point:*` (fail every hit).  Hits are counted
 * per point across the whole process, so "fail the 3rd stats
 * write" is reproducible run to run.
 *
 * With no spec armed, shouldFail() is a single relaxed atomic load
 * -- the golden path pays (and changes) nothing.
 *
 * Known injection points (grep for the literals):
 *   file-write   util::writeBytes -- one buffered write fails
 *   file-flush   util::flushAndSync -- flush/fsync fails
 *   trace-open   trace file open: V3File (every v3 reader and
 *                v3FileInfo), TraceV3Writer, and the v1/v2 reader
 *                of `tracepack pack` (trace/file.hh)
 *   journal-write  RunJournal::append persistence
 *   sweep-job    runSweepJob -- the whole simulation job throws
 *   bench-kill   bench notePoint -- hard process exit (std::_Exit),
 *                simulating a mid-run kill for resume tests
 *   worker-kill  multi-process sweep dispatch (proc/executor) -- the
 *                worker the job is sent to raises SIGKILL mid-job.
 *                Counted on the *supervisor* side, one hit per job
 *                dispatch (requeues count again), so `worker-kill:N`
 *                deterministically kills the Nth dispatch no matter
 *                which worker process receives it.
 *   worker-hang  like worker-kill, but the worker stops heartbeating
 *                and sleeps forever -- the supervisor must detect
 *                the missed heartbeats, SIGKILL it and requeue.
 */

#ifndef GAAS_UTIL_FAULT_HH
#define GAAS_UTIL_FAULT_HH

#include <cstdint>
#include <string_view>

namespace gaas::fault
{

/**
 * Arm the injections described by @p spec (see file comment),
 * replacing any previous spec and zeroing all hit counters.  An
 * empty spec disarms everything.  Throws SimError(Config) on a
 * malformed spec.
 */
void configure(std::string_view spec);

/** Disarm all injections, zero counters, forget GAAS_FAULT. */
void reset();

/**
 * @return true when any injection is armed (after lazily reading
 * GAAS_FAULT on first use)
 */
bool enabled();

/**
 * Count one hit of @p point; @return true if an armed injection
 * says this hit must fail.  The caller then behaves exactly as if
 * the real failure happened.
 */
bool shouldFail(const char *point);

} // namespace gaas::fault

#endif // GAAS_UTIL_FAULT_HH
