/**
 * @file
 * Exact (de)serialization of a SimResult and of a SweepOutcome: the
 * one codec behind the resume journal (core/journal.hh), the
 * multi-process executor's Result frames (proc/protocol.hh) and the
 * bench harness's `.failed.json` records.
 *
 * Unlike the stats dumps (core/stats_dump.hh), which render a
 * human/machine-readable *view* of a result, this pair round-trips
 * the complete struct bit-exactly: every counter is a decimal u64
 * and every double uses shortest-round-trip formatting, so a result
 * reloaded from a journal is indistinguishable from the original --
 * a resumed figure run re-tabulates CSVs and re-emits per-point JSON
 * dumps byte-identically to an uninterrupted run.  Each record's
 * writer and reader walk one field list, so they cannot disagree.
 */

#ifndef GAAS_CORE_RESULT_IO_HH
#define GAAS_CORE_RESULT_IO_HH

#include "core/cpi.hh"
#include "core/sweep.hh"
#include "obs/json.hh"

namespace gaas::core
{

/** Serialize every field of @p result (flat object, stable keys). */
obs::JsonValue resultToJson(const SimResult &result);

/**
 * Rebuild a SimResult from resultToJson output.
 *
 * Throws SimError(StatsIO) on a missing or malformed field -- a
 * journal record that does not fully decode must not resume.
 */
SimResult resultFromJson(const obs::JsonValue &v);

/**
 * Serialize @p outcome: its status, then the error code, message
 * and configuration name of a Failed point or the full result
 * (resultToJson) of any other, then -- if @p with_stats -- the job's
 * build/sim/total seconds and arena tally under "stats".  The
 * journal and `.failed.json` leave the stats out; Result frames
 * carry them.  Neither the reused flag nor the executor's own
 * telemetry (queue wait, worker, requeues) is written.
 */
obs::JsonValue outcomeToJson(const SweepOutcome &outcome,
                             bool with_stats);

/**
 * Rebuild a SweepOutcome from outcomeToJson output; members it does
 * not know (the journal's "key") are ignored, and a Failed record
 * may lack its message and configuration name.
 *
 * Throws SimError(StatsIO) on a missing or malformed member, and on
 * missing stats when @p with_stats.
 */
SweepOutcome outcomeFromJson(const obs::JsonValue &v,
                             bool with_stats);

/**
 * Fold @p part's measured counters into @p acc: every u64 counter
 * and host-timing double is summed, except wb.max_occupancy which
 * takes the max (it is a high-water mark, not a flow).  Name,
 * derived ratios and sampling summary are left to the caller.  The
 * sampled-simulation controller (core/sampling.hh) uses this to
 * aggregate per-interval results; it walks the same field tables as
 * the (de)serializers, so a new SimResult counter is summed the day
 * it is journaled.
 */
void accumulateResult(SimResult &acc, const SimResult &part);

} // namespace gaas::core

#endif // GAAS_CORE_RESULT_IO_HH
