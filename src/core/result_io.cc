#include "result_io.hh"

#include <algorithm>
#include <charconv>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/error.hh"

namespace gaas::core
{

namespace
{

/**
 * Apply @p f("dotted.name", field) to every u64 counter of a
 * SimResult, in a fixed order.  Instantiated once over `SimResult &`
 * (parsing) and once over `const SimResult &` (serializing), so the
 * two directions can never disagree about the field list.
 */
template <typename Result, typename Fn>
void
visitCounters(Result &r, Fn &&f)
{
    f("instructions", r.instructions);
    f("cycles", r.cycles);
    f("cpu_stall_cycles", r.cpuStallCycles);
    f("context_switches", r.contextSwitches);
    f("syscall_switches", r.syscallSwitches);

    f("comp.l1i_miss", r.comp.l1iMiss);
    f("comp.l1d_miss", r.comp.l1dMiss);
    f("comp.l1_writes", r.comp.l1Writes);
    f("comp.wb_wait", r.comp.wbWait);
    f("comp.l2i_miss", r.comp.l2iMiss);
    f("comp.l2d_miss", r.comp.l2dMiss);
    f("comp.tlb", r.comp.tlb);

    f("sys.ifetches", r.sys.ifetches);
    f("sys.l1i_misses", r.sys.l1iMisses);
    f("sys.loads", r.sys.loads);
    f("sys.l1d_read_misses", r.sys.l1dReadMisses);
    f("sys.stores", r.sys.stores);
    f("sys.l1d_write_misses", r.sys.l1dWriteMisses);
    f("sys.write_only_read_misses", r.sys.writeOnlyReadMisses);
    f("sys.l2i_accesses", r.sys.l2iAccesses);
    f("sys.l2i_misses", r.sys.l2iMisses);
    f("sys.l2d_accesses", r.sys.l2dAccesses);
    f("sys.l2d_misses", r.sys.l2dMisses);
    f("sys.l2_dirty_misses", r.sys.l2DirtyMisses);
    f("sys.l2_write_allocates", r.sys.l2WriteAllocates);

    f("sys.wb.pushes", r.sys.wb.pushes);
    f("sys.wb.full_stalls", r.sys.wb.fullStalls);
    f("sys.wb.full_stall_cycles", r.sys.wb.fullStallCycles);
    f("sys.wb.drain_waits", r.sys.wb.drainWaits);
    f("sys.wb.drain_wait_cycles", r.sys.wb.drainWaitCycles);
    f("sys.wb.bypasses", r.sys.wb.bypasses);
    f("sys.wb.max_occupancy", r.sys.wb.maxOccupancy);

    f("sys.mem.reads", r.sys.memory.reads);
    f("sys.mem.dirty_writebacks", r.sys.memory.dirtyWritebacks);
    f("sys.mem.bus_wait_cycles", r.sys.memory.busWaitCycles);
    f("sys.mem.bus_waits", r.sys.memory.busWaits);

    f("sys.itlb.accesses", r.sys.itlb.accesses);
    f("sys.itlb.misses", r.sys.itlb.misses);
    f("sys.dtlb.accesses", r.sys.dtlb.accesses);
    f("sys.dtlb.misses", r.sys.dtlb.misses);
}

/** The host-timing doubles, same single-field-table idea. */
template <typename Result, typename Fn>
void
visitDoubles(Result &r, Fn &&f)
{
    f("host_seconds", r.hostSeconds);
    f("host_stats_seconds", r.hostStatsSeconds);
}

/**
 * @name Sampling summary fields (core/sampling.hh)
 * Kept in their own tables because parsing treats them as optional:
 * journals written before sampled simulation existed lack them, and
 * an unsampled record parses to the all-zero SamplingInfo either way.
 */
///@{
template <typename Result, typename Fn>
void
visitSamplingCounters(Result &r, Fn &&f)
{
    f("sampling.passes", r.sampling.passes);
    f("sampling.intervals", r.sampling.intervals);
    f("sampling.measured_instructions",
      r.sampling.measuredInstructions);
    f("sampling.warmed_instructions", r.sampling.warmedInstructions);
    f("sampling.skipped_instructions",
      r.sampling.skippedInstructions);
}

template <typename Result, typename Fn>
void
visitSamplingDoubles(Result &r, Fn &&f)
{
    f("sampling.cpi_mean", r.sampling.cpiMean);
    f("sampling.cpi_std_error", r.sampling.cpiStdError);
    f("sampling.cpi_half_width", r.sampling.cpiHalfWidth);
    f("sampling.confidence", r.sampling.confidence);
}
///@}

/** Host-time telemetry of one job, for the worker protocol. */
template <typename Stats, typename Fn>
void
visitJobStats(Stats &s, Fn &&f)
{
    f("build_seconds", s.buildSeconds);
    f("sim_seconds", s.simSeconds);
    f("total_seconds", s.totalSeconds);
    f("arena_streams_generated", s.arenaStreamsGenerated);
    f("arena_streams_reused", s.arenaStreamsReused);
    f("arena_refs_generated", s.arenaRefsGenerated);
    f("arena_gen_seconds", s.arenaGenSeconds);
}

[[noreturn]] void
badField(const char *name, const char *what)
{
    gaas_error(ErrorCode::StatsIO, "record field '", name,
               "' ", what);
}

/**
 * Read member @p name of object @p v into @p out: a string, an
 * unsigned decimal counter, or a double, where null reads as 0 (the
 * writer turns non-finite doubles into null; no double it writes
 * feeds byte-compared output).  A missing member is an error unless
 * @p optional, which leaves @p out as it was.
 */
template <typename T>
void
readMember(const obs::JsonValue &v, const char *name, T &out,
           bool optional = false)
{
    const obs::JsonValue *m = v.member(name);
    if (!m) {
        if (!optional)
            badField(name, "is missing");
        return;
    }
    if constexpr (std::is_same_v<T, std::string>) {
        if (m->type != obs::JsonValue::Type::String)
            badField(name, "is not a string");
        out = m->scalar;
    } else if (std::is_floating_point_v<T> &&
               m->type == obs::JsonValue::Type::Null) {
        out = 0;
    } else {
        if (m->type != obs::JsonValue::Type::Number)
            badField(name, "is not a number");
        const char *first = m->scalar.data();
        const char *last = first + m->scalar.size();
        const auto res = std::from_chars(first, last, out);
        if (res.ec != std::errc{} || res.ptr != last)
            badField(name, "does not fit its type");
    }
}

/** A field visitor that appends each field to object @p doc. */
auto
writeMember(obs::JsonValue &doc)
{
    return [&doc](const char *name, const auto &v) {
        doc.members.emplace_back(name, obs::JsonValue::number(v));
    };
}

} // namespace

obs::JsonValue
resultToJson(const SimResult &result)
{
    obs::JsonValue root = obs::JsonValue::object();
    root.members.emplace_back(
        "config", obs::JsonValue::string(result.configName));
    visitCounters(result, writeMember(root));
    visitDoubles(result, writeMember(root));
    visitSamplingCounters(result, writeMember(root));
    visitSamplingDoubles(result, writeMember(root));
    return root;
}

SimResult
resultFromJson(const obs::JsonValue &v)
{
    if (v.type != obs::JsonValue::Type::Object)
        gaas_error(ErrorCode::StatsIO, "result record is not an object");

    SimResult result;
    const auto required = [&v](const char *name, auto &out) {
        readMember(v, name, out);
    };
    // Records written before sampled simulation existed lack these;
    // an unsampled result keeps the all-zero SamplingInfo either way.
    const auto optional = [&v](const char *name, auto &out) {
        readMember(v, name, out, /*optional=*/true);
    };
    readMember(v, "config", result.configName);
    visitCounters(result, required);
    visitDoubles(result, required);
    visitSamplingCounters(result, optional);
    visitSamplingDoubles(result, optional);
    return result;
}

obs::JsonValue
outcomeToJson(const SweepOutcome &outcome, bool with_stats)
{
    obs::JsonValue doc = obs::JsonValue::object();
    doc.members.emplace_back(
        "status",
        obs::JsonValue::string(pointStatusName(outcome.status)));
    if (outcome.status == PointStatus::Failed) {
        doc.members.emplace_back(
            "code",
            obs::JsonValue::string(errorCodeName(outcome.errorCode)));
        doc.members.emplace_back("error",
                                 obs::JsonValue::string(outcome.error));
        // The zeroed result still names its configuration; the
        // figure CSVs print it next to the failed cell.
        doc.members.emplace_back(
            "config",
            obs::JsonValue::string(outcome.result.configName));
    } else {
        doc.members.emplace_back("result",
                                 resultToJson(outcome.result));
    }
    if (with_stats) {
        obs::JsonValue stats = obs::JsonValue::object();
        visitJobStats(outcome.stats, writeMember(stats));
        doc.members.emplace_back("stats", std::move(stats));
    }
    return doc;
}

SweepOutcome
outcomeFromJson(const obs::JsonValue &v, bool with_stats)
{
    if (v.type != obs::JsonValue::Type::Object)
        gaas_error(ErrorCode::StatsIO, "outcome record is not an object");

    SweepOutcome outcome;
    std::string name;
    readMember(v, "status", name);
    if (!parsePointStatus(name, outcome.status))
        badField("status", "names no point status");
    if (outcome.status == PointStatus::Failed) {
        readMember(v, "code", name);
        if (!parseErrorCode(name, outcome.errorCode))
            badField("code", "names no error code");
        // Failed journal records written before this codec was shared
        // with the worker protocol carry no configuration name.
        readMember(v, "error", outcome.error, /*optional=*/true);
        readMember(v, "config", outcome.result.configName,
                   /*optional=*/true);
    } else {
        const obs::JsonValue *result = v.member("result");
        if (!result)
            badField("result", "is missing");
        outcome.result = resultFromJson(*result);
    }
    if (with_stats) {
        const obs::JsonValue *stats = v.member("stats");
        if (!stats || stats->type != obs::JsonValue::Type::Object)
            badField("stats", "is missing or not an object");
        visitJobStats(outcome.stats, [stats](const char *n, auto &out) {
            readMember(*stats, n, out);
        });
    }
    return outcome;
}

void
accumulateResult(SimResult &acc, const SimResult &part)
{
    const Count occupancy = std::max(acc.sys.wb.maxOccupancy,
                                     part.sys.wb.maxOccupancy);

    std::vector<const Count *> src;
    visitCounters(part, [&src](const char *, const Count &v) {
        src.push_back(&v);
    });
    std::size_t i = 0;
    visitCounters(acc, [&src, &i](const char *, Count &v) {
        v += *src[i++];
    });

    acc.sys.wb.maxOccupancy = occupancy;
    acc.hostSeconds += part.hostSeconds;
    acc.hostStatsSeconds += part.hostStatsSeconds;
}

} // namespace gaas::core
