/**
 * @file
 * Workload: the set of processes a simulation multiplexes, i.e. the
 * paper's "file descriptor multiplexor" plus process configuration
 * file (Section 3).
 */

#ifndef GAAS_CORE_WORKLOAD_HH
#define GAAS_CORE_WORKLOAD_HH

#include <memory>
#include <string>
#include <vector>

#include "synth/suite.hh"
#include "trace/source.hh"
#include "util/types.hh"

namespace gaas::core
{

/** One schedulable process. */
struct Process
{
    Pid pid = 0;
    std::string name;

    /** CPU-stall CPI floor of this process's code (1.238-style). */
    double baseCpi = 1.238;

    std::unique_ptr<trace::TraceSource> source;
};

/**
 * An ordered set of processes.  The order is the round-robin
 * schedule order; PIDs are assigned in order of addition.
 */
class Workload
{
  public:
    Workload() = default;

    /**
     * Build from benchmark specs, one fresh generator per process,
     * each wrapped so it restarts when exhausted (the simulator runs
     * to an instruction budget).  This is the reference the arena
     * replay of standard() is checked against (ArenaEndToEnd tests,
     * `benchspeed`).
     *
     * @param specs one process per spec, scheduled in spec order
     */
    static Workload
    fromSpecs(const std::vector<synth::BenchmarkSpec> &specs);

    /**
     * The standard workload of the paper's experiments: the first
     * @p mp_level suite benchmarks (Section 3 settles on level 8).
     *
     * The processes replay shared streams from the global
     * TraceArena, so a sweep materializes each benchmark's reference
     * stream once instead of re-running the generators per point.
     * The streams are bit-identical to fromSpecs(workloadSpecs(
     * @p mp_level)).  A stream holds at most one generator pass
     * (2 x simInstructions packed words) and then wraps.
     *
     * @param instr_hint the run's total instruction budget (warmup
     *        included), used to pre-size arena streams so the first
     *        job generates in one pass instead of doubling up to the
     *        high-water mark; 0 defers generation to first read
     */
    static Workload standard(unsigned mp_level = 8,
                             Count instr_hint = 0);

    /**
     * One process per named v3 trace file -- the paper's actual
     * mode of operation, a pixie trace per benchmark, with the
     * trace on disk instead of a synthetic model.
     *
     * Replay mode:
     *  - @p streaming false (default): each file is decoded once
     *    into the shared TraceArena (keyed by its content digest)
     *    and replayed zero-copy, like the synthetic streams.
     *  - @p streaming true: each process replays through a
     *    StreamSource over one trace::BlockStore that all of the
     *    workload's files share: one set of decoded blocks, sized
     *    by the streams' need, and one decoder pool, under one
     *    GAAS_TRACE_STREAM_MB ceiling for the whole store however
     *    many traces the workload names.  `gaassim --trace` uses
     *    this mode.
     *
     * Both modes produce bit-identical reference streams (wrapped
     * in LoopSource, like every other workload source), passing
     * every record through the ingest packer (trace/packed.hh), so
     * a file that is not packable replays like any other.  Both
     * open every file as a V3File while the workload is built, so
     * a missing or malformed file -- or a v1/v2 one, which the
     * error says to convert with `tracepack pack` -- fails here.
     *
     * @param base_cpi CPU-stall CPI floor assigned to every trace
     *        process (the paper's 1.238)
     */
    static Workload
    fromTraceFiles(const std::vector<std::string> &paths,
                   bool streaming = false, double base_cpi = 1.238);

    /**
     * Materialize the arena streams standard(@p mp_level, ...)
     * would replay, through @p instr_hint total instructions, one
     * generator thread per stream -- all joined before returning,
     * so the caller may fork() immediately afterwards (the
     * multi-process sweep executor prewarms here so its workers
     * inherit the streams copy-on-write instead of regenerating
     * them per process).  A no-op when @p instr_hint is 0.
     */
    static void prewarmStandardStreams(unsigned mp_level,
                                       Count instr_hint);

    /** Add one process (PID = current process count). */
    void add(std::unique_ptr<trace::TraceSource> source,
             double base_cpi, const std::string &name);

    std::size_t size() const { return processes.size(); }
    bool empty() const { return processes.empty(); }

    /** Move the processes out (the Simulator consumes them). */
    std::vector<Process> take() { return std::move(processes); }

  private:
    std::vector<Process> processes;
};

} // namespace gaas::core

#endif // GAAS_CORE_WORKLOAD_HH
