/**
 * @file
 * The benchmark's workloads: their sweep jobs, the inputs each one
 * builds during set-up, and the executor each one runs on.
 *
 * Every workload is closed loop: one benchmark process runs the whole
 * sweep, a repetition at a time, on at most kMaxWorkers in-process
 * workers or forked worker processes.  Inputs come from the workload
 * seed alone: seed 0 is the paper suite's pinned per-benchmark seeds
 * (so stats match the repository's goldens), any other seed perturbs
 * every synth::BenchmarkSpec::seed, and the simulator only ever sees
 * the generated streams.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/sweep.hh"
#include "synth/benchmark.hh"
#include "trace/arena.hh"

namespace perfbench
{

using gaas::Count;

/** Full size (the measured benchmark) or smoke size (its tests). */
enum class Scale { Full, Smoke };

/** Upper bound on sweep workers / worker processes. */
inline constexpr unsigned kMaxWorkers = 4;

/** The catalogue's workload names, in catalogue order. */
const std::vector<std::string> &workloadNames();

/** The first @p mp suite specs with every seed perturbed by @p seed
 *  (seed 0 leaves the suite untouched). */
std::vector<gaas::synth::BenchmarkSpec> seededSpecs(unsigned mp,
                                                    std::uint64_t seed);

/**
 * The standard multiprogramming workload's reference streams,
 * materialized in a trace arena: the same keys, pass bounds and size
 * hints core::Workload::standard uses, so with seed-0 specs in the
 * global arena the production path replays exactly these streams.
 */
class ArenaInputs
{
  public:
    /** instr_hint value: materialize every stream's whole pass. */
    static constexpr Count kWholePass = 0;

    /** @param instr_hint the run's instruction budget (warmup
     *         included) each stream is materialized for, or
     *         kWholePass
     *  @param global build into TraceArena::global() on the final
     *         rebuild instead of a private arena (for paths that
     *         build their own standard workload) */
    ArenaInputs(std::vector<gaas::synth::BenchmarkSpec> specs,
                unsigned mp, Count instr_hint, bool global);

    /** Materialize every stream into a fresh arena, one generator
     *  thread per stream (the previous arena is released first). */
    void rebuild(bool final);

    /** A workload replaying the current arena's streams. */
    gaas::core::Workload workload() const;

    std::size_t bytes() const { return arena ? arena->totalBytes() : 0; }

    const std::vector<gaas::synth::BenchmarkSpec> &specs() const
    {
        return specList;
    }

  private:
    std::vector<gaas::synth::BenchmarkSpec> specList;
    unsigned mpLevel;
    Count instrHint;
    bool useGlobal;
    std::unique_ptr<gaas::trace::TraceArena> own;
    gaas::trace::TraceArena *arena = nullptr;
};

/** One v3 trace file per process, encoded from seeded specs. */
class TraceFileInputs
{
  public:
    TraceFileInputs(std::vector<gaas::synth::BenchmarkSpec> specs,
                    std::string dir, double target_refs);
    ~TraceFileInputs();

    TraceFileInputs(const TraceFileInputs &) = delete;
    TraceFileInputs &operator=(const TraceFileInputs &) = delete;

    /** Encode every file (one thread per file) and open each one. */
    void rebuild();

    /** Simulated instructions that consume about target_refs. */
    Count instructions() const { return totalInstr; }

    const std::vector<std::string> &paths() const { return files; }

    const std::vector<gaas::synth::BenchmarkSpec> &specs() const
    {
        return specList;
    }

  private:
    std::vector<gaas::synth::BenchmarkSpec> specList;
    std::vector<std::string> files;
    Count totalInstr = 0;
};

/** One repetition of a workload's sweep. */
struct Rep
{
    std::vector<gaas::core::SweepOutcome> outcomes;
    gaas::core::SweepStats stats;
};

/** A named workload, ready to set up and run. */
struct Workload
{
    std::string name;

    /** True when --seed does not reach the inputs (documented). */
    bool seedPinned = false;

    /** Sweep points of one repetition. */
    std::vector<gaas::core::SweepJob> jobs;

    /** Run through proc::runSweepMproc instead of the thread pool. */
    bool processes = false;

    unsigned workers = 1;

    /** The inputs: arena streams or v3 files; exactly one is set.
     *  Shared with the jobs' workload builders. */
    std::shared_ptr<ArenaInputs> arenaInputs;
    std::shared_ptr<TraceFileInputs> fileInputs;

    /** @name The layer ladder's point
     *  One configuration of the sweep, simulated over the same inputs
     *  the sweep replays. */
    ///@{
    gaas::core::SystemConfig ladderConfig;
    Count ladderWarmup = 0;
    Count ladderInstructions = 0;
    ///@}

    /** Build the inputs from scratch; @p final marks the last of
     *  the set-up repetitions (its inputs are the ones measured). */
    void setUp(bool final);

    /** Host bytes the inputs hold in a trace arena. */
    std::size_t arenaBytes() const;

    /** The v3 files the workload streams (empty if none). */
    std::vector<std::string> traceFiles() const;

    /** The specs the inputs were generated from. */
    const std::vector<gaas::synth::BenchmarkSpec> &specs() const;

    /** A fresh workload for the ladder point over the same inputs. */
    gaas::core::Workload ladderWorkload() const;

    /** Run every job once. */
    Rep run() const;
};

/**
 * Build workload @p name.  @p scratch_dir holds any files its inputs
 * need (trace-stream's v3 files); it is created if missing.
 * @return nullptr for an unknown name
 */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed, Scale scale,
                                       const std::string &scratch_dir);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
