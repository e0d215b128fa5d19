/**
 * @file
 * The trace-driven simulator: multiplexes the workload's processes
 * over one CacheSystem under the round-robin scheduler of Section 3
 * (500k-cycle time slices; every voluntary system call forces a
 * context switch) and produces a SimResult.
 */

#ifndef GAAS_CORE_SIMULATOR_HH
#define GAAS_CORE_SIMULATOR_HH

#include <array>
#include <cstddef>
#include <string>
#include <vector>

#include "core/cache_system.hh"
#include "core/config.hh"
#include "core/cpi.hh"
#include "core/workload.hh"
#include "util/random.hh"

namespace gaas::core
{

/** The trace-driven simulator; see file comment. */
class Simulator
{
  public:
    /**
     * @param config   validated system configuration
     * @param workload processes to schedule (consumed)
     */
    Simulator(const SystemConfig &config, Workload workload);

    /**
     * Run until @p total_instructions have executed (or every
     * process's trace is exhausted, for non-looping workloads).
     *
     * @param warmup_instructions instructions executed before the
     *        statistics are reset, so measurements start from a
     *        warmed cache hierarchy (the long-trace discipline of
     *        [BKW90]); excluded from the reported counts
     */
    SimResult run(Count total_instructions,
                  Count warmup_instructions = 0);

    /**
     * @name Sampled-simulation hooks (core/sampling.hh)
     * The sampling controller drives the machine through its
     * interval schedule with these three: fastForward() seeks each
     * process's trace past a gap without simulating it,
     * runWarm() executes instructions through the simulate loop's
     * WarmSpec instantiation (hierarchy state evolves, no loss
     * accounting), and resetMeasurement() starts a measurement
     * interval, whose counters the next run(n, 0) call then
     * reports.
     */
    ///@{
    /**
     * Skip @p per_process_refs[i] trace *references* (not
     * instructions) of process i without simulating them, then
     * resynchronize each stream to the next instruction boundary so
     * the step loop never sees a dangling data record.  Time slices
     * restart after the jump.
     */
    void fastForward(const std::vector<Count> &per_process_refs);

    /** Advance the machine by up to @p instructions with accounting
     *  compiled out (same scheduler and state updates, no stats;
     *  the clock advances by base cycles only). */
    void runWarm(Count instructions);

    /**
     * Pin the scheduler to process @p index (mod process count;
     * advanced to the next alive process if that one retired) and
     * start a fresh time slice.  The sampling controller uses this
     * to stratify measurement intervals by process: one 500k-cycle
     * slice dwarfs a measurement interval, so without pinning every
     * interval would measure whatever process happened to hold the
     * CPU, not the round-robin mix.
     */
    void selectProcess(std::size_t index);

    /** Zero the measured statistics while keeping all cache, TLB,
     *  write-buffer and scheduler state (the warmed-hierarchy
     *  measurement discipline; run() calls this itself after its
     *  warmup phase). */
    void resetMeasurement();

    /**
     * Run as the recording front end of a grouped sampled run: from
     * now on run() and runWarm() log every back-end call into
     * @p log (RecordSpec) instead of making it, and a detailed run
     * also logs the Instruction markers its replays check.  nullptr
     * returns to making the calls.
     */
    void recordBackEnd(BackEndLog *log);

    /** The machine clock (cycles since construction). */
    Cycles clock() const { return now; }
    ///@}

    /** The cache system (for inspection after run()). */
    const CacheSystem &system() const { return sys; }

    /**
     * Force the generic (runtime-dispatched) access path instead of
     * the compile-time specialized simulate loop the configuration
     * would normally select.  The two paths are bit-identical by
     * construction; the equivalence tests prove it through this
     * switch.  Honoured from the environment too: set
     * GAAS_SIM_GENERIC=1 to force the generic path process-wide.
     */
    void setForceGenericPath(bool force);

    /** True if the generic path is in use (forced or fallback). */
    bool usingGenericPath() const { return genericPath; }

    /**
     * Arm the zero-progress watchdog: if any single instruction
     * costs more than @p budget_cycles, run() throws
     * SimError(Watchdog) instead of burning the cycle budget on a
     * stuck machine (a livelocked write buffer, a pathological
     * configuration).  0 (the default) disables the check.
     */
    void setWatchdogCycles(Cycles budget_cycles)
    {
        watchdogCycles = budget_cycles;
    }

  private:
    /** References buffered per process per
     *  TraceSource::nextBatchPacked call, so the hot loop pays one
     *  virtual call per kRefBatch references instead of one per
     *  reference. */
    static constexpr std::size_t kRefBatch = 256;

    /** Scheduler-side state of one process. */
    struct ProcState
    {
        Process proc;
        FractionAccumulator stallAcc;
        bool alive = true;

        /**
         * @name Refill buffer ([bufPos..bufLen) pending)
         * Packed 4-byte words (trace/packed.hh) the step loop
         * decodes straight into registers.
         */
        ///@{
        std::array<std::uint32_t, kRefBatch> buffer;
        std::size_t bufPos = 0;
        std::size_t bufLen = 0;
        ///@}
    };

    /** Refill @p p's buffer; @return false if the trace is
     *  exhausted. */
    bool refill(ProcState &p);

    /**
     * Execute one instruction of @p p at time @p now, through the
     * access path selected by @p Spec.
     *
     * Always inlined, so each runLoopT instantiation is one flat
     * loop: left to its heuristics, GCC 12 at -O3 called this out
     * of line from 32 of the 36 loops, and which ones was an
     * accident of their size.  The access paths, the MMU
     * translation and the TLB probe it reaches are pinned too:
     * what runs out is the inliner's growth budget for this file,
     * so pinning one level only moves the call to the next one
     * down (DESIGN §6, "Hot core").  The miss paths stay out of
     * line.
     *
     * @param cycles   filled with the instruction's total cycles
     *                 (base cycles only under a WarmSpec)
     * @param syscall  true if the instruction was a system call
     * @retval false   the process's trace is exhausted
     */
    template <class Spec>
    [[gnu::always_inline]] bool stepInstruction(ProcState &p,
                                                Cycles now,
                                                Cycles &cycles,
                                                bool &syscall);

    /** Advance the scheduler/machine by up to @p n instructions
     *  (dispatches to the runLoopT selected at construction). */
    void runLoop(Count n);

    /** The simulate loop, specialized per access-path spec; under a
     *  WarmSpec it keeps the scheduler and drops every measured
     *  counter and the watchdog, and under a measuring RecordSpec it
     *  logs the Instruction markers (see BackEndLog). */
    template <class Spec>
    void runLoopT(Count n);

    using LoopFn = void (Simulator::*)(Count);

    /** The detail/warm loop pair one access-path spec yields, and
     *  its recording twin. */
    struct LoopFns
    {
        LoopFn detail = nullptr;
        LoopFn warm = nullptr;
        LoopFn recordDetail = nullptr;
        LoopFn recordWarm = nullptr;
    };

    template <class Spec>
    static constexpr LoopFns
    loopFnsFor()
    {
        return {&Simulator::runLoopT<Spec>,
                &Simulator::runLoopT<WarmSpec<Spec>>,
                &Simulator::runLoopT<RecordSpec<Spec>>,
                &Simulator::runLoopT<RecordSpec<WarmSpec<Spec>>>};
    }

    /** Select the loop instantiations for the configuration
     *  (also records the choice in genericPath). */
    LoopFns pickLoop();

    /** Point loopFn/warmFn at pickLoop()'s loops, recording ones
     *  while a BackEndLog is set. */
    void selectLoops();

    /** Drop buffered references until the stream stands at an
     *  instruction record (or is exhausted), after a fastForward. */
    void resyncProcess(ProcState &p);

    /** Beyond the name, the simulator reads only the front end's
     *  configuration (sys.config()), like the front end itself. */
    std::string configName;
    CacheSystem sys;
    std::vector<ProcState> procs;

    /** @name Persistent machine/scheduler state */
    ///@{
    Cycles now = 0;
    std::size_t current = 0;
    std::size_t alive = 0;
    Cycles sliceEnd = 0;
    Cycles watchdogCycles = 0; //!< 0 = watchdog off
    ///@}

    /** @name Access-path selection (fixed per configuration) */
    ///@{
    LoopFn loopFn = nullptr;
    LoopFn warmFn = nullptr;
    bool forceGeneric = false; //!< setter or GAAS_SIM_GENERIC
    bool genericPath = true;   //!< what pickLoop() last chose
    /** Write-through stores probe L2 every time; prefetch those
     *  sets at batch-refill (not while recording: no L2 is probed). */
    bool prefetchStoreL2 = false;
    BackEndLog *log = nullptr; //!< see recordBackEnd()
    ///@}

    /** @name Measured since the last resetMeasurement() */
    ///@{
    Cycles cpuStallCycles = 0;
    Cycles measureStartCycle = 0;
    Count instructions = 0;
    Count contextSwitches = 0;
    Count syscallSwitches = 0;
    ///@}
};

/**
 * Throw the zero-progress watchdog's SimError(Watchdog): one
 * instruction of configuration @p config cost @p cycles against a
 * budget of @p budget.  The one place its message is built, so a
 * replayed group member fails exactly as its solo run does.
 */
[[noreturn]] void watchdogExpired(const std::string &config,
                                  Cycles cycles, Cycles budget);

/**
 * One-call convenience: build the standard level-8 workload, run
 * @p total_instructions on @p config, return the result.
 */
SimResult runStandard(const SystemConfig &config,
                      Count total_instructions,
                      unsigned mp_level = 8,
                      Count warmup_instructions = 0);

} // namespace gaas::core

#endif // GAAS_CORE_SIMULATOR_HH
