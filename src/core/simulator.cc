#include "simulator.hh"

#include <ios>

#include "obs/metrics.hh"
#include "trace/packed.hh"
#include "util/error.hh"
#include "util/logging.hh"

namespace gaas::core
{

Simulator::Simulator(const SystemConfig &config, Workload workload)
    : configName(config.name), sys(config)
{
    auto processes = workload.take();
    if (processes.empty())
        gaas_fatal("Simulator requires at least one process");
    procs.reserve(processes.size());
    for (auto &p : processes) {
        ProcState state;
        state.stallAcc.setRate(p.baseCpi - 1.0);
        state.proc = std::move(p);
        procs.push_back(std::move(state));
    }
    alive = procs.size();
    sliceEnd = sys.config().timeSliceCycles;
    selectLoops();
}

void
Simulator::setForceGenericPath(bool force)
{
    forceGeneric = force;
    selectLoops();
}

void
Simulator::recordBackEnd(BackEndLog *log_)
{
    log = log_;
    sys.recordInto(log);
    selectLoops();
}

void
Simulator::selectLoops()
{
    const LoopFns fns = pickLoop();
    loopFn = log ? fns.recordDetail : fns.detail;
    warmFn = log ? fns.recordWarm : fns.warm;
    prefetchStoreL2 = !log && isWriteThrough(sys.config().writePolicy);
}

Simulator::LoopFns
Simulator::pickLoop()
{
    const FrontEndConfig &cfg = sys.config();
    genericPath = true;
    if (forceGeneric)
        return loopFnsFor<GenericAccessSpec>();

    // Specialization needs both L1s in one geometry class, so the
    // whole probe-path choice folds at compile time; mixed
    // geometries (never used by the paper's design study) fall back
    // to the generic path.
    const bool dm = cfg.l1i.assoc == 1 && cfg.l1d.assoc == 1;
    const bool sa = cfg.l1i.assoc > 1 && cfg.l1d.assoc > 1;
    if (!dm && !sa)
        return loopFnsFor<GenericAccessSpec>();

    genericPath = false;
    switch (cfg.writePolicy) {
      case WritePolicy::WriteBack:
        return dm ? loopFnsFor<
                        FastAccessSpec<true, WritePolicy::WriteBack>>()
                  : loopFnsFor<FastAccessSpec<
                        false, WritePolicy::WriteBack>>();
      case WritePolicy::WriteMissInvalidate:
        return dm ? loopFnsFor<FastAccessSpec<
                        true, WritePolicy::WriteMissInvalidate>>()
                  : loopFnsFor<FastAccessSpec<
                        false, WritePolicy::WriteMissInvalidate>>();
      case WritePolicy::WriteOnly:
        return dm ? loopFnsFor<
                        FastAccessSpec<true, WritePolicy::WriteOnly>>()
                  : loopFnsFor<FastAccessSpec<
                        false, WritePolicy::WriteOnly>>();
      case WritePolicy::SubblockPlacement:
        return dm ? loopFnsFor<FastAccessSpec<
                        true, WritePolicy::SubblockPlacement>>()
                  : loopFnsFor<FastAccessSpec<
                        false, WritePolicy::SubblockPlacement>>();
    }
    genericPath = true;
    return loopFnsFor<GenericAccessSpec>();
}

bool
Simulator::refill(ProcState &p)
{
    p.bufLen =
        p.proc.source->nextBatchPacked(p.buffer.data(), kRefBatch);
    p.bufPos = 0;

    // Under write-through policies every store probes the
    // data-side L2, whose multi-megabyte tag arrays dwarf the host
    // cache; prefetch those sets one batch ahead.  The set index
    // comes from address bits the OS page colouring keeps equal
    // between virtual and physical (Section 2), so the untranslated
    // address selects the right set -- and a stale prefetch only
    // costs bandwidth, never correctness.  The L1 stores are small
    // enough to stay host-cache-resident on their own; prefetching
    // them too was measured a net loss (the sweep costs more than
    // the hits it saves).
    if (prefetchStoreL2) {
        for (std::size_t i = 0; i < p.bufLen; ++i) {
            const std::uint32_t w = p.buffer[i];
            if (trace::packed::isStore(w))
                sys.prefetchL2Data(trace::packed::addrOf(w));
        }
    }
    return p.bufLen > 0;
}

template <class Spec>
inline bool
Simulator::stepInstruction(ProcState &p, Cycles now, Cycles &cycles,
                           bool &syscall)
{
    // Work on the refill buffer in place: one bounds check per ref,
    // and each packed word decodes straight into registers.
    if (p.bufPos == p.bufLen && !refill(p)) [[unlikely]]
        return false;

    // A refill below would overwrite the buffer slot the
    // instruction record occupies; decode everything needed into
    // locals first.
    const std::uint32_t iword = p.buffer[p.bufPos++];
    if (!trace::packed::isInst(iword)) [[unlikely]] {
        gaas_error(ErrorCode::TraceIO, "malformed trace for process ",
                   p.proc.name, ": ",
                   trace::refKindName(trace::packed::kindOf(iword)),
                   " at address 0x", std::hex,
                   trace::packed::addrOf(iword),
                   " without a preceding instruction");
    }
    const Addr iaddr = trace::packed::addrOf(iword);
    syscall = trace::packed::flagOf(iword);

    // Base cost: one cycle plus this benchmark's CPU stalls (loads,
    // branch delays, multi-cycle FP).
    constexpr bool M = Spec::measure;
    const Cycles stall_cycles = p.stallAcc.tick();
    if constexpr (M)
        cpuStallCycles += stall_cycles;
    cycles = 1 + stall_cycles;

    // Memory-side stalls on top; measured() keeps a WarmSpec's
    // clock at base cycles at compile time, across the out-of-line
    // access calls too.
    cycles += measured<M>(sys.ifetchT<Spec>(now, p.proc.pid, iaddr));

    // At most one data reference belongs to this instruction (it may
    // sit in the next batch; a failed refill leaves the buffer empty
    // and the instruction simply has no data ref).
    if (p.bufPos == p.bufLen) [[unlikely]]
        refill(p);
    if (p.bufPos < p.bufLen) [[likely]] {
        const std::uint32_t w = p.buffer[p.bufPos];
        const trace::RefKind kind = trace::packed::kindOf(w);
        if (kind != trace::RefKind::Inst) {
            ++p.bufPos;
            const Addr daddr = trace::packed::addrOf(w);
            if (kind == trace::RefKind::Load) {
                cycles += measured<M>(
                    sys.loadT<Spec>(now + cycles, p.proc.pid, daddr));
            } else {
                cycles += measured<M>(sys.storeT<Spec>(
                    now + cycles, p.proc.pid, daddr,
                    trace::packed::flagOf(w)));
            }
        }
    }
    return true;
}

void
Simulator::runLoop(Count n)
{
    (this->*loopFn)(n);
}

template <class Spec>
void
Simulator::runLoopT(Count n)
{
    const Cycles slice = sys.config().timeSliceCycles;
    // A recording detailed loop marks the instructions its replays
    // must check: every one the scheduler switched after, and under
    // a watchdog every one that made a back-end call or cost more
    // front-end cycles than the smallest budget (see BackEndLog).
    // Grouped runs replay the standard workload, whose processes
    // loop, so no process retires under a recording loop.
    constexpr bool marks = Spec::record && Spec::measure;
    auto next_alive = [&](std::size_t from) {
        std::size_t idx = from;
        do {
            idx = (idx + 1) % procs.size();
        } while (!procs[idx].alive);
        return idx;
    };

    if (!procs[current].alive && alive > 0)
        current = next_alive(current);

    Count executed = 0;
    while (executed < n && alive > 0) {
        ProcState &p = procs[current];

        std::size_t logged = 0;
        if constexpr (marks)
            logged = log->calls.size();
        Cycles cycles = 0;
        bool syscall = false;
        if (!stepInstruction<Spec>(p, now, cycles, syscall)) {
            // Trace exhausted (non-looping workload): retire the
            // process and hand the CPU to the next one.
            p.alive = false;
            --alive;
            if (alive == 0)
                break;
            current = next_alive(current);
            sliceEnd = now + slice;
            continue;
        }

        if constexpr (Spec::measure) {
            if (watchdogCycles != 0 && cycles > watchdogCycles)
                [[unlikely]] {
                watchdogExpired(configName, cycles, watchdogCycles);
            }
            ++instructions;
        }

        const Cycles start = now;
        now += cycles;
        ++executed;

        // A voluntary system call switches immediately; otherwise
        // the process runs out its time slice (Section 3).
        const bool switched = syscall || now >= sliceEnd;
        if (switched) [[unlikely]] {
            if constexpr (Spec::measure) {
                ++contextSwitches;
                if (syscall)
                    ++syscallSwitches;
            }
            if (alive > 1)
                current = next_alive(current);
            sliceEnd = now + slice;
        }

        if constexpr (marks) {
            const std::size_t made = log->calls.size() - logged;
            if (switched ||
                (log->watchdogFloor != 0 &&
                 (made != 0 || cycles > log->watchdogFloor))) {
                log->calls.push_back(
                    {start, cycles, BackEndOp::Instruction, switched,
                     static_cast<std::uint16_t>(made)});
            }
        }
    }
}

void
watchdogExpired(const std::string &config, Cycles cycles,
                Cycles budget)
{
    gaas_error(ErrorCode::Watchdog, "config '", config,
               "': one instruction cost ", cycles,
               " cycles (watchdog budget ", budget, ")");
}

void
Simulator::runWarm(Count instructions_)
{
    (this->*warmFn)(instructions_);
}

void
Simulator::selectProcess(std::size_t index)
{
    if (procs.empty() || alive == 0)
        return;
    index %= procs.size();
    for (std::size_t step = 0; step < procs.size(); ++step) {
        const std::size_t cand = (index + step) % procs.size();
        if (procs[cand].alive) {
            current = cand;
            break;
        }
    }
    sliceEnd = now + sys.config().timeSliceCycles;
}

void
Simulator::resyncProcess(ProcState &p)
{
    // A skip can land mid-instruction (between an Inst record and
    // its data record); drop records until the stream stands at the
    // next instruction so the step loop's grammar holds.
    while (true) {
        if (p.bufPos == p.bufLen && !refill(p))
            return; // exhausted; the step loop retires the process
        if (trace::packed::isInst(p.buffer[p.bufPos]))
            return;
        ++p.bufPos;
    }
}

void
Simulator::fastForward(const std::vector<Count> &per_process_refs)
{
    if (per_process_refs.size() != procs.size()) {
        gaas_fatal("fastForward wants one ref count per process (",
                   procs.size(), "), got ",
                   per_process_refs.size());
    }
    for (std::size_t i = 0; i < procs.size(); ++i) {
        ProcState &p = procs[i];
        Count want = per_process_refs[i];
        if (want == 0 || !p.alive)
            continue;
        // Consume what the refill buffer already holds, then seek
        // the source for the rest.
        const Count buffered =
            static_cast<Count>(p.bufLen - p.bufPos);
        if (want <= buffered) {
            p.bufPos += static_cast<std::size_t>(want);
        } else {
            p.bufPos = 0;
            p.bufLen = 0;
            p.proc.source->skip(
                static_cast<std::size_t>(want - buffered));
        }
        resyncProcess(p);
    }
    // The jump invalidates the running slice; start a fresh one.
    sliceEnd = now + sys.config().timeSliceCycles;
}

void
Simulator::resetMeasurement()
{
    sys.resetStats();
    cpuStallCycles = 0;
    instructions = 0;
    contextSwitches = 0;
    syscallSwitches = 0;
    measureStartCycle = now;
}

SimResult
Simulator::run(Count total_instructions, Count warmup_instructions)
{
    const obs::Stopwatch wall;
    if (warmup_instructions > 0) {
        runLoop(warmup_instructions);
        resetMeasurement();
    }
    runLoop(total_instructions);
    const double loop_seconds = wall.seconds();

    SimResult res;
    {
        // Attribute result assembly (stats gathering) separately from
        // the simulation loop, so sweep telemetry can show where the
        // host time went.
        obs::ScopedTimer stats_timer(res.hostStatsSeconds);
        res.configName = configName;
        res.instructions = instructions;
        res.cycles = now - measureStartCycle;
        res.cpuStallCycles = cpuStallCycles;
        res.contextSwitches = contextSwitches;
        res.syscallSwitches = syscallSwitches;
        res.comp = sys.components();
        res.sys = sys.stats();
    }
    res.hostSeconds = loop_seconds;
    return res;
}

SimResult
runStandard(const SystemConfig &config, Count total_instructions,
            unsigned mp_level, Count warmup_instructions)
{
    Simulator sim(config,
                  Workload::standard(mp_level,
                                     warmup_instructions +
                                         total_instructions));
    return sim.run(total_instructions, warmup_instructions);
}

} // namespace gaas::core
