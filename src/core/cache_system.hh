/**
 * @file
 * The cycle-accounting two-level cache system: the reference
 * processor's memory side.
 *
 * CacheSystem is split at the L1 boundary.  Its front end -- the
 * MMU, the L1 I/D tag stores, their counters and the TLB and L1-write
 * CPI buckets -- is built from a FrontEndConfig alone.  Its BackEnd
 * holds everything below: the secondary cache (unified, logically
 * split, or physically split), the write buffer, main memory, their
 * counters and the other CPI buckets.  Together they charge stall
 * cycles according to the timing rules of Sections 2 and 6-9 of the
 * paper (see DESIGN.md section 4 for the contract).
 *
 * Each of ifetch/load/store takes the current cycle and returns the
 * stall cycles the access adds beyond the instruction's base cost;
 * stalls are simultaneously attributed to the Fig. 4 CPI buckets.
 * The front end reaches the back end through three calls only
 * (BackEndOp), each made at the access's current time and returning
 * the stall it adds, so every timing rule below the L1s lives in
 * BackEnd and nowhere else.
 *
 * Hot-core structure: the three access entry points are templates
 * over an AccessSpec that fixes the L1 geometry (direct-mapped or
 * set-associative) and the write policy at compile time, so the
 * specialized simulate loops carry no per-reference policy branches.
 * The L1 *hit* paths live here in the header and are pinned inline
 * into the simulate loop; every miss path is a non-inlined call
 * (misses are rare and their code would otherwise crowd the hit
 * path out of the host I-cache).  GenericAccessSpec instantiates
 * the exact same code with runtime config reads, so the generic and
 * specialized paths are bit-identical by construction.
 *
 * Accounting is a compile-time property of the spec too: WarmSpec
 * turns any spec into its functional-warming variant (sampled
 * simulation), which runs the same code with every stall, CPI-bucket
 * charge and event counter compiled out.  Warming therefore makes
 * exactly the state updates measuring makes.  RecordSpec likewise
 * turns any spec into a recording front end, which logs its back-end
 * calls instead of making them (grouped sampled runs,
 * core/sampling.hh).
 */

#ifndef GAAS_CORE_CACHE_SYSTEM_HH
#define GAAS_CORE_CACHE_SYSTEM_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "cache/tag_store.hh"
#include "core/config.hh"
#include "core/cpi.hh"
#include "mem/main_memory.hh"
#include "mem/write_buffer.hh"
#include "mmu/mmu.hh"
#include "util/logging.hh"

namespace gaas::core
{

/**
 * Access-path spec that resolves nothing at compile time: geometry
 * and write policy are read from the runtime config, exactly as the
 * pre-specialization simulator did.  The reference path for the
 * equivalence tests, and the fallback for mixed L1 geometries.
 */
struct GenericAccessSpec
{
    static constexpr bool specialized = false;
    /** Unused when !specialized; present so the template compiles. */
    static constexpr bool dmL1 = false;
    static constexpr WritePolicy policy = WritePolicy::WriteBack;
    /** Charge stalls, CPI buckets and event counters (see WarmSpec). */
    static constexpr bool measure = true;
    /** Log back-end calls instead of making them (see RecordSpec). */
    static constexpr bool record = false;
};

/**
 * Fully specialized access path: both L1s share one geometry class
 * (@p DmL1: direct-mapped, else set-associative) and the write
 * policy is @p Policy.  The policy switch and the way-loop choice
 * constant-fold away.
 */
template <bool DmL1, WritePolicy Policy>
struct FastAccessSpec
{
    static constexpr bool specialized = true;
    static constexpr bool dmL1 = DmL1;
    static constexpr WritePolicy policy = Policy;
    static constexpr bool measure = true;
    static constexpr bool record = false;
};

/**
 * The functional-warming variant of access spec @p Spec: the same
 * geometry and write policy with accounting compiled out.  Every
 * state update of the measured path happens, in the same order, but
 * no stall is computed and no CPI bucket or event counter is
 * charged.  Every stall therefore stays 0, so the write buffer, L2
 * and main memory see the bare base-cycle clock as their time.  The
 * few counters the state updates keep themselves (TLB, write-buffer
 * and memory statistics, L2 write allocates) are zeroed by the
 * resetStats() that starts every measurement.
 */
template <class Spec>
struct WarmSpec : Spec
{
    static constexpr bool measure = false;
};

/**
 * The recording variant of access spec @p Spec: the front end of a
 * grouped sampled run.  The front end runs as under @p Spec, but
 * each back-end call is appended to the CacheSystem's BackEndLog
 * with its time and returns a 0 stall, so the clock advances by the
 * front end's own cycles only -- the stall-free clock warming
 * already runs on.  Each configuration's BackEnd then replays the
 * log on its own clock (BackEnd::replay).
 */
template <class Spec>
struct RecordSpec : Spec
{
    static constexpr bool record = true;
};

/**
 * @p stall under a measuring spec, the constant 0 under a warming
 * one.  Applied wherever a stall crosses an out-of-line call, so a
 * warming caller or callee knows at compile time that its stall is
 * 0 and its time arguments are the bare warm clock.
 */
template <bool Measure>
constexpr Cycles
measured(Cycles stall)
{
    return Measure ? stall : 0;
}

/** @name Accounting under a spec's `measure` flag
 *  Both compile to nothing when warming, so a stall that only
 *  charge() adds to stays the 0 it started at (see measured()). */
///@{
/** Add @p cycles to the running @p stall and to CPI bucket
 *  @p bucket. */
template <bool Measure>
inline void
charge(Cycles &stall, Cycles &bucket, Cycles cycles)
{
    if constexpr (Measure) {
        stall += cycles;
        bucket += cycles;
    }
}

/** Count one event in @p counter. */
template <bool Measure>
inline void
tally(Count &counter)
{
    if constexpr (Measure)
        ++counter;
}
///@}

/** The calls the front end makes into the back end, and the marker
 *  a recording detailed loop adds (see BackEndLog). */
enum class BackEndOp : std::uint8_t
{
    InstMiss,    //!< BackEnd::instMiss
    DataMiss,    //!< BackEnd::dataMiss
    Write,       //!< BackEnd::write
    Instruction, //!< marker: one instruction ended
};

/** One logged back-end call, or an Instruction marker. */
struct BackEndCall
{
    /** Call: its front-end time.  Marker: the instruction's start. */
    Cycles at = 0;
    /** Call: the physical address.  Marker: the instruction's
     *  front-end cycles. */
    std::uint64_t arg = 0;
    BackEndOp op = BackEndOp::InstMiss;
    /** DataMiss: the L1-D line the refill replaces is dirty.
     *  Marker: the scheduler switched after the instruction. */
    bool flag = false;
    /** Marker: how many calls the instruction made (they precede
     *  it in the log). */
    std::uint16_t calls = 0;
};

/**
 * What a recording front end (RecordSpec) writes instead of calling
 * the back end: one window's back-end calls, in order.  A recording
 * detailed loop also appends an Instruction marker after every
 * instruction the scheduler switched after (a replay checks its own
 * time slice there) and, when watchdogFloor is set, after every
 * instruction that made a call or whose front-end cycles exceed
 * watchdogFloor (a replay checks its watchdog there).
 */
struct BackEndLog
{
    std::vector<BackEndCall> calls;

    /** Smallest watchdog budget a replay applies; 0 = none. */
    Cycles watchdogFloor = 0;
};

/**
 * The memory side below the L1s: the secondary cache, the write
 * buffer and main memory, their counters, and the CPI buckets they
 * charge (L1-I and L1-D miss, write buffer, L2-I and L2-D miss).
 * Reached only through the three calls below; each takes the time it
 * is made and returns the stall it adds.  Under Measure = false
 * (warming) every state update happens, but the stall is 0 and
 * nothing is counted beyond what the write buffer, memory and L2
 * write allocation count themselves.
 */
class BackEnd
{
  public:
    /** Builds from the L2, write-buffer, memory and concurrency
     *  fields of @p config (and the L1 fetch and line sizes the
     *  refills transfer); does not validate it. */
    explicit BackEnd(const SystemConfig &config);

    /**
     * An L1-I refill: wait for the write buffer to empty unless the
     * refill runs concurrently with the drain (Section 9), then the
     * L2-I access and, on an L2 miss, main memory.
     */
    template <bool Measure>
    Cycles instMiss(Cycles now, Addr paddr);

    /**
     * An L1-D refill: the load-bypass wait, then the L2-D access and
     * main memory.  @p victim_dirty says whether the L1-D line the
     * refill replaces is dirty, which the dirty-bit scheme reads.
     */
    template <bool Measure>
    Cycles dataMiss(Cycles now, Addr paddr, bool victim_dirty);

    /**
     * A write entering the write buffer -- a write-through store or
     * a write-back victim -- and its state effect on L2-D.
     */
    template <bool Measure>
    Cycles
    write(Cycles now, Addr paddr)
    {
        Cycles stall = 0;
        charge<Measure>(stall, comp.wbWait, wb.push(now, paddr));
        applyWriteToL2(paddr);
        return stall;
    }

    /** Make logged call @p c at its front-end time plus @p delay,
     *  the stalls this back end has returned before it.
     *  @return the stall (0 for a marker) */
    template <bool Measure>
    Cycles replay(const BackEndCall &c, Cycles delay);

    /** Data-side L2 tag-set software prefetch (see
     *  CacheSystem::prefetchL2Data). */
    void
    prefetchData(Addr addr) const
    {
        (l2u ? *l2u : *l2ds).prefetchSet(addr);
    }

    /** The L2, write-buffer and memory counters (every L1 and TLB
     *  field 0). */
    SysStats stats() const;

    /** The buckets this side charges (tlb and l1Writes 0). */
    const CpiComponents &components() const { return comp; }

    /** Zero every statistic, keeping all state. */
    void resetStats();

    /** @name Introspection for tests */
    ///@{
    const cache::TagStore &l2InstStore() const;
    const cache::TagStore &l2DataStore() const;
    const mem::WriteBuffer &writeBuffer() const { return wb; }
    const mem::MainMemory &mainMemory() const { return memory; }
    ///@}

  private:
    struct L2Result
    {
        Cycles access = 0; //!< L2 array access + transfer cycles
        Cycles memory = 0; //!< main-memory cycles on an L2 miss
    };

    cache::TagStore &l2Store(bool is_inst);
    template <bool Measure>
    L2Result l2Access(bool is_inst, Addr paddr, Cycles now,
                      unsigned fetch_words);
    Cycles extraTransferCycles(unsigned fetch_words) const;
    template <bool Measure>
    void dataMissWriteBufferWait(Addr paddr, Cycles now,
                                 bool victim_dirty, Cycles &stall);
    void applyWriteToL2(Addr paddr);

    SystemConfig cfg;
    std::optional<cache::TagStore> l2u;  //!< unified
    std::optional<cache::TagStore> l2is; //!< split, instruction side
    std::optional<cache::TagStore> l2ds; //!< split, data side
    mem::WriteBuffer wb;
    mem::MainMemory memory;

    SysStats st;
    CpiComponents comp;
};

/** The memory side of the machine; see file comment. */
class CacheSystem
{
  public:
    /** Validates @p config (throws FatalError if inconsistent). */
    explicit CacheSystem(const SystemConfig &config);

    /**
     * Fetch the instruction at @p vaddr for process @p pid.
     * @return stall cycles beyond the base instruction cost
     */
    Cycles
    ifetch(Cycles now, Pid pid, Addr vaddr)
    {
        return ifetchT<GenericAccessSpec>(now, pid, vaddr);
    }

    /** Execute a load; @return stall cycles. */
    Cycles
    load(Cycles now, Pid pid, Addr vaddr)
    {
        return loadT<GenericAccessSpec>(now, pid, vaddr);
    }

    /**
     * Execute a store.
     * @param partial_word the store writes less than a full word
     * @return stall cycles
     */
    Cycles
    store(Cycles now, Pid pid, Addr vaddr, bool partial_word)
    {
        return storeT<GenericAccessSpec>(now, pid, vaddr,
                                         partial_word);
    }

    /** @name Specialized access paths (see file comment)
     *  Always inlined, with the MMU translation and TLB probe below
     *  them, so the simulate loops run their hit paths without a
     *  call (Simulator::stepInstruction says why).
     */
    ///@{
    template <class Spec>
    [[gnu::always_inline]] Cycles ifetchT(Cycles now, Pid pid,
                                          Addr vaddr);

    template <class Spec>
    [[gnu::always_inline]] Cycles loadT(Cycles now, Pid pid,
                                        Addr vaddr);

    template <class Spec>
    [[gnu::always_inline]] Cycles storeT(Cycles now, Pid pid,
                                         Addr vaddr,
                                         bool partial_word);
    ///@}

    /** Data-side L2 tag-set software prefetch, for the batched
     *  simulate loop: worth fetching ahead under write-through
     *  policies, where every store probes L2 (BackEnd::write) and
     *  the L2 arrays are far too big for the host cache.  (The L1
     *  stores stay host-resident by themselves; prefetching them
     *  was measured a net loss.) */
    void prefetchL2Data(Addr vaddr) const { back.prefetchData(vaddr); }

    /** Where RecordSpec access paths log their back-end calls. */
    void recordInto(BackEndLog *log_) { log = log_; }

    /** Event counters (TLB/WB/memory stats are folded in). */
    SysStats stats() const;

    /** Stall cycles by CPI bucket. */
    CpiComponents components() const;

    /**
     * Zero every statistic while keeping all cache/TLB/write-buffer
     * state, so measurements can start from a warmed hierarchy (the
     * long-trace discipline of [BKW90] the paper follows).
     */
    void resetStats();

    /** The configuration the front end was built from. */
    const FrontEndConfig &config() const { return cfg; }

    /** @name Introspection for tests */
    ///@{
    const cache::TagStore &l1iStore() const { return l1i; }
    const cache::TagStore &l1dStore() const { return l1d; }
    const cache::TagStore &l2InstStore() const
    {
        return back.l2InstStore();
    }
    const cache::TagStore &l2DataStore() const
    {
        return back.l2DataStore();
    }
    const mem::WriteBuffer &writeBuffer() const
    {
        return back.writeBuffer();
    }
    const mem::MainMemory &mainMemory() const
    {
        return back.mainMemory();
    }
    const mmu::Mmu &mmu() const { return mmuUnit; }
    ///@}

  private:
    /** L1 probe under @p Spec: the way-loop choice constant-folds
     *  when the spec pins the geometry. */
    template <class Spec>
    static cache::TagStore::LineIndex
    l1Lookup(const cache::TagStore &store, Addr paddr)
    {
        if constexpr (Spec::specialized) {
            if constexpr (Spec::dmL1)
                return store.lookupDm(paddr);
            else
                return store.lookupAssoc(paddr);
        } else {
            return store.lookup(paddr);
        }
    }

    /** L1 LRU touch under @p Spec: touchIdx() is a no-op on a
     *  direct-mapped store (nothing reads the stamps), so the
     *  DM-pinned specs drop even its directMapped test. */
    template <class Spec>
    static void
    l1Touch(cache::TagStore &store, cache::TagStore::LineIndex idx)
    {
        if constexpr (Spec::specialized && Spec::dmL1)
            (void)store, (void)idx;
        else
            store.touchIdx(idx);
    }

    /** Back-end call @p Op at @p now: made, or -- recording -- logged
     *  with a 0 stall returned. */
    template <bool Measure, bool Record, BackEndOp Op>
    Cycles
    toBackEnd(Cycles now, Addr paddr, bool flag = false)
    {
        if constexpr (Record) {
            log->calls.push_back({now, paddr, Op, flag, 0});
            return 0;
        } else if constexpr (Op == BackEndOp::InstMiss) {
            return back.instMiss<Measure>(now, paddr);
        } else if constexpr (Op == BackEndOp::DataMiss) {
            return back.dataMiss<Measure>(now, paddr, flag);
        } else {
            static_assert(Op == BackEndOp::Write);
            return back.write<Measure>(now, paddr);
        }
    }

    /** @name Out-of-line miss paths
     *  Kept out of the inlined hit paths on purpose: misses are the
     *  rare case, and the compiler would otherwise inline hundreds
     *  of instructions of drain/refill logic into every simulate
     *  loop specialization.  Templates on the spec's `measure` (and,
     *  where they reach the back end, `record`) flags, instantiated
     *  for every combination in cache_system.cc.
     */
    ///@{
    template <bool Measure, bool Record>
    [[gnu::noinline]] Cycles ifetchMiss(Cycles now, Cycles stall,
                                        Addr paddr);
    template <bool Measure, bool Record>
    [[gnu::noinline]] Cycles
    loadMiss(Cycles now, Cycles stall, Addr paddr,
             cache::TagStore::LineIndex idx);
    template <bool Measure, bool Record>
    [[gnu::noinline]] Cycles storeMissWriteBack(Cycles now,
                                                Cycles stall,
                                                Addr paddr);
    template <bool Measure>
    [[gnu::noinline]] Cycles storeMissInvalidate(Cycles stall,
                                                 Addr paddr);
    template <bool Measure>
    [[gnu::noinline]] Cycles storeMissWriteOnly(Cycles stall,
                                                Addr paddr);
    template <bool Measure>
    [[gnu::noinline]] Cycles storeMissSubblock(Cycles stall,
                                               Addr paddr,
                                               bool partial_word);
    ///@}

    /** Whether the L1-D line a refill of @p paddr replaces is dirty:
     *  the bit the dirty-bit load bypass reads. */
    bool refillVictimDirty(Addr paddr);
    template <bool Measure, bool Record>
    cache::TagStore::LineIndex refillL1D(Addr paddr, Cycles now,
                                         Cycles &stall);

    FrontEndConfig cfg;
    mmu::Mmu mmuUnit;
    cache::TagStore l1i;
    cache::TagStore l1d;
    BackEnd back;
    BackEndLog *log = nullptr;

    SysStats st;        //!< the L1 counters
    CpiComponents comp; //!< the tlb and l1Writes buckets
};

// The hot paths.  Statistic increments, LRU touches, and write-buffer
// pushes happen in exactly the order of the original monolithic
// ifetch/load/store; the golden byte-identity harness depends on it.

template <class Spec>
inline Cycles
CacheSystem::ifetchT(Cycles now, Pid pid, Addr vaddr)
{
    constexpr bool M = Spec::measure;
    tally<M>(st.ifetches);
    const auto tr = mmuUnit.translateInst(pid, vaddr);

    Cycles stall = 0;
    if (tr.tlbMiss && cfg.mmu.tlbMissPenalty) [[unlikely]]
        charge<M>(stall, comp.tlb, cfg.mmu.tlbMissPenalty);

    const cache::TagStore::LineIndex idx =
        l1Lookup<Spec>(l1i, tr.paddr);
    if (idx != cache::TagStore::npos) [[likely]] {
        l1Touch<Spec>(l1i, idx);
        return stall;
    }
    return measured<M>(
        ifetchMiss<M, Spec::record>(now, stall, tr.paddr));
}

template <class Spec>
inline Cycles
CacheSystem::loadT(Cycles now, Pid pid, Addr vaddr)
{
    constexpr bool M = Spec::measure;
    tally<M>(st.loads);
    const auto tr = mmuUnit.translateData(pid, vaddr);

    Cycles stall = 0;
    if (tr.tlbMiss && cfg.mmu.tlbMissPenalty) [[unlikely]]
        charge<M>(stall, comp.tlb, cfg.mmu.tlbMissPenalty);

    WritePolicy wp;
    if constexpr (Spec::specialized)
        wp = Spec::policy;
    else
        wp = cfg.writePolicy;

    const cache::TagStore::LineIndex idx =
        l1Lookup<Spec>(l1d, tr.paddr);
    bool usable = idx != cache::TagStore::npos &&
                  !(l1d.stateAt(idx) & cache::TagStore::kWriteOnlyBit);
    if (wp == WritePolicy::SubblockPlacement && usable)
        usable = (l1d.maskAt(idx) & l1d.wordBit(tr.paddr)) != 0;

    if (usable) [[likely]] {
        l1Touch<Spec>(l1d, idx);
        return stall;
    }
    return measured<M>(
        loadMiss<M, Spec::record>(now, stall, tr.paddr, idx));
}

template <class Spec>
inline Cycles
CacheSystem::storeT(Cycles now, Pid pid, Addr vaddr,
                    bool partial_word)
{
    constexpr bool M = Spec::measure;
    tally<M>(st.stores);
    const auto tr = mmuUnit.translateData(pid, vaddr);

    Cycles stall = 0;
    if (tr.tlbMiss && cfg.mmu.tlbMissPenalty) [[unlikely]]
        charge<M>(stall, comp.tlb, cfg.mmu.tlbMissPenalty);

    WritePolicy wp;
    if constexpr (Spec::specialized)
        wp = Spec::policy;
    else
        wp = cfg.writePolicy;

    const cache::TagStore::LineIndex idx =
        l1Lookup<Spec>(l1d, tr.paddr);

    if (wp == WritePolicy::WriteBack) {
        if (idx != cache::TagStore::npos) [[likely]] {
            // Write hits take two cycles: the tag is checked before
            // the write commits (Section 2).
            charge<M>(stall, comp.l1Writes, 1);
            l1d.setDirtyAt(idx, true);
            l1Touch<Spec>(l1d, idx);
            return stall;
        }
        return measured<M>(storeMissWriteBack<M, Spec::record>(
            now, stall, tr.paddr));
    }

    // Write-through family: every write enters the write buffer and
    // is applied to L2 when it drains.
    stall += measured<M>(toBackEnd<M, Spec::record, BackEndOp::Write>(
        now + stall, tr.paddr));

    switch (wp) {
      case WritePolicy::WriteMissInvalidate:
        if (idx != cache::TagStore::npos) [[likely]] {
            // One-cycle hit: tag checked in parallel with the write.
            l1Touch<Spec>(l1d, idx);
            l1d.setDirtyAt(idx, true);
            return stall;
        }
        return measured<M>(storeMissInvalidate<M>(stall, tr.paddr));

      case WritePolicy::WriteOnly:
        if (idx != cache::TagStore::npos) [[likely]] {
            // Hits -- including hits on write-only lines -- complete
            // in one cycle.
            l1Touch<Spec>(l1d, idx);
            l1d.setDirtyAt(idx, true);
            return stall;
        }
        return measured<M>(storeMissWriteOnly<M>(stall, tr.paddr));

      case WritePolicy::SubblockPlacement:
        if (idx != cache::TagStore::npos) [[likely]] {
            l1Touch<Spec>(l1d, idx);
            l1d.setDirtyAt(idx, true);
            // Word writes validate their word; partial-word writes
            // leave the valid bits unchanged (Section 6).
            if (!partial_word)
                l1d.orMaskAt(idx, l1d.wordBit(tr.paddr));
            return stall;
        }
        return measured<M>(
            storeMissSubblock<M>(stall, tr.paddr, partial_word));

      case WritePolicy::WriteBack:
        break; // handled above
    }
    gaas_panic("unreachable write policy");
}

} // namespace gaas::core

#endif // GAAS_CORE_CACHE_SYSTEM_HH
