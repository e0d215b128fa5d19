/**
 * @file
 * CPI accounting: the Fig. 4 loss breakdown and the SimResult every
 * simulation run returns.
 *
 * CPI = 1 + cpu_stall_cycles/instructions
 *         + memory_stall_cycles/instructions     (Section 3)
 *
 * Memory stall cycles are attributed to the buckets the paper's
 * Fig. 4 histogram uses: L1-I miss, L1-D miss, L1 writes, write
 * buffer, L2-I miss, L2-D miss (plus a TLB bucket, zero under the
 * paper's accounting).
 */

#ifndef GAAS_CORE_CPI_HH
#define GAAS_CORE_CPI_HH

#include <string>

#include "mem/main_memory.hh"
#include "mem/write_buffer.hh"
#include "mmu/tlb.hh"
#include "util/types.hh"

namespace gaas::obs
{
class Registry;
} // namespace gaas::obs

namespace gaas::core
{

/** Memory stall cycles by loss source (the Fig. 4 buckets). */
struct CpiComponents
{
    Cycles l1iMiss = 0;  //!< L1-I misses: cycles accessing L2-I
    Cycles l1dMiss = 0;  //!< L1-D misses: cycles accessing L2-D
    Cycles l1Writes = 0; //!< extra write-hit/miss cycles in L1-D
    Cycles wbWait = 0;   //!< waiting on the write buffer
    Cycles l2iMiss = 0;  //!< L2-I misses: memory cycles (I side)
    Cycles l2dMiss = 0;  //!< L2-D misses: memory cycles (D side)
    Cycles tlb = 0;      //!< TLB miss penalty (0 by default)

    Cycles
    total() const
    {
        return l1iMiss + l1dMiss + l1Writes + wbWait + l2iMiss +
               l2dMiss + tlb;
    }

    /** Register the per-loss-source cycle buckets as `cpi.*`. */
    void registerInto(obs::Registry &r) const;
};

/** Event counters the cache system gathers. */
struct SysStats
{
    /** @name L1 */
    ///@{
    Count ifetches = 0;
    Count l1iMisses = 0;
    Count loads = 0;
    Count l1dReadMisses = 0;
    Count stores = 0;
    Count l1dWriteMisses = 0;
    Count writeOnlyReadMisses = 0; //!< reads that hit a write-only tag
    ///@}

    /** @name L2 (per requester side; unified sums both) */
    ///@{
    Count l2iAccesses = 0;
    Count l2iMisses = 0;
    Count l2dAccesses = 0;
    Count l2dMisses = 0;
    Count l2DirtyMisses = 0; //!< misses that evicted a dirty L2 line
    /** Write-buffer drains that allocated a fresh L2 line. */
    Count l2WriteAllocates = 0;
    ///@}

    mem::WriteBufferStats wb{};
    mem::MainMemoryStats memory{};
    mmu::TlbStats itlb{};
    mmu::TlbStats dtlb{};

    /** @name Derived ratios */
    ///@{
    double l1iMissRatio() const;
    /** L1-D read misses per load. */
    double l1dReadMissRatio() const;
    /** L1-D write misses per store. */
    double l1dWriteMissRatio() const;
    /** Combined L2 local miss ratio (misses / accesses). */
    double l2MissRatio() const;
    double l2iMissRatio() const;
    double l2dMissRatio() const;
    ///@}

    /** Register every counter and ratio (`l1i.*`, `l1d.*`, `l2*.*`,
     *  then the folded-in WB/memory/TLB statistics). */
    void registerInto(obs::Registry &r) const;
};

/**
 * Summary of a sampled (SMARTS-style) run, carried in SimResult.
 * All-zero when the run simulated every reference at full detail.
 */
struct SamplingInfo
{
    /** Controller passes run (0 = not a sampled run). */
    Count passes = 0;

    /** Measurement intervals in the final pass.  0 with passes > 0
     *  means the budget was too small for the interval schedule and
     *  the controller fell back to a full-detail run. */
    Count intervals = 0;

    /** @name Instruction disposition of the final pass */
    ///@{
    Count measuredInstructions = 0;
    Count warmedInstructions = 0;
    Count skippedInstructions = 0;
    ///@}

    /** Mean of the per-interval CPIs (the point estimate). */
    double cpiMean = 0.0;

    /** Standard error of cpiMean, from the unbiased sample
     *  variance of the interval CPIs. */
    double cpiStdError = 0.0;

    /** Half-width of the confidence interval:
     *  t(confidence, n-1) * cpiStdError. */
    double cpiHalfWidth = 0.0;

    /** Confidence level of the interval (0.95), 0 when unsampled. */
    double confidence = 0.0;

    bool enabled() const { return passes > 0; }
};

/** Everything a simulation run produces. */
struct SimResult
{
    std::string configName;
    Count instructions = 0;
    Cycles cycles = 0;
    Cycles cpuStallCycles = 0; //!< load/branch/FP stalls (base CPI)
    Count contextSwitches = 0;
    Count syscallSwitches = 0;

    /**
     * Host wall-clock seconds spent inside Simulator::run (warmup
     * included).  Timing only: like hostStatsSeconds this is NOT
     * deterministic, so equality comparisons (the sweep-engine
     * determinism tests) must exclude it; neither appears in any
     * stats dump.
     */
    double hostSeconds = 0.0;

    /** Host seconds Simulator::run spent assembling this result
     *  after the simulation loop ended (non-deterministic). */
    double hostStatsSeconds = 0.0;

    CpiComponents comp{};
    SysStats sys{};
    SamplingInfo sampling{};

    /** Total simulated references (ifetches + loads + stores). */
    Count references() const;

    /** Total cycles per instruction. */
    double cpi() const;

    /** The CPU-only floor (1 + cpu stalls); the paper's 1.238. */
    double baseCpi() const;

    /** Memory-system contribution to CPI (sum of the buckets). */
    double memCpi() const;

    /** One bucket as CPI. */
    double perInstruction(Cycles bucket_cycles) const;

    /** Multi-line breakdown in the style of Fig. 4. */
    std::string formatBreakdown() const;
};

} // namespace gaas::core

#endif // GAAS_CORE_CPI_HH
