/**
 * @file
 * SystemConfig: every knob of the paper's design space, plus the
 * preset ladder its evaluation walks (base architecture -> Fig. 11
 * optimized architecture).
 */

#ifndef GAAS_CORE_CONFIG_HH
#define GAAS_CORE_CONFIG_HH

#include <string>

#include "cache/config.hh"
#include "core/write_policy.hh"
#include "mem/main_memory.hh"
#include "mem/write_buffer.hh"
#include "mmu/mmu.hh"
#include "util/types.hh"

namespace gaas::core
{

/** How the secondary cache is organised (Section 7). */
enum class L2Org : std::uint8_t {
    /** One cache shared by instructions and data (base arch). */
    Unified,
    /** One physical array logically partitioned I/D by the high
     *  index bit: two half-size caches with the same access time. */
    LogicalSplit,
    /** Physically separate L2-I and L2-D with independent sizes and
     *  access times (the optimized architecture: 32KW 2-cycle L2-I
     *  on the MCM, 256KW 6-cycle L2-D off it). */
    PhysicalSplit,
};

/** @return display name for @p org. */
const char *l2OrgName(L2Org org);

/** How loads interact with pending stores in the write buffer
 *  (Section 9). */
enum class LoadBypass : std::uint8_t {
    /** Any L1 miss waits for the write buffer to empty (base). */
    None,
    /** All entries are associatively matched against the missed
     *  line; only a match (and entries ahead of it) must drain. */
    Associative,
    /** The paper's cheap scheme: an extra dirty bit on L1-D lines;
     *  only misses that replace a dirty line wait (valid with the
     *  write-only policy, which allocates a line for every write). */
    DirtyBit,
};

/** @return display name for @p bypass. */
const char *loadBypassName(LoadBypass bypass);

/** One side (or the whole) of the secondary cache. */
struct L2SideConfig
{
    cache::CacheConfig cache{256 * 1024, 1, 32, 32};

    /** Cycles to deliver a 4W refill to L1 (includes the 2-cycle
     *  latency for tag check + chip crossing). */
    Cycles accessTime = 6;
};

/**
 * Every field the front end reads: the MMU and the two L1s of
 * CacheSystem, and the scheduler above them.  The front end is built
 * from this struct alone, so nothing below the L1s can steer it.
 * Under the sampled schedule, configurations with equal front ends
 * (and equal workload, budget and plan) see the same reference
 * interleaving, which is what lets a sweep run them as one group
 * (core/sampling.hh, runSampledGroup).
 */
struct FrontEndConfig
{
    cache::CacheConfig l1i;
    cache::CacheConfig l1d;
    WritePolicy writePolicy = WritePolicy::WriteBack;
    mmu::MmuConfig mmu;
    Cycles timeSliceCycles = 0;

    bool operator==(const FrontEndConfig &) const = default;
};

/** The full two-level system configuration. */
struct SystemConfig
{
    std::string name = "unnamed";

    /** @name Primary caches */
    ///@{
    cache::CacheConfig l1i{4 * 1024, 1, 4, 4};
    cache::CacheConfig l1d{4 * 1024, 1, 4, 4};
    WritePolicy writePolicy = WritePolicy::WriteBack;
    ///@}

    /** @name Secondary cache */
    ///@{
    L2Org l2Org = L2Org::Unified;
    /** Unified / LogicalSplit: the single array (logical split
     *  halves it).  PhysicalSplit: ignored. */
    L2SideConfig l2{};
    /** PhysicalSplit only. */
    L2SideConfig l2i{};
    L2SideConfig l2d{};
    /** Transfer rate for refill words beyond the first 4W. */
    unsigned transferWordsPerCycle = 4;
    ///@}

    /** @name Write buffer
     *  Depth/width defaults follow the policy: 4 x 4W for
     *  write-back, 8 x 1W for write-through (Section 6); call
     *  applyPolicyDefaults() after changing writePolicy. */
    ///@{
    unsigned wbDepth = 4;
    unsigned wbEntryWords = 4;
    Cycles wbStreamOverlap = 2;
    ///@}

    /** @name Memory-system concurrency (Section 9) */
    ///@{
    /** Refill L1-I from L2-I while the write buffer drains into
     *  L2-D (requires a split L2). */
    bool concurrentIRefill = false;
    LoadBypass loadBypass = LoadBypass::None;
    /** Single 32W dirty (victim) buffer behind L2-D. */
    bool l2DirtyBuffer = false;
    ///@}

    mem::MainMemoryConfig memory{};
    mmu::MmuConfig mmu{};

    /** Round-robin scheduling quantum (Section 3's 500k cycles). */
    Cycles timeSliceCycles = 500'000;

    /** Set wbDepth/wbEntryWords to the policy's default shape. */
    void applyPolicyDefaults();

    /** The fields the front end reads (see FrontEndConfig). */
    FrontEndConfig frontEnd() const;

    /** @return the L2 side used for instruction refills. */
    const L2SideConfig &l2InstSide() const;

    /** @return the L2 side used for data refills and WB drains. */
    const L2SideConfig &l2DataSide() const;

    /** @return true if I and D occupy separate (logical or physical)
     *  L2 partitions. */
    bool
    l2IsSplit() const
    {
        return l2Org != L2Org::Unified;
    }

    /** Throws FatalError on an inconsistent configuration. */
    void validate() const;

    /** Multi-line human-readable description. */
    std::string describe() const;
};

/** @name The paper's preset ladder
 *  Each step applies one optimisation of the evaluation narrative on
 *  top of the previous step, ending at the Fig. 11 architecture.
 */
///@{

/** Section 2's base architecture. */
SystemConfig baseline();

/** @p base with the write policy swapped (reshapes the write
 *  buffer per Section 6). */
SystemConfig withWritePolicy(SystemConfig base, WritePolicy policy);

/** Base + the write-only policy (the Section 6 outcome). */
SystemConfig afterWritePolicy();

/** + physically split L2: 32KW 2-cycle L2-I on the MCM, 256KW
 *  6-cycle L2-D off it (the Section 7 outcome; Fig. 9 column 2). */
SystemConfig afterSplitL2();

/** + 8W line/fetch in both primary caches (the Section 8 outcome;
 *  Fig. 9 column 3). */
SystemConfig afterFetchSize();

/** + concurrent L1-I refill (Fig. 10 column 2). */
SystemConfig afterConcurrentIRefill();

/** + loads pass stores via the dirty-bit scheme (Fig. 10 col. 3). */
SystemConfig afterLoadBypass();

/** + L2-D dirty buffer: the Fig. 11 optimized architecture. */
SystemConfig optimized();

/** The Fig. 9 "exchanged" check: L2-I and L2-D sizes/speeds
 *  swapped (shows L2-I belongs on the MCM). */
SystemConfig splitL2Exchanged();

///@}

} // namespace gaas::core

#endif // GAAS_CORE_CONFIG_HH
