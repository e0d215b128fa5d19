/**
 * @file
 * Tag/state array of one cache.
 *
 * TagStore holds per-line state -- tag, valid, dirty, the write-only
 * mark of the paper's new write policy, and the per-word valid mask
 * of subblock placement -- and implements lookup, LRU victim
 * selection, and replacement.  It knows nothing about timing; the
 * core::CacheSystem charges cycles.
 *
 * Layout: struct-of-arrays.  One simulated reference probes exactly
 * one set, so the hot data is what a probe touches: the packed tag
 * words of the set.  They live in their own 64-byte-aligned array
 * (a whole set's tags share one host cache line for every geometry
 * the study uses), with the valid/dirty/writeOnly state byte, the
 * subblock valid mask and the LRU stamp in separate parallel arrays
 * that only the rarer state-changing operations touch.  Invalid
 * lines hold the reserved tag word kInvalidTag, so the way-compare
 * loop is a single integer compare per way -- no state byte load on
 * the hit path -- and vectorizes cleanly.
 */

#ifndef GAAS_CACHE_TAG_STORE_HH
#define GAAS_CACHE_TAG_STORE_HH

#include <cstdint>
#include <vector>

#include "cache/config.hh"
#include "util/aligned.hh"
#include "util/types.hh"

namespace gaas::cache
{

/** Result of a replacement: what was evicted, if anything. */
struct Eviction
{
    bool valid = false;    //!< a valid line was displaced
    bool dirty = false;    //!< ... and it was dirty
    Addr lineAddr = 0;     //!< its byte address
};

/** The tag/state array; see file comment. */
class TagStore
{
  public:
    /** Index of one line in the struct-of-arrays storage
     *  (set * assoc + way). */
    using LineIndex = std::uint64_t;

    /** lookup() result for a tag miss. */
    static constexpr LineIndex npos = ~LineIndex{0};

    /** @name Bits of the per-line state byte */
    ///@{
    static constexpr std::uint8_t kValidBit = 1u << 0;
    static constexpr std::uint8_t kDirtyBit = 1u << 1;
    /** The write-only mark of the paper's new policy (Section 6):
     *  reads that map to a write-only line miss. */
    static constexpr std::uint8_t kWriteOnlyBit = 1u << 2;
    ///@}

    /** @param config validated geometry
     *  @param what   name used in diagnostics ("L1-I", ...) */
    TagStore(const CacheConfig &config, const char *what);

    /** @name Address dissection */
    ///@{
    Addr lineAddr(Addr addr) const { return addr & ~lineMask; }

    std::uint64_t
    setIndex(Addr addr) const
    {
        return (addr >> lineShift) & indexMask;
    }

    std::uint64_t
    tagOf(Addr addr) const
    {
        return addr >> (lineShift + indexBits);
    }

    unsigned
    wordInLine(Addr addr) const
    {
        return static_cast<unsigned>((addr >> kWordShift) &
                                     (cfg.lineWords - 1));
    }
    ///@}

    /** Bit in the subblock valid mask covering @p addr's word. */
    std::uint32_t
    wordBit(Addr addr) const
    {
        return std::uint32_t{1} << wordInLine(addr);
    }

    /** Mask with one bit per word of a (fully valid) line. */
    std::uint32_t fullMask() const { return fullValidMask; }

    /**
     * @name Line-index API
     * Every caller works on raw line indices: probe with lookup()
     * (or the geometry-specific lookupDm/lookupAssoc), pick or
     * replace a line with victimIdx()/allocateIdx(), then read and
     * change its state through the *At accessors.  A hit is any
     * valid line with a matching tag, regardless of the write-only
     * mark or the subblock mask -- the policy layer decides whether
     * that counts as usable.
     */
    ///@{

    /** Direct-mapped probe: the caller promises assoc == 1. */
    LineIndex
    lookupDm(Addr addr) const
    {
        const LineIndex idx = setIndex(addr);
        return tagArr[idx] == tagOf(addr) ? idx : npos;
    }

    /** Set-associative probe (any assoc; way loop vectorizes). */
    LineIndex
    lookupAssoc(Addr addr) const
    {
        const std::uint64_t tag = tagOf(addr);
        const LineIndex base = setIndex(addr) * assocWays;
        for (unsigned way = 0; way < assocWays; ++way) {
            if (tagArr[base + way] == tag)
                return base + way;
        }
        return npos;
    }

    /** Generic probe: branches on the geometry at runtime. */
    LineIndex
    lookup(Addr addr) const
    {
        return directMapped ? lookupDm(addr) : lookupAssoc(addr);
    }

    /** Mark line @p idx most recently used.  A direct-mapped store
     *  skips the stamp entirely: victim selection never consults
     *  LRU when there is only one way, so the clock is pure dead
     *  work there (and this is the hot path's most-executed
     *  write). */
    void
    touchIdx(LineIndex idx)
    {
        if (!directMapped)
            lruArr[idx] = ++lruClock;
    }

    /**
     * The line that allocate() would displace for @p addr (invalid
     * way if any, else LRU).  Used by the dirty-bit load-bypass
     * scheme, which must inspect the victim before fetching.
     */
    LineIndex
    victimIdx(Addr addr)
    {
        const LineIndex base = setIndex(addr) * assocWays;
        if (directMapped)
            return base;
        LineIndex victim = base;
        for (unsigned way = 0; way < assocWays; ++way) {
            const LineIndex idx = base + way;
            if (!(stateArr[idx] & kValidBit))
                return idx;
            if (lruArr[idx] < lruArr[victim])
                victim = idx;
        }
        return victim;
    }

    /**
     * Replace the victim with a line for @p addr.
     *
     * The new line is valid, clean, not write-only, fully valid, and
     * most recently used; callers adjust state for their policy.
     *
     * @param addr     address being allocated
     * @param evicted  filled with what was displaced
     * @return the new line's index
     */
    LineIndex allocateIdx(Addr addr, Eviction &evicted);

    /** Prefetch the tag words (and state bytes) of @p addr's set
     *  into the host cache; used by the batched simulate loop. */
    void
    prefetchSet(Addr addr) const
    {
        const LineIndex base = setIndex(addr) * assocWays;
        __builtin_prefetch(&tagArr[base]);
        __builtin_prefetch(&stateArr[base]);
    }
    ///@}

    /** @name Per-index state accessors */
    ///@{
    std::uint8_t stateAt(LineIndex idx) const { return stateArr[idx]; }
    std::uint64_t tagAt(LineIndex idx) const { return tagArr[idx]; }
    std::uint32_t maskAt(LineIndex idx) const { return maskArr[idx]; }

    void
    setDirtyAt(LineIndex idx, bool d)
    {
        if (d)
            stateArr[idx] |= kDirtyBit;
        else
            stateArr[idx] &= static_cast<std::uint8_t>(~kDirtyBit);
    }

    void
    setWriteOnlyAt(LineIndex idx, bool w)
    {
        if (w)
            stateArr[idx] |= kWriteOnlyBit;
        else
            stateArr[idx] &=
                static_cast<std::uint8_t>(~kWriteOnlyBit);
    }

    void setMaskAt(LineIndex idx, std::uint32_t m) { maskArr[idx] = m; }
    void orMaskAt(LineIndex idx, std::uint32_t m) { maskArr[idx] |= m; }

    void
    invalidateAt(LineIndex idx)
    {
        stateArr[idx] = 0;
        tagArr[idx] = kInvalidTag;
    }
    ///@}

    /** Invalidate every line. */
    void invalidateAll();

    /** Number of valid lines (test/diagnostic helper). */
    std::uint64_t validCount() const;

    /** Number of valid dirty lines (test/diagnostic helper). */
    std::uint64_t dirtyCount() const;

    const CacheConfig &config() const { return cfg; }

  private:
    /**
     * Tag word stored for invalid lines.  tagOf() of a real address
     * can only produce this value for addresses within a line of
     * 2^64, far above the 40-bit PID-prefixed virtual and
     * demand-allocated physical spaces the simulator generates;
     * allocateIdx() rejects it defensively.
     */
    static constexpr std::uint64_t kInvalidTag = ~std::uint64_t{0};

    CacheConfig cfg;
    Addr lineMask;
    std::uint64_t indexMask;
    unsigned lineShift;
    unsigned indexBits;
    unsigned assocWays;
    /** assoc == 1: lookup()/victimIdx() skip the way loop entirely
     *  (the paper's most-simulated organisation). */
    bool directMapped;
    std::uint32_t fullValidMask;

    /** @name Struct-of-arrays line state, set-major (sets * assoc) */
    ///@{
    /** Packed tag words, 64-byte aligned; kInvalidTag when invalid. */
    std::vector<std::uint64_t, util::AlignedAllocator<std::uint64_t>>
        tagArr;
    /** kValidBit | kDirtyBit | kWriteOnlyBit per line. */
    std::vector<std::uint8_t> stateArr;
    /** Per-word valid bits for subblock placement; bit i covers word
     *  i of the line.  Fully-valid lines have all line-word bits
     *  set. */
    std::vector<std::uint32_t> maskArr;
    /** LRU stamps (line has been used at stamp N of lruClock). */
    std::vector<std::uint64_t> lruArr;
    ///@}

    std::uint64_t lruClock = 0;
};

} // namespace gaas::cache

#endif // GAAS_CACHE_TAG_STORE_HH
