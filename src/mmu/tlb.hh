/**
 * @file
 * Translation-lookaside buffer model.
 *
 * The MMU chip holds a 2-way set-associative 32-entry instruction TLB
 * and a 2-way set-associative 64-entry data TLB (Section 2).  Entries
 * are tagged with the 8-bit PID so nothing is flushed on a context
 * switch (Section 3).
 */

#ifndef GAAS_MMU_TLB_HH
#define GAAS_MMU_TLB_HH

#include <cstdint>
#include <vector>

#include "util/types.hh"

namespace gaas::obs
{
class Registry;
} // namespace gaas::obs

namespace gaas::mmu
{

/** Geometry of one TLB. */
struct TlbConfig
{
    unsigned entries = 32;
    unsigned assoc = 2;

    bool operator==(const TlbConfig &) const = default;
};

/** Hit/miss counters of one TLB. */
struct TlbStats
{
    Count accesses = 0;
    Count misses = 0;

    double
    missRatio() const
    {
        return accesses ? static_cast<double>(misses) /
                              static_cast<double>(accesses)
                        : 0.0;
    }

    /**
     * Register accesses/misses/miss_ratio under @p prefix (e.g.
     * "itlb"), described as @p label (e.g. "ITLB").
     */
    void registerInto(obs::Registry &r, const char *prefix,
                      const char *label) const;
};

/** A PID-tagged set-associative TLB with LRU replacement. */
class Tlb
{
  public:
    explicit Tlb(const TlbConfig &config);

    /**
     * Probe for (pid, vpn); refills the entry's tag on a miss.
     *
     * Entries cache the physical frame number, as the real MMU chip
     * does, so a hit serves the whole translation without touching
     * the page table.  On a miss the victim's tag/LRU are updated
     * here and the caller supplies the frame via fillPfn() once the
     * page table has answered (frames are never reclaimed, so a
     * cached pfn can never go stale).
     *
     * Invalid entries carry the kInvalidTag sentinel (a value no
     * real (pid, vpn) pair can produce: tag bit 63 is always clear),
     * so the hit test is a single tag compare with no valid-bit
     * load, and both TLBs of the study being 2-way gets a fully
     * unrolled probe that skips victim bookkeeping on hits.
     *
     * Always inlined, like Mmu::translate and the CacheSystem access
     * paths that call it: this runs once per simulated reference.
     * Being defined in the header is not enough to put it in the
     * simulate loops' body; GCC 12 at -O3 runs out of inlining
     * budget for simulator.cc's 36 loops and calls whichever level
     * of the chain is left unpinned out of line (DESIGN §6).
     *
     * @param pfn filled with the cached frame number on a hit
     * @retval true the translation was present
     */
    [[gnu::always_inline]] bool
    access(Pid pid, std::uint64_t vpn, std::uint64_t &pfn)
    {
        ++tlbStats.accesses;
        const std::uint64_t tag =
            (static_cast<std::uint64_t>(pid) << 52) | vpn;

        // Last-translation memo: when the tag repeats back to back
        // (sequential code in one page, runs of stack traffic), the
        // entry is necessarily still resident -- any intervening
        // access would have overwritten the memo -- and already MRU
        // in its set, so skipping the probe and the LRU re-stamp
        // leaves every within-set recency ordering, and therefore
        // every future victim choice, exactly as the full probe
        // would (only the clock's absolute values differ, and
        // nothing observes those).
        if (tag == lastTag) [[likely]] {
            pfn = lastPfn;
            return true;
        }

        const unsigned set =
            static_cast<unsigned>(vpn & (sets - 1));
        Entry *base =
            &entries[static_cast<std::size_t>(set) * cfg.assoc];

        if (cfg.assoc == 2) [[likely]] {
            Entry &e0 = base[0];
            Entry &e1 = base[1];
            if (e0.tag == tag) {
                e0.lru = ++lruClock;
                lastTag = tag;
                lastPfn = e0.pfn;
                pfn = e0.pfn;
                return true;
            }
            if (e1.tag == tag) {
                e1.lru = ++lruClock;
                lastTag = tag;
                lastPfn = e1.pfn;
                pfn = e1.pfn;
                return true;
            }
            // Victim choice identical to the generic loop below:
            // first invalid way, else least recently used (ties to
            // way 0).
            Entry *victim;
            if (e0.tag == kInvalidTag)
                victim = &e0;
            else if (e1.tag == kInvalidTag)
                victim = &e1;
            else
                victim = e1.lru < e0.lru ? &e1 : &e0;
            return missFill(*victim, tag);
        }

        Entry *victim = base;
        for (unsigned way = 0; way < cfg.assoc; ++way) {
            Entry &e = base[way];
            if (e.tag == tag) {
                e.lru = ++lruClock;
                lastTag = tag;
                lastPfn = e.pfn;
                pfn = e.pfn;
                return true;
            }
            if (victim->tag == kInvalidTag)
                continue;
            if (e.tag == kInvalidTag || e.lru < victim->lru)
                victim = &e;
        }
        return missFill(*victim, tag);
    }

    /** Backfill the frame number into the entry the last missing
     *  access() refilled; the completed translation becomes the
     *  last-translation memo. */
    void
    fillPfn(std::uint64_t pfn)
    {
        lastFill->pfn = pfn;
        lastTag = lastFill->tag;
        lastPfn = pfn;
    }

    /** Probe without reading the frame (tests, ablations). */
    bool
    access(Pid pid, std::uint64_t vpn)
    {
        std::uint64_t pfn;
        return access(pid, vpn, pfn);
    }

    /** Drop every entry (not used on context switches -- PIDs make
     *  that unnecessary -- but exposed for ablations and tests). */
    void flush();

    const TlbStats &stats() const { return tlbStats; }
    const TlbConfig &config() const { return cfg; }

    /** Zero the statistics (keeps entries; ends a warmup phase). */
    void resetStats() { tlbStats = TlbStats{}; }

  private:
    /**
     * Tag stored in invalid entries.  Real tags are
     * (pid << 52) | vpn with an 8-bit PID and a vpn below 2^52
     * (a 64-bit vaddr shifted right by the page bits), so bit 63 of
     * a real tag is always clear and the all-ones word is
     * unreachable.
     */
    static constexpr std::uint64_t kInvalidTag = ~std::uint64_t{0};

    struct Entry
    {
        std::uint64_t tag = kInvalidTag; //!< (pid << 52) | vpn
        std::uint64_t lru = 0;
        std::uint64_t pfn = 0; //!< cached physical frame number
    };

    /** Shared miss tail: claim @p victim for @p tag.  The memo is
     *  dropped -- the fill may have displaced the memo'd entry, and
     *  the new entry's frame is unknown until fillPfn(). */
    bool
    missFill(Entry &victim, std::uint64_t tag)
    {
        ++tlbStats.misses;
        victim.tag = tag;
        victim.lru = ++lruClock;
        lastFill = &victim;
        lastTag = kInvalidTag;
        return false;
    }

    TlbConfig cfg;
    unsigned sets;
    std::vector<Entry> entries; //!< sets * assoc, set-major
    std::uint64_t lruClock = 0;
    Entry *lastFill = nullptr; //!< victim of the last missing access

    /** @name Last-translation memo (see access()) */
    ///@{
    std::uint64_t lastTag = kInvalidTag;
    std::uint64_t lastPfn = 0;
    ///@}

    TlbStats tlbStats;
};

} // namespace gaas::mmu

#endif // GAAS_MMU_TLB_HH
