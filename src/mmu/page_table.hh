/**
 * @file
 * Virtual-to-physical page mapping with page colouring.
 *
 * The target architecture indexes its primary caches with untranslated
 * address bits and tags them physically; the operating system uses
 * page colouring (Taylor, Davies & Farmwald, ISCA 1990) so that the
 * low bits of the physical page number equal the low bits of the
 * virtual page number.  That keeps virtual and physical cache indices
 * consistent and lets tag lookup proceed in parallel with translation
 * (Section 2 of the paper).
 */

#ifndef GAAS_MMU_PAGE_TABLE_HH
#define GAAS_MMU_PAGE_TABLE_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "util/bitops.hh"
#include "util/random.hh"
#include "util/types.hh"

namespace gaas::mmu
{

/** log2 of the page size, shared by the TLB/page-table address
 *  dissection. */
inline constexpr unsigned kPageShift = floorLog2(kPageBytes);

/** Configuration of the page-mapping policy. */
struct PageTableConfig
{
    /** Number of page colours.  64 colours x 16KB pages cover a 1MB
     *  direct-mapped cache exactly. */
    unsigned colors = 64;

    /** If false, physical pages are assigned in a pseudo-random
     *  colour order instead (the ablation baseline). */
    bool coloring = true;

    /** Seed for the random placement mode. */
    std::uint64_t seed = 0xbeef;

    bool operator==(const PageTableConfig &) const = default;
};

/**
 * Demand-allocated forward page table for all processes.
 *
 * Physical frames are never reclaimed (the simulated runs touch far
 * less memory than a real machine has), so translation is stable for
 * the lifetime of a simulation, as the paper's page-coloured mapping
 * is.
 */
class PageTable
{
  public:
    explicit PageTable(const PageTableConfig &config);

    /**
     * Translate a (pid, virtual address) pair, allocating a frame on
     * first touch.
     *
     * Hot path: mappings are immutable once allocated (frames are
     * never reclaimed), so a small direct-mapped host-side memo
     * in front of the page map answers almost every lookup without
     * hashing.  The memo is pure host-side caching -- it can never
     * disagree with the map -- so simulated behaviour (frame
     * assignment, pagesAllocated) is bit-identical with or without
     * hits.
     *
     * @return the physical byte address
     */
    Addr
    translate(Pid pid, Addr vaddr)
    {
        const std::uint64_t vpn = vaddr >> kPageShift;
        const std::uint64_t key =
            (static_cast<std::uint64_t>(pid) << 48) | vpn;
        // Fibonacci hash: pids land in the high key bits, so a plain
        // low-bit slice would collide all processes' page 0.
        const std::size_t slot = static_cast<std::size_t>(
            (key * 0x9e3779b97f4a7c15ull) >> kMemoShift);
        const MemoEntry &m = memo[slot];
        if (m.taggedKey == key + 1) [[likely]] {
            return (m.pfn << kPageShift) |
                   (vaddr & (kPageBytes - 1));
        }
        return translateSlow(pid, vaddr);
    }

    /** Number of pages allocated so far. */
    std::uint64_t pagesAllocated() const { return allocated; }

    /** Total physical footprint in bytes. */
    std::uint64_t footprintBytes() const
    {
        return allocated * kPageBytes;
    }

    const PageTableConfig &config() const { return cfg; }

  private:
    /** One memo slot; taggedKey is key + 1 so 0 means empty. */
    struct MemoEntry
    {
        std::uint64_t taggedKey = 0;
        std::uint64_t pfn = 0;
    };

    /** Memo size: 4096 slots (64 KB) covers the working sets the
     *  synthetic workloads touch with a >99% hit rate. */
    static constexpr unsigned kMemoBits = 12;
    static constexpr unsigned kMemoShift = 64 - kMemoBits;
    static constexpr std::size_t kMemoSlots = std::size_t{1}
                                              << kMemoBits;

    std::uint64_t frameFor(Pid pid, std::uint64_t vpn);

    /** Map lookup/allocation + memo refill (the memo-miss path). */
    Addr translateSlow(Pid pid, Addr vaddr);

    PageTableConfig cfg;
    Rng rng;
    /** Key: pid in the top bits, vpn below; value: pfn. */
    std::unordered_map<std::uint64_t, std::uint64_t> map;
    /** Next frame group per colour (pfn = group * colors + color). */
    std::vector<std::uint64_t> nextGroup;
    std::uint64_t allocated = 0;
    std::vector<MemoEntry> memo{kMemoSlots};
};

} // namespace gaas::mmu

#endif // GAAS_MMU_PAGE_TABLE_HH
