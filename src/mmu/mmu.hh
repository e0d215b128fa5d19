/**
 * @file
 * MMU facade: PID-prefixed virtual addressing, split I/D TLBs, and the
 * page-coloured page table, bundled behind the two calls the cache
 * system makes.
 */

#ifndef GAAS_MMU_MMU_HH
#define GAAS_MMU_MMU_HH

#include "mmu/page_table.hh"
#include "mmu/tlb.hh"

namespace gaas::mmu
{

/** Configuration of the whole MMU chip model. */
struct MmuConfig
{
    TlbConfig itlb{32, 2};  //!< Section 2: 2-way, 32 entries
    TlbConfig dtlb{64, 2};  //!< Section 2: 2-way, 64 entries
    PageTableConfig pageTable{};

    /** Extra cycles a TLB miss costs.  The paper folds translation
     *  into the base machine's cycle accounting, so the default is
     *  zero; ablations raise it. */
    Cycles tlbMissPenalty = 0;

    bool operator==(const MmuConfig &) const = default;
};

/** Result of one translation. */
struct TranslateResult
{
    Addr paddr = 0;
    bool tlbMiss = false;
};

/** The MMU chip model; see file comment. */
class Mmu
{
  public:
    explicit Mmu(const MmuConfig &config);

    /** Translate an instruction-fetch address for process @p pid. */
    TranslateResult
    translateInst(Pid pid, Addr vaddr)
    {
        return translate(itlb, pid, vaddr);
    }

    /** Translate a data address for process @p pid. */
    TranslateResult
    translateData(Pid pid, Addr vaddr)
    {
        return translate(dtlb, pid, vaddr);
    }

    const TlbStats &itlbStats() const { return itlb.stats(); }
    const TlbStats &dtlbStats() const { return dtlb.stats(); }

    /** Zero the TLB statistics (ends a warmup phase). */
    void
    resetStats()
    {
        itlb.resetStats();
        dtlb.resetStats();
    }
    const PageTable &pageTable() const { return table; }
    const MmuConfig &config() const { return cfg; }

  private:
    /** One reference's translation work: TLB probe + page table.
     *  A TLB hit serves the translation from the entry's cached
     *  frame number; only misses consult the page table (and
     *  backfill the refilled entry).  Inline for the same reason
     *  Tlb::access is. */
    TranslateResult
    translate(Tlb &tlb, Pid pid, Addr vaddr)
    {
        TranslateResult res;
        std::uint64_t pfn;
        if (tlb.access(pid, vaddr >> kPageShift, pfn)) [[likely]] {
            res.paddr = (pfn << kPageShift) |
                        (vaddr & (kPageBytes - 1));
            return res;
        }
        res.tlbMiss = true;
        res.paddr = table.translate(pid, vaddr);
        tlb.fillPfn(res.paddr >> kPageShift);
        return res;
    }

    MmuConfig cfg;
    Tlb itlb;
    Tlb dtlb;
    PageTable table;
};

} // namespace gaas::mmu

#endif // GAAS_MMU_MMU_HH
