#include "cache_system.hh"

#include <algorithm>

#include "util/bitops.hh"
#include "util/logging.hh"

namespace gaas::core
{

namespace
{

/** Build the write-buffer timing from the system config. */
mem::WriteBufferConfig
makeWbConfig(const SystemConfig &cfg)
{
    mem::WriteBufferConfig wb;
    wb.depth = cfg.wbDepth;
    wb.entryWords = cfg.wbEntryWords;
    // The buffer drains into the data side of L2 at its effective
    // access time.
    wb.drainCycles = cfg.l2DataSide().accessTime;
    // The stream overlap cannot exceed the drain time itself.
    wb.streamOverlap =
        std::min<Cycles>(cfg.wbStreamOverlap, wb.drainCycles - 1);
    return wb;
}

/** Build the memory config (the dirty buffer lives behind L2-D). */
mem::MainMemoryConfig
makeMemConfig(const SystemConfig &cfg)
{
    mem::MainMemoryConfig mc = cfg.memory;
    mc.dirtyBuffer = cfg.l2DirtyBuffer;
    return mc;
}

/** Halve a cache for the logical I/D split (high index bit). */
cache::CacheConfig
halfOf(const cache::CacheConfig &full)
{
    cache::CacheConfig half = full;
    half.sizeWords = full.sizeWords / 2;
    return half;
}

} // namespace

CacheSystem::CacheSystem(const SystemConfig &config)
    : cfg(config), mmuUnit((config.validate(), config.mmu)),
      l1i(config.l1i, "L1-I"), l1d(config.l1d, "L1-D"),
      wb(makeWbConfig(config)), memory(makeMemConfig(config))
{
    switch (cfg.l2Org) {
      case L2Org::Unified:
        l2u.emplace(cfg.l2.cache, "L2");
        break;
      case L2Org::LogicalSplit:
        // Splitting uses the high-order index bit to interleave the
        // instruction and data halves (Section 7): each half behaves
        // as an independent cache of half the capacity.
        l2is.emplace(halfOf(cfg.l2.cache), "L2-I(half)");
        l2ds.emplace(halfOf(cfg.l2.cache), "L2-D(half)");
        break;
      case L2Org::PhysicalSplit:
        l2is.emplace(cfg.l2i.cache, "L2-I");
        l2ds.emplace(cfg.l2d.cache, "L2-D");
        break;
    }
}

cache::TagStore &
CacheSystem::l2Store(bool is_inst)
{
    if (l2u)
        return *l2u;
    return is_inst ? *l2is : *l2ds;
}

const cache::TagStore &
CacheSystem::l2InstStore() const
{
    return l2u ? *l2u : *l2is;
}

const cache::TagStore &
CacheSystem::l2DataStore() const
{
    return l2u ? *l2u : *l2ds;
}

Cycles
CacheSystem::extraTransferCycles(unsigned fetch_words) const
{
    if (fetch_words <= 4)
        return 0;
    return divCeil(fetch_words - 4, cfg.transferWordsPerCycle);
}

template <bool Measure>
CacheSystem::L2Result
CacheSystem::l2Access(bool is_inst, Addr paddr, Cycles now,
                      unsigned fetch_words)
{
    cache::TagStore &store = l2Store(is_inst);
    const L2SideConfig &side =
        is_inst ? cfg.l2InstSide() : cfg.l2DataSide();

    if constexpr (Measure)
        (is_inst ? st.l2iAccesses : st.l2dAccesses) += 1;

    // Warming leaves both terms 0, so memory sees the bare clock.
    L2Result res;
    res.access = measured<Measure>(side.accessTime +
                                   extraTransferCycles(fetch_words));

    if (cache::TagStore::Ref line = store.find(paddr)) {
        store.touch(line);
        return res;
    }

    if constexpr (Measure)
        (is_inst ? st.l2iMisses : st.l2dMisses) += 1;

    cache::Eviction evicted;
    store.allocate(paddr, evicted);
    const bool dirty_victim = evicted.valid && evicted.dirty;
    if (dirty_victim)
        tally<Measure>(st.l2DirtyMisses);

    res.memory = measured<Measure>(
        memory.fetchLine(now + res.access, dirty_victim));
    return res;
}

// The miss paths take the stall their access has charged so far.
// Those that turn it into time arguments first pin it to the
// compile-time 0 a warming caller passes (see measured()).

template <bool Measure>
Cycles
CacheSystem::ifetchMiss(Cycles now, Cycles stall, Addr paddr)
{
    stall = measured<Measure>(stall);
    tally<Measure>(st.l1iMisses);

    // The base architecture makes both primary caches wait for the
    // write buffer to empty before processing a miss (Section 2).
    // With a split L2, the I-refill can proceed concurrently with
    // the drain into L2-D (Section 9).
    if (!cfg.concurrentIRefill)
        charge<Measure>(stall, comp.wbWait, wb.drainAll(now + stall));

    const L2Result r = l2Access<Measure>(true, paddr, now + stall,
                                         cfg.l1i.fetchWords);
    charge<Measure>(stall, comp.l1iMiss, r.access);
    charge<Measure>(stall, comp.l2iMiss, r.memory);

    cache::Eviction evicted;
    l1i.allocate(paddr, evicted);
    return stall;
}

template <bool Measure>
void
CacheSystem::dataMissWriteBufferWait(Addr paddr, Cycles now,
                                     Cycles &stall)
{
    switch (cfg.loadBypass) {
      case LoadBypass::None:
        charge<Measure>(stall, comp.wbWait, wb.drainAll(now));
        break;
      case LoadBypass::Associative:
        charge<Measure>(stall, comp.wbWait,
                        wb.drainLine(now, l1d.lineAddr(paddr),
                                     cfg.l1d.lineBytes()));
        break;
      case LoadBypass::DirtyBit: {
        // Only flush when the line being replaced is dirty; the
        // write-only policy guarantees every buffered write also
        // allocated (and dirtied) an L1-D line, so a clean victim
        // proves the buffer holds nothing this line needs
        // (Section 9).
        cache::TagStore::Ref line = l1d.find(paddr);
        const cache::TagStore::Ref victim =
            line ? line : l1d.victim(paddr);
        if (victim.valid() && victim.dirty())
            charge<Measure>(stall, comp.wbWait, wb.drainAll(now));
        else if constexpr (Measure)
            wb.noteBypass();
        break;
      }
    }
}

template <bool Measure>
cache::TagStore::Ref
CacheSystem::refillL1D(Addr paddr, Cycles now, Cycles &stall)
{
    // A read miss on a write-only (or partially valid) line with a
    // matching tag reallocates the same line in place.
    if (cache::TagStore::Ref line = l1d.find(paddr)) {
        line.setWriteOnly(false);
        line.setDirty(false);
        line.setValidMask(l1d.fullMask());
        l1d.touch(line);
        return line;
    }

    cache::Eviction evicted;
    cache::TagStore::Ref line = l1d.allocate(paddr, evicted);

    // Write-back: a displaced dirty line drains through the write
    // buffer as one full-line entry.
    if (cfg.writePolicy == WritePolicy::WriteBack && evicted.valid &&
        evicted.dirty) {
        charge<Measure>(stall, comp.wbWait,
                        wb.push(now + stall, evicted.lineAddr));
        applyWriteToL2(evicted.lineAddr);
    }
    return line;
}

template <bool Measure>
Cycles
CacheSystem::loadMiss(Cycles now, Cycles stall, Addr paddr,
                      cache::TagStore::LineIndex idx)
{
    stall = measured<Measure>(stall);
    if (idx != cache::TagStore::npos &&
        (l1d.stateAt(idx) & cache::TagStore::kWriteOnlyBit))
        tally<Measure>(st.writeOnlyReadMisses);
    tally<Measure>(st.l1dReadMisses);

    dataMissWriteBufferWait<Measure>(paddr, now + stall, stall);

    const L2Result r = l2Access<Measure>(false, paddr, now + stall,
                                         cfg.l1d.fetchWords);
    charge<Measure>(stall, comp.l1dMiss, r.access);
    charge<Measure>(stall, comp.l2dMiss, r.memory);

    refillL1D<Measure>(paddr, now, stall);
    return stall;
}

void
CacheSystem::applyWriteToL2(Addr paddr)
{
    // State-only effect of a write-buffer entry reaching L2; the
    // *timing* of the drain is modelled by the write buffer itself.
    // L2 allocates on writes, so write-through traffic creates the
    // dirty L2-D lines whose replacement causes dirty misses.
    cache::TagStore &store = l2Store(false);
    if (cache::TagStore::Ref line = store.find(paddr)) {
        line.setDirty(true);
        store.touch(line);
        return;
    }
    ++st.l2WriteAllocates;
    cache::Eviction evicted;
    cache::TagStore::Ref line = store.allocate(paddr, evicted);
    line.setDirty(true);
    // A displaced dirty line is written back in the background; the
    // bus cost is folded into the effective drain time (DESIGN.md).
}

template <bool Measure>
Cycles
CacheSystem::storeMissWriteBack(Cycles now, Cycles stall, Addr paddr)
{
    stall = measured<Measure>(stall);
    // Write-allocate: fetch the line like a read miss; the write
    // itself needs no extra cycle (Section 6).
    tally<Measure>(st.l1dWriteMisses);
    dataMissWriteBufferWait<Measure>(paddr, now + stall, stall);
    const L2Result r = l2Access<Measure>(false, paddr, now + stall,
                                         cfg.l1d.fetchWords);
    charge<Measure>(stall, comp.l1dMiss, r.access);
    charge<Measure>(stall, comp.l2dMiss, r.memory);
    cache::TagStore::Ref nl = refillL1D<Measure>(paddr, now, stall);
    nl.setDirty(true);
    return stall;
}

template <bool Measure>
Cycles
CacheSystem::storeMissInvalidate(Cycles stall, Addr paddr)
{
    tally<Measure>(st.l1dWriteMisses);
    // The data array was written while the tag mismatched; a second
    // cycle invalidates the corrupted line.  (Only meaningful for a
    // direct-mapped L1-D, where the way is implied; the design
    // study's L1-D is always direct mapped.)
    charge<Measure>(stall, comp.l1Writes, 1);
    if (cfg.l1d.assoc == 1)
        l1d.victim(paddr).invalidate();
    return stall;
}

template <bool Measure>
Cycles
CacheSystem::storeMissWriteOnly(Cycles stall, Addr paddr)
{
    tally<Measure>(st.l1dWriteMisses);
    // The second cycle updates the tag and marks the line
    // write-only; subsequent writes to it hit (Section 6).
    charge<Measure>(stall, comp.l1Writes, 1);
    cache::Eviction evicted;
    cache::TagStore::Ref nl = l1d.allocate(paddr, evicted);
    nl.setWriteOnly(true);
    nl.setDirty(true);
    nl.setValidMask(0);
    return stall;
}

template <bool Measure>
Cycles
CacheSystem::storeMissSubblock(Cycles stall, Addr paddr,
                               bool partial_word)
{
    tally<Measure>(st.l1dWriteMisses);
    // Second cycle: update the tag; only the written word (if a
    // full-word write) becomes valid.
    charge<Measure>(stall, comp.l1Writes, 1);
    cache::Eviction evicted;
    cache::TagStore::Ref nl = l1d.allocate(paddr, evicted);
    nl.setDirty(true);
    nl.setValidMask(partial_word ? 0 : l1d.wordBit(paddr));
    return stall;
}

// Both accounting modes of every miss path: measured for the detailed
// simulate loops, warm for functional warming.
template Cycles CacheSystem::ifetchMiss<true>(Cycles, Cycles, Addr);
template Cycles CacheSystem::ifetchMiss<false>(Cycles, Cycles, Addr);
template Cycles CacheSystem::loadMiss<true>(Cycles, Cycles, Addr,
                                            cache::TagStore::LineIndex);
template Cycles CacheSystem::loadMiss<false>(Cycles, Cycles, Addr,
                                             cache::TagStore::LineIndex);
template Cycles CacheSystem::storeMissWriteBack<true>(Cycles, Cycles, Addr);
template Cycles CacheSystem::storeMissWriteBack<false>(Cycles, Cycles, Addr);
template Cycles CacheSystem::storeMissInvalidate<true>(Cycles, Addr);
template Cycles CacheSystem::storeMissInvalidate<false>(Cycles, Addr);
template Cycles CacheSystem::storeMissWriteOnly<true>(Cycles, Addr);
template Cycles CacheSystem::storeMissWriteOnly<false>(Cycles, Addr);
template Cycles CacheSystem::storeMissSubblock<true>(Cycles, Addr, bool);
template Cycles CacheSystem::storeMissSubblock<false>(Cycles, Addr, bool);

void
CacheSystem::resetStats()
{
    st = SysStats{};
    comp = CpiComponents{};
    wb.resetStats();
    memory.resetStats();
    mmuUnit.resetStats();
}

SysStats
CacheSystem::stats() const
{
    SysStats out = st;
    out.wb = wb.stats();
    out.memory = memory.stats();
    out.itlb = mmuUnit.itlbStats();
    out.dtlb = mmuUnit.dtlbStats();
    return out;
}

} // namespace gaas::core
