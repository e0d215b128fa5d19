#include "cpi.hh"

#include <iomanip>
#include <sstream>

#include "obs/metrics.hh"

namespace gaas::core
{

namespace
{

double
ratio(Count num, Count den)
{
    return den ? static_cast<double>(num) / static_cast<double>(den)
               : 0.0;
}

} // namespace

void
CpiComponents::registerInto(obs::Registry &r) const
{
    r.beginSection("cpi breakdown (cycles)");
    r.counter("cpi.l1i_miss", l1iMiss,
              "L1-I misses: L2-I access cycles");
    r.counter("cpi.l1d_miss", l1dMiss,
              "L1-D misses: L2-D access cycles");
    r.counter("cpi.l1_writes", l1Writes,
              "extra write hit/miss cycles");
    r.counter("cpi.wb_wait", wbWait, "waiting on the write buffer");
    r.counter("cpi.l2i_miss", l2iMiss, "L2-I misses: memory cycles");
    r.counter("cpi.l2d_miss", l2dMiss, "L2-D misses: memory cycles");
    r.counter("cpi.tlb", tlb, "TLB miss penalty cycles");
}

void
SysStats::registerInto(obs::Registry &r) const
{
    r.beginSection("L1");
    r.counter("l1i.fetches", ifetches, "instruction fetches");
    r.counter("l1i.misses", l1iMisses, "L1-I misses");
    r.value("l1i.miss_ratio", l1iMissRatio(), "misses / fetches");
    r.counter("l1d.loads", loads, "loads");
    r.counter("l1d.read_misses", l1dReadMisses, "load misses");
    r.value("l1d.read_miss_ratio", l1dReadMissRatio(),
            "read misses / loads");
    r.counter("l1d.stores", stores, "stores");
    r.counter("l1d.write_misses", l1dWriteMisses, "store misses");
    r.value("l1d.write_miss_ratio", l1dWriteMissRatio(),
            "write misses / stores");
    r.counter("l1d.write_only_read_misses", writeOnlyReadMisses,
              "reads that hit a write-only tag");

    r.beginSection("L2");
    r.counter("l2i.accesses", l2iAccesses,
              "instruction-side refills");
    r.counter("l2i.misses", l2iMisses, "instruction-side misses");
    r.value("l2i.miss_ratio", l2iMissRatio(), "misses / accesses");
    r.counter("l2d.accesses", l2dAccesses, "data-side refills");
    r.counter("l2d.misses", l2dMisses, "data-side misses");
    r.value("l2d.miss_ratio", l2dMissRatio(), "misses / accesses");
    r.value("l2.miss_ratio", l2MissRatio(), "combined local ratio");
    r.counter("l2.dirty_misses", l2DirtyMisses,
              "misses evicting a dirty line");
    r.counter("l2.write_allocates", l2WriteAllocates,
              "write-buffer drains that allocated");

    wb.registerInto(r);
    memory.registerInto(r);
    itlb.registerInto(r, "itlb", "ITLB");
    dtlb.registerInto(r, "dtlb", "DTLB");
}

double
SysStats::l1iMissRatio() const
{
    return ratio(l1iMisses, ifetches);
}

double
SysStats::l1dReadMissRatio() const
{
    return ratio(l1dReadMisses, loads);
}

double
SysStats::l1dWriteMissRatio() const
{
    return ratio(l1dWriteMisses, stores);
}

double
SysStats::l2MissRatio() const
{
    return ratio(l2iMisses + l2dMisses, l2iAccesses + l2dAccesses);
}

double
SysStats::l2iMissRatio() const
{
    return ratio(l2iMisses, l2iAccesses);
}

double
SysStats::l2dMissRatio() const
{
    return ratio(l2dMisses, l2dAccesses);
}

Count
SimResult::references() const
{
    return sys.ifetches + sys.loads + sys.stores;
}

double
SimResult::cpi() const
{
    return ratio(cycles, instructions);
}

double
SimResult::baseCpi() const
{
    return instructions
               ? 1.0 + static_cast<double>(cpuStallCycles) /
                           static_cast<double>(instructions)
               : 0.0;
}

double
SimResult::memCpi() const
{
    return perInstruction(comp.total());
}

double
SimResult::perInstruction(Cycles bucket_cycles) const
{
    return ratio(bucket_cycles, instructions);
}

std::string
SimResult::formatBreakdown() const
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(4);
    auto row = [&](const char *label, double value) {
        os << "  " << std::left << std::setw(16) << label
           << std::right << std::setw(8) << value << "\n";
    };
    os << configName << " CPI breakdown (" << instructions
       << " instructions):\n";
    row("base (CPU)", baseCpi());
    row("L1-I miss", perInstruction(comp.l1iMiss));
    row("L1-D miss", perInstruction(comp.l1dMiss));
    row("L1 writes", perInstruction(comp.l1Writes));
    row("WB", perInstruction(comp.wbWait));
    row("L2-I miss", perInstruction(comp.l2iMiss));
    row("L2-D miss", perInstruction(comp.l2dMiss));
    if (comp.tlb)
        row("TLB", perInstruction(comp.tlb));
    row("total", cpi());
    return os.str();
}

} // namespace gaas::core
