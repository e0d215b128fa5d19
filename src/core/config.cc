#include "config.hh"

#include <sstream>

#include "util/error.hh"

namespace gaas::core
{

const char *
writePolicyName(WritePolicy policy)
{
    switch (policy) {
      case WritePolicy::WriteBack:
        return "write-back";
      case WritePolicy::WriteMissInvalidate:
        return "write-miss-invalidate";
      case WritePolicy::WriteOnly:
        return "write-only";
      case WritePolicy::SubblockPlacement:
        return "subblock-placement";
    }
    return "unknown";
}

const char *
l2OrgName(L2Org org)
{
    switch (org) {
      case L2Org::Unified:
        return "unified";
      case L2Org::LogicalSplit:
        return "logical-split";
      case L2Org::PhysicalSplit:
        return "physical-split";
    }
    return "unknown";
}

const char *
loadBypassName(LoadBypass bypass)
{
    switch (bypass) {
      case LoadBypass::None:
        return "none";
      case LoadBypass::Associative:
        return "associative";
      case LoadBypass::DirtyBit:
        return "dirty-bit";
    }
    return "unknown";
}

void
SystemConfig::applyPolicyDefaults()
{
    if (writePolicy == WritePolicy::WriteBack) {
        wbDepth = 4;
        wbEntryWords = 4;
    } else {
        wbDepth = 8;
        wbEntryWords = 1;
    }
}

FrontEndConfig
SystemConfig::frontEnd() const
{
    return {l1i, l1d, writePolicy, mmu, timeSliceCycles};
}

const L2SideConfig &
SystemConfig::l2InstSide() const
{
    return l2Org == L2Org::PhysicalSplit ? l2i : l2;
}

const L2SideConfig &
SystemConfig::l2DataSide() const
{
    return l2Org == L2Org::PhysicalSplit ? l2d : l2;
}

void
SystemConfig::validate() const
{
    l1i.validate("L1-I");
    l1d.validate("L1-D");

    if (l2Org == L2Org::PhysicalSplit) {
        l2i.cache.validate("L2-I");
        l2d.cache.validate("L2-D");
    } else {
        l2.cache.validate("L2");
        if (l2Org == L2Org::LogicalSplit && l2.cache.sets() < 2) {
            gaas_error(ErrorCode::Config,
                       "logically split L2 needs at least two sets "
                       "to partition on the index high bit");
        }
    }

    const auto &iside = l2InstSide();
    const auto &dside = l2DataSide();
    if (iside.accessTime == 0 || dside.accessTime == 0)
        gaas_error(ErrorCode::Config, "L2 access times must be nonzero");
    if (iside.cache.lineWords < l1i.lineWords ||
        dside.cache.lineWords < l1d.lineWords) {
        gaas_error(ErrorCode::Config,
                   "L2 lines must be at least as large as L1 lines");
    }
    if (transferWordsPerCycle == 0)
        gaas_error(ErrorCode::Config, "transfer rate must be nonzero");
    if (wbDepth == 0 || wbEntryWords == 0)
        gaas_error(ErrorCode::Config, "write buffer geometry must be nonzero");

    if (writePolicy == WritePolicy::WriteBack &&
        wbEntryWords < l1d.lineWords) {
        gaas_error(ErrorCode::Config,
                   "write-back victims need write-buffer entries of "
                   "at least one L1-D line (",
                   l1d.lineWords, "W), got ", wbEntryWords, "W");
    }
    if (concurrentIRefill && !l2IsSplit()) {
        gaas_error(ErrorCode::Config,
                   "concurrent I-refill requires a split L2: with a "
                   "unified L2 the refill and the write-buffer drain "
                   "contend for the same array");
    }
    if (loadBypass == LoadBypass::DirtyBit &&
        writePolicy != WritePolicy::WriteOnly) {
        gaas_error(ErrorCode::Config,
                   "the dirty-bit load-bypass scheme relies on the "
                   "write-only policy allocating a line for every "
                   "write (Section 9)");
    }
    if (loadBypass != LoadBypass::None &&
        writePolicy == WritePolicy::WriteBack) {
        gaas_error(ErrorCode::Config,
                   "load bypass applies to write-through write "
                   "buffers; the write-back buffer holds whole "
                   "victim lines");
    }
    if (timeSliceCycles == 0)
        gaas_error(ErrorCode::Config, "time slice must be nonzero");
}

std::string
SystemConfig::describe() const
{
    std::ostringstream os;
    os << name << ":\n"
       << "  L1-I " << l1i.describe() << ", L1-D " << l1d.describe()
       << ", " << writePolicyName(writePolicy) << "\n";
    if (l2Org == L2Org::PhysicalSplit) {
        os << "  L2-I " << l2i.cache.describe() << " @"
           << l2i.accessTime << "cy, L2-D " << l2d.cache.describe()
           << " @" << l2d.accessTime << "cy (physical split)\n";
    } else {
        os << "  L2 " << l2.cache.describe() << " @" << l2.accessTime
           << "cy (" << l2OrgName(l2Org) << ")\n";
    }
    os << "  WB " << wbDepth << " x " << wbEntryWords
       << "W; concurrency: I-refill="
       << (concurrentIRefill ? "yes" : "no")
       << ", load-bypass=" << loadBypassName(loadBypass)
       << ", dirty-buffer=" << (l2DirtyBuffer ? "yes" : "no");
    return os.str();
}

SystemConfig
baseline()
{
    SystemConfig cfg;
    cfg.name = "base";
    // Section 2: 4KW direct-mapped split L1 with 4W lines,
    // write-back, unified 256KW direct-mapped L2 with 32W lines,
    // 6-cycle L1 miss penalty, 143/237-cycle L2 miss penalties,
    // 4-deep 4W write buffer.
    cfg.l1i = cache::CacheConfig{4 * 1024, 1, 4, 4};
    cfg.l1d = cache::CacheConfig{4 * 1024, 1, 4, 4};
    cfg.writePolicy = WritePolicy::WriteBack;
    cfg.l2Org = L2Org::Unified;
    cfg.l2.cache = cache::CacheConfig{256 * 1024, 1, 32, 32};
    cfg.l2.accessTime = 6;
    cfg.applyPolicyDefaults();
    return cfg;
}

SystemConfig
withWritePolicy(SystemConfig base, WritePolicy policy)
{
    base.writePolicy = policy;
    base.applyPolicyDefaults();
    base.name = std::string(base.name) + "+" +
                writePolicyName(policy);
    return base;
}

SystemConfig
afterWritePolicy()
{
    auto cfg = withWritePolicy(baseline(), WritePolicy::WriteOnly);
    cfg.name = "base+write-only";
    return cfg;
}

SystemConfig
afterSplitL2()
{
    auto cfg = afterWritePolicy();
    cfg.name = "split-L2";
    cfg.l2Org = L2Org::PhysicalSplit;
    // Section 7: a 32KW L2-I built from the same 1K x 32 SRAMs as
    // the L1 caches, on the MCM, 2-cycle access; the base 256KW
    // BiCMOS array becomes the L2-D, 6-cycle access.
    cfg.l2i.cache = cache::CacheConfig{32 * 1024, 1, 32, 32};
    cfg.l2i.accessTime = 2;
    cfg.l2d.cache = cache::CacheConfig{256 * 1024, 1, 32, 32};
    cfg.l2d.accessTime = 6;
    return cfg;
}

SystemConfig
afterFetchSize()
{
    auto cfg = afterSplitL2();
    cfg.name = "fetch-8W";
    // Section 8: 8W line and fetch size for both primary caches.
    cfg.l1i.lineWords = cfg.l1i.fetchWords = 8;
    cfg.l1d.lineWords = cfg.l1d.fetchWords = 8;
    return cfg;
}

SystemConfig
afterConcurrentIRefill()
{
    auto cfg = afterFetchSize();
    cfg.name = "concurrent-I-refill";
    cfg.concurrentIRefill = true;
    return cfg;
}

SystemConfig
afterLoadBypass()
{
    auto cfg = afterConcurrentIRefill();
    cfg.name = "load-bypass";
    cfg.loadBypass = LoadBypass::DirtyBit;
    return cfg;
}

SystemConfig
optimized()
{
    auto cfg = afterLoadBypass();
    cfg.name = "optimized";
    cfg.l2DirtyBuffer = true;
    cfg.memory.dirtyBuffer = true;
    return cfg;
}

SystemConfig
splitL2Exchanged()
{
    auto cfg = afterSplitL2();
    cfg.name = "split-L2-exchanged";
    std::swap(cfg.l2i, cfg.l2d);
    return cfg;
}

} // namespace gaas::core
