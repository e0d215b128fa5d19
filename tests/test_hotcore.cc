/**
 * @file
 * Hot-core equivalence tests: the compile-time specialized simulate
 * loops (FastAccessSpec, picked by Simulator::pickLoop) must be
 * bit-identical to the generic runtime-dispatched path for every
 * configuration class they cover.  Randomized reference streams are
 * driven through both paths across direct-mapped / set-associative
 * L1s and all four write policies, and the full stats dumps are
 * compared byte for byte -- the same contract the golden harness
 * enforces across releases, applied here across code paths.  The
 * functional-warming instantiations (WarmSpec) are held to the
 * detailed ones the same way: runWarm() must leave exactly the cache
 * state run() leaves, and warmed generic and specialized runs must
 * dump identically.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "core/config.hh"
#include "core/simulator.hh"
#include "core/stats_dump.hh"
#include "core/workload.hh"
#include "trace/memref.hh"
#include "trace/source.hh"
#include "util/error.hh"
#include "util/random.hh"

namespace gaas::core
{
namespace
{

/**
 * A well-formed random reference stream: every record group is one
 * instruction followed by at most one data reference, addresses are
 * word-aligned, and the address pattern mixes sequential runs with
 * random jumps so both cache levels see hits, misses, writebacks
 * and (at assoc > 1) LRU churn.
 */
std::vector<trace::MemRef>
randomStream(std::uint64_t seed, std::size_t instructions)
{
    Rng rng(seed);
    std::vector<trace::MemRef> refs;
    refs.reserve(instructions * 2);

    Addr iaddr = 0x40'0000;
    for (std::size_t i = 0; i < instructions; ++i) {
        // Mostly straight-line code, occasional jump to a new page.
        if (rng.nextDouble() < 0.02)
            iaddr = (rng.nextBounded(1u << 22) & ~Addr{3});
        refs.push_back(
            trace::instRef(iaddr, rng.nextDouble() < 0.001));
        iaddr += 4;

        const double roll = rng.nextDouble();
        if (roll < 0.25) {
            refs.push_back(trace::loadRef(
                rng.nextBounded(1u << 20) & ~Addr{3}));
        } else if (roll < 0.40) {
            refs.push_back(trace::storeRef(
                rng.nextBounded(1u << 20) & ~Addr{3},
                rng.nextDouble() < 0.2));
        }
    }
    return refs;
}

/** Two-process workload over independent random streams. */
Workload
randomWorkload(std::uint64_t seed, std::size_t instructions)
{
    Workload wl;
    wl.add(std::make_unique<trace::VectorSource>(
               "rnd-a", randomStream(seed, instructions)),
           1.4, "rnd-a");
    wl.add(std::make_unique<trace::VectorSource>(
               "rnd-b", randomStream(seed ^ 0xabcdef, instructions)),
           1.7, "rnd-b");
    return wl;
}

/** One-process workload over one random stream. */
Workload
singleWorkload(std::uint64_t seed, std::size_t instructions)
{
    Workload wl;
    wl.add(std::make_unique<trace::VectorSource>(
               "rnd", randomStream(seed, instructions)),
           1.4, "rnd");
    return wl;
}

/** Baseline reshaped to @p assoc L1s under @p policy. */
SystemConfig
configFor(unsigned assoc, WritePolicy policy)
{
    SystemConfig cfg = withWritePolicy(baseline(), policy);
    cfg.l1i.assoc = assoc;
    cfg.l1d.assoc = assoc;
    cfg.name = "hotcore-a" + std::to_string(assoc);
    return cfg;
}

std::string
dumpText(const SimResult &res)
{
    std::ostringstream os;
    dumpStats(res, os);
    return os.str();
}

constexpr WritePolicy kPolicies[] = {
    WritePolicy::WriteBack,
    WritePolicy::WriteMissInvalidate,
    WritePolicy::WriteOnly,
    WritePolicy::SubblockPlacement,
};

TEST(HotCore, SpecializedMatchesGenericOnRandomStreams)
{
    // A warm prefix runs the functional-warming instantiations of
    // both paths first; the dumps then also prove they leave the
    // same machine behind.
    constexpr std::size_t kInstructions = 8'000;
    for (const unsigned assoc : {1u, 2u}) {
        for (const WritePolicy policy : kPolicies) {
            for (const std::uint64_t seed : {1ull, 42ull, 9001ull}) {
                for (const Count warm : {Count{0}, Count{3'000}}) {
                    const SystemConfig cfg = configFor(assoc, policy);

                    Simulator fast(
                        cfg, randomWorkload(seed, kInstructions));
                    ASSERT_FALSE(fast.usingGenericPath())
                        << "policy " << writePolicyName(policy)
                        << " assoc " << assoc
                        << " should have a specialized loop";

                    Simulator generic(
                        cfg, randomWorkload(seed, kInstructions));
                    generic.setForceGenericPath(true);
                    ASSERT_TRUE(generic.usingGenericPath());

                    fast.runWarm(warm);
                    generic.runWarm(warm);
                    const auto fastRes = fast.run(10'000, 2'000);
                    const auto genRes = generic.run(10'000, 2'000);
                    EXPECT_EQ(dumpText(fastRes), dumpText(genRes))
                        << "policy " << writePolicyName(policy)
                        << " assoc " << assoc << " seed " << seed
                        << " warm " << warm;
                }
            }
        }
    }
}

/** Require @p warm and @p detail to hold the same tag, state and
 *  valid mask in every line slot. */
void
expectSameLines(const cache::TagStore &warm,
                const cache::TagStore &detail, const std::string &what)
{
    ASSERT_EQ(warm.config().lines(), detail.config().lines()) << what;
    for (cache::TagStore::LineIndex i = 0; i < warm.config().lines();
         ++i) {
        if (warm.tagAt(i) != detail.tagAt(i) ||
            warm.stateAt(i) != detail.stateAt(i) ||
            warm.maskAt(i) != detail.maskAt(i)) {
            ADD_FAILURE()
                << what << ": line " << i << " differs: warm tag "
                << warm.tagAt(i) << " state " << int(warm.stateAt(i))
                << " mask " << warm.maskAt(i) << ", detail tag "
                << detail.tagAt(i) << " state "
                << int(detail.stateAt(i)) << " mask "
                << detail.maskAt(i);
            return;
        }
    }
}

TEST(HotCore, WarmPathLeavesTheDetailedPathsState)
{
    // With one process nothing interleaves, and write-buffer and
    // memory timing never touch tags, so runWarm(n) and run(n) over
    // the same stream must leave the same cache state: warming may
    // drop accounting, never a state change.  A follow-on measured
    // window then sees the same misses from both (cycles may
    // differ: the warm clock and write buffer ran on base cycles).
    constexpr std::size_t kStream = 40'000;
    constexpr Count kWarm = 20'000;
    constexpr Count kFollow = 8'000;
    unsigned cases = 0;
    for (const unsigned assoc : {1u, 2u}) {
        for (const WritePolicy policy : kPolicies) {
            for (const LoadBypass bypass :
                 {LoadBypass::None, LoadBypass::Associative,
                  LoadBypass::DirtyBit}) {
                for (const bool concurrent : {false, true}) {
                    SystemConfig cfg = configFor(assoc, policy);
                    // A small L2 so L2 misses and dirty L2 misses
                    // are frequent.
                    cfg.l2.cache.sizeWords = 16 * 1024;
                    cfg.loadBypass = bypass;
                    cfg.concurrentIRefill = concurrent;
                    if (concurrent)
                        cfg.l2Org = L2Org::LogicalSplit;
                    try {
                        cfg.validate();
                    } catch (const SimError &) {
                        continue; // not a buildable machine
                    }
                    for (const bool generic : {false, true}) {
                        const std::string what =
                            "policy " +
                            std::string(writePolicyName(policy)) +
                            " assoc " + std::to_string(assoc) +
                            " bypass " + loadBypassName(bypass) +
                            " concurrent " +
                            std::to_string(concurrent) +
                            (generic ? " generic" : " specialized");
                        Simulator warm(cfg,
                                       singleWorkload(7, kStream));
                        Simulator detail(cfg,
                                         singleWorkload(7, kStream));
                        warm.setForceGenericPath(generic);
                        detail.setForceGenericPath(generic);
                        ASSERT_EQ(warm.usingGenericPath(), generic)
                            << what;

                        warm.runWarm(kWarm);
                        detail.run(kWarm);

                        const CacheSystem &ws = warm.system();
                        const CacheSystem &ds = detail.system();
                        expectSameLines(ws.l1iStore(), ds.l1iStore(),
                                        what + " L1-I");
                        expectSameLines(ws.l1dStore(), ds.l1dStore(),
                                        what + " L1-D");
                        expectSameLines(ws.l2InstStore(),
                                        ds.l2InstStore(),
                                        what + " L2-I");
                        expectSameLines(ws.l2DataStore(),
                                        ds.l2DataStore(),
                                        what + " L2-D");

                        warm.resetMeasurement();
                        detail.resetMeasurement();
                        const SysStats w = warm.run(kFollow).sys;
                        const SysStats d = detail.run(kFollow).sys;
                        EXPECT_GT(d.l1iMisses + d.l1dReadMisses, 0u)
                            << what;
                        EXPECT_EQ(w.l1iMisses, d.l1iMisses) << what;
                        EXPECT_EQ(w.l1dReadMisses, d.l1dReadMisses)
                            << what;
                        EXPECT_EQ(w.l1dWriteMisses, d.l1dWriteMisses)
                            << what;
                        EXPECT_EQ(w.writeOnlyReadMisses,
                                  d.writeOnlyReadMisses)
                            << what;
                        EXPECT_EQ(w.l2iMisses, d.l2iMisses) << what;
                        EXPECT_EQ(w.l2dMisses, d.l2dMisses) << what;
                        EXPECT_EQ(w.l2DirtyMisses, d.l2DirtyMisses)
                            << what;
                        EXPECT_EQ(w.itlb.misses, d.itlb.misses)
                            << what;
                        EXPECT_EQ(w.dtlb.misses, d.dtlb.misses)
                            << what;
                        ++cases;
                    }
                }
            }
        }
    }
    // 2 geometries x 2 paths x 8 valid (policy, bypass) pairs x 2
    // I-refill settings.
    EXPECT_EQ(cases, 64u);
}

TEST(HotCore, SpecializedMatchesGenericOnStandardWorkload)
{
    // The standard synthetic workload goes through the trace arena's
    // packed replay path (when enabled), so this covers the packed
    // decode under both access paths too.
    for (const unsigned assoc : {1u, 2u}) {
        const SystemConfig cfg =
            configFor(assoc, WritePolicy::WriteBack);

        Simulator fast(cfg, Workload::standard(4, 30'000));
        ASSERT_FALSE(fast.usingGenericPath());
        Simulator generic(cfg, Workload::standard(4, 30'000));
        generic.setForceGenericPath(true);

        const auto fastRes = fast.run(25'000, 5'000);
        const auto genRes = generic.run(25'000, 5'000);
        EXPECT_EQ(dumpText(fastRes), dumpText(genRes))
            << "assoc " << assoc;
    }
}

TEST(HotCore, MixedGeometryFallsBackToGeneric)
{
    SystemConfig cfg = configFor(1, WritePolicy::WriteBack);
    cfg.l1d.assoc = 2; // mixed: dm I-side, 2-way D-side
    Simulator sim(cfg, randomWorkload(7, 1'000));
    EXPECT_TRUE(sim.usingGenericPath());
}

TEST(HotCore, EnvKnobForcesGenericPath)
{
    ::setenv("GAAS_SIM_GENERIC", "1", 1);
    {
        Simulator sim(configFor(1, WritePolicy::WriteBack),
                      randomWorkload(3, 1'000));
        EXPECT_TRUE(sim.usingGenericPath());
    }
    ::unsetenv("GAAS_SIM_GENERIC");
    {
        Simulator sim(configFor(1, WritePolicy::WriteBack),
                      randomWorkload(3, 1'000));
        EXPECT_FALSE(sim.usingGenericPath());
    }
}

} // namespace
} // namespace gaas::core
