/**
 * @file
 * Tests for the Workload and Simulator layers: scheduling, CPI
 * accounting, warmup, determinism, and trace-driven operation.
 */

#include <gtest/gtest.h>

#include <cctype>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/config.hh"
#include "core/simulator.hh"
#include "core/stats_dump.hh"
#include "core/workload.hh"
#include "trace/source.hh"
#include "util/error.hh"
#include "util/logging.hh"

namespace gaas::core
{
namespace
{

/** A workload of one in-memory trace. */
Workload
vectorWorkload(std::vector<trace::MemRef> refs, double base_cpi = 1.0)
{
    Workload wl;
    wl.add(std::make_unique<trace::VectorSource>("vec",
                                                 std::move(refs)),
           base_cpi, "vec");
    return wl;
}

TEST(Workload, FromSpecsAssignsPidsInOrder)
{
    Workload wl = Workload::standard(4);
    EXPECT_EQ(wl.size(), 4u);
    auto procs = wl.take();
    for (std::size_t i = 0; i < procs.size(); ++i)
        EXPECT_EQ(procs[i].pid, static_cast<Pid>(i));
}

TEST(Workload, RejectsBadInput)
{
    Workload wl;
    EXPECT_THROW(wl.add(nullptr, 1.2, "x"), FatalError);
    EXPECT_THROW(wl.add(std::make_unique<trace::VectorSource>(
                            "x", std::vector<trace::MemRef>{}),
                        0.9, "x"),
                 FatalError);
}

TEST(Simulator, RequiresAProcess)
{
    EXPECT_THROW(Simulator(baseline(), Workload{}), FatalError);
}

TEST(Simulator, CountsInstructionsAndCycles)
{
    // Three plain instructions, base CPI 1.0, all L1 hits after the
    // first fetch: cycles = 3 + first-miss penalty.
    std::vector<trace::MemRef> refs = {
        trace::instRef(0x40'0000),
        trace::instRef(0x40'0004),
        trace::instRef(0x40'0008),
    };
    Simulator sim(baseline(), vectorWorkload(refs));
    const auto res = sim.run(100);
    EXPECT_EQ(res.instructions, 3u);
    // One cold L1-I miss: 6 (L2) + 143 (memory).
    EXPECT_EQ(res.cycles, 3u + 6u + 143u);
    EXPECT_DOUBLE_EQ(res.baseCpi(), 1.0);
}

TEST(Simulator, BaseCpiAccumulatesFractionally)
{
    // 1000 identical instructions at base CPI 1.25: the Bresenham
    // accumulator must land exactly.
    std::vector<trace::MemRef> refs;
    for (int i = 0; i < 1000; ++i)
        refs.push_back(trace::instRef(0x40'0000));
    Simulator sim(baseline(), vectorWorkload(refs, 1.25));
    const auto res = sim.run(1000);
    EXPECT_EQ(res.cpuStallCycles, 250u);
    EXPECT_NEAR(res.baseCpi(), 1.25, 1e-9);
}

TEST(Simulator, DataRefsBelongToPrecedingInstruction)
{
    std::vector<trace::MemRef> refs = {
        trace::instRef(0x40'0000),
        trace::loadRef(0x1000'0000),
        trace::instRef(0x40'0004),
        trace::storeRef(0x1000'0100),
    };
    Simulator sim(baseline(), vectorWorkload(refs));
    const auto res = sim.run(100);
    EXPECT_EQ(res.instructions, 2u);
    EXPECT_EQ(res.sys.loads, 1u);
    EXPECT_EQ(res.sys.stores, 1u);
}

TEST(Simulator, MalformedTraceIsFatal)
{
    // A data reference with no preceding instruction.
    std::vector<trace::MemRef> refs = {trace::loadRef(0x1000)};
    Simulator sim(baseline(), vectorWorkload(refs));
    try {
        sim.run(10);
        FAIL() << "a trace opening with a load was simulated";
    } catch (const SimError &e) {
        EXPECT_EQ(e.code(), ErrorCode::TraceIO);
        EXPECT_NE(std::string(e.what()).find("load"), std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find("0x1000"), std::string::npos)
            << e.what();
    }
}

TEST(Simulator, StopsWhenNonLoopingTraceEnds)
{
    std::vector<trace::MemRef> refs = {
        trace::instRef(0x40'0000),
        trace::instRef(0x40'0004),
    };
    Simulator sim(baseline(), vectorWorkload(refs));
    const auto res = sim.run(1'000'000);
    EXPECT_EQ(res.instructions, 2u);
}

TEST(Simulator, SyscallForcesContextSwitch)
{
    // Two processes; process 0's second instruction is a syscall.
    std::vector<trace::MemRef> a = {
        trace::instRef(0x40'0000),
        trace::instRef(0x40'0004, /*syscall=*/true),
        trace::instRef(0x40'0008),
    };
    std::vector<trace::MemRef> b = {
        trace::instRef(0x80'0000),
        trace::instRef(0x80'0004),
        trace::instRef(0x80'0008),
    };
    Workload wl;
    wl.add(std::make_unique<trace::VectorSource>("a", a), 1.0, "a");
    wl.add(std::make_unique<trace::VectorSource>("b", b), 1.0, "b");
    Simulator sim(baseline(), std::move(wl));
    const auto res = sim.run(6);
    EXPECT_EQ(res.instructions, 6u);
    EXPECT_GE(res.syscallSwitches, 1u);
    EXPECT_GE(res.contextSwitches, res.syscallSwitches);
}

TEST(Simulator, TimeSliceRotatesProcesses)
{
    // A tiny slice forces many switches even without syscalls.
    auto cfg = baseline();
    cfg.timeSliceCycles = 50;
    auto specs = synth::workloadSpecs(2);
    for (auto &spec : specs)
        spec.syscallsPerMInstr = 0.0;
    Simulator sim(cfg, Workload::fromSpecs(specs));
    const auto res = sim.run(10'000);
    EXPECT_GT(res.contextSwitches, 50u);
    EXPECT_EQ(res.syscallSwitches, 0u);
}

TEST(Simulator, WarmupExcludedFromMeasurement)
{
    auto specs = synth::workloadSpecs(1);
    Simulator cold(baseline(), Workload::fromSpecs(specs));
    const auto cold_res = cold.run(50'000);

    Simulator warm(baseline(), Workload::fromSpecs(specs));
    const auto warm_res = warm.run(50'000, 50'000);

    EXPECT_EQ(warm_res.instructions, 50'000u);
    // The warmed run must show a lower CPI: cold caches inflate the
    // early misses.
    EXPECT_LT(warm_res.cpi(), cold_res.cpi());
}

TEST(Simulator, DeterministicAcrossRuns)
{
    const auto a = runStandard(baseline(), 50'000, 4);
    const auto b = runStandard(baseline(), 50'000, 4);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.sys.l1iMisses, b.sys.l1iMisses);
    EXPECT_EQ(a.sys.l2dMisses, b.sys.l2dMisses);
    EXPECT_EQ(a.contextSwitches, b.contextSwitches);
}

TEST(Simulator, CpiDecomposesExactly)
{
    // total cycles = instructions + cpu stalls + memory stalls.
    const auto res = runStandard(baseline(), 100'000, 4);
    EXPECT_EQ(res.cycles, res.instructions + res.cpuStallCycles +
                              res.comp.total());
    EXPECT_NEAR(res.cpi(),
                res.baseCpi() + res.memCpi(), 1e-9);
}

TEST(Simulator, ProcessesAreIsolatedByPid)
{
    // Two processes running the *same* trace must not share cache
    // lines: the second process's fetches miss on their own.
    std::vector<trace::MemRef> refs = {
        trace::instRef(0x40'0000),
        trace::instRef(0x40'0000),
    };
    Workload wl;
    wl.add(std::make_unique<trace::VectorSource>("p0", refs), 1.0,
           "p0");
    wl.add(std::make_unique<trace::VectorSource>("p1", refs), 1.0,
           "p1");
    auto cfg = baseline();
    cfg.timeSliceCycles = 1'000'000; // p0 runs to completion first
    Simulator sim(cfg, std::move(wl));
    const auto res = sim.run(4);
    EXPECT_EQ(res.sys.l1iMisses, 2u);
}

TEST(Simulator, ResultCarriesConfigName)
{
    const auto res = runStandard(optimized(), 10'000, 2);
    EXPECT_EQ(res.configName, "optimized");
    EXPECT_FALSE(res.formatBreakdown().empty());
}

TEST(SimResult, RatiosAndBreakdownFormat)
{
    const auto res = runStandard(baseline(), 50'000, 2);
    EXPECT_GE(res.sys.l1iMissRatio(), 0.0);
    EXPECT_LE(res.sys.l1iMissRatio(), 1.0);
    EXPECT_GE(res.sys.l2MissRatio(), 0.0);
    EXPECT_LE(res.sys.l2MissRatio(), 1.0);
    const std::string text = res.formatBreakdown();
    EXPECT_NE(text.find("L1-I miss"), std::string::npos);
    EXPECT_NE(text.find("total"), std::string::npos);
}

/**
 * Property sweep: the CPI decomposition identity and stats sanity
 * hold under every write policy and L2 organisation.
 */
struct PolicyOrgCase
{
    WritePolicy policy;
    L2Org org;
};

class PolicyOrgSweep
    : public ::testing::TestWithParam<PolicyOrgCase>
{
};

TEST_P(PolicyOrgSweep, InvariantsHold)
{
    auto cfg = withWritePolicy(baseline(), GetParam().policy);
    cfg.l2Org = GetParam().org;
    const auto res = runStandard(cfg, 60'000, 4);

    // Decomposition identity.
    EXPECT_EQ(res.cycles, res.instructions + res.cpuStallCycles +
                              res.comp.total());
    // The memory system only adds cycles.
    EXPECT_GE(res.cpi(), res.baseCpi());
    // L2 sees exactly the L1 misses (refills; write-buffer drains
    // update state without counting as timed accesses).
    EXPECT_EQ(res.sys.l2iAccesses, res.sys.l1iMisses);
    EXPECT_EQ(res.sys.l2dAccesses,
              res.sys.l1dReadMisses +
                  (GetParam().policy == WritePolicy::WriteBack
                       ? res.sys.l1dWriteMisses
                       : 0u));
    // Miss counts never exceed accesses.
    EXPECT_LE(res.sys.l2iMisses, res.sys.l2iAccesses);
    EXPECT_LE(res.sys.l2dMisses, res.sys.l2dAccesses);
    EXPECT_LE(res.sys.l1iMisses, res.sys.ifetches);
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, PolicyOrgSweep,
    ::testing::Values(
        PolicyOrgCase{WritePolicy::WriteBack, L2Org::Unified},
        PolicyOrgCase{WritePolicy::WriteBack, L2Org::LogicalSplit},
        PolicyOrgCase{WritePolicy::WriteMissInvalidate,
                      L2Org::Unified},
        PolicyOrgCase{WritePolicy::WriteMissInvalidate,
                      L2Org::LogicalSplit},
        PolicyOrgCase{WritePolicy::WriteOnly, L2Org::Unified},
        PolicyOrgCase{WritePolicy::WriteOnly, L2Org::LogicalSplit},
        PolicyOrgCase{WritePolicy::SubblockPlacement,
                      L2Org::Unified},
        PolicyOrgCase{WritePolicy::SubblockPlacement,
                      L2Org::LogicalSplit}),
    [](const auto &info) {
        std::string name =
            std::string(writePolicyName(info.param.policy)) + "_" +
            l2OrgName(info.param.org);
        for (char &ch : name) {
            if (!std::isalnum(static_cast<unsigned char>(ch)))
                ch = '_';
        }
        return name;
    });

TEST(StatsDump, EmitsEverySection)
{
    const auto res = runStandard(baseline(), 20'000, 2);
    std::ostringstream os;
    dumpStats(res, os);
    const std::string text = os.str();
    for (const char *needle :
         {"sim.cpi", "cpi.l1i_miss", "l1d.write_miss_ratio",
          "l2.dirty_misses", "wb.max_occupancy", "mem.reads",
          "dtlb.miss_ratio"}) {
        EXPECT_NE(text.find(needle), std::string::npos) << needle;
    }
}

TEST(StatsDump, FileRoundTrip)
{
    const auto res = runStandard(baseline(), 10'000, 1);
    const auto path = (std::filesystem::temp_directory_path() /
                       "gaas_stats_dump.txt")
                          .string();
    ASSERT_TRUE(dumpStatsFile(res, path));
    std::ifstream in(path);
    std::string first;
    std::getline(in, first);
    EXPECT_NE(first.find("gaascache statistics"), std::string::npos);
    std::filesystem::remove(path);
}

TEST(StatsDump, UnwritablePathReturnsFalse)
{
    const auto res = runStandard(baseline(), 5'000, 1);
    setLogQuiet(true);
    EXPECT_FALSE(dumpStatsFile(res, "/nonexistent/dir/stats.txt"));
    setLogQuiet(false);
}

} // namespace
} // namespace gaas::core
