/**
 * @file
 * Integration tests: the paper's qualitative findings, checked
 * end-to-end on scaled-down runs.  These use modest instruction
 * budgets so ctest stays fast; the bench binaries regenerate the
 * full figures.
 */

#include <gtest/gtest.h>

#include <filesystem>

#include "core/config.hh"
#include "core/simulator.hh"
#include "synth/suite.hh"
#include "trace/v3.hh"
#include "util/logging.hh"

namespace gaas::core
{
namespace
{

constexpr Count kBudget = 1'200'000;
constexpr Count kWarmup = 600'000;

/**
 * Qualitative runs use a 50k-cycle slice so a budget of ~1M
 * instructions covers many full rotations of the 8-process round
 * robin (the paper's 500k-cycle slice needs several million
 * instructions per rotation; the bench binaries use it).
 */
SimResult
run(SystemConfig cfg, unsigned mp = 8)
{
    cfg.timeSliceCycles = 50'000;
    return runStandard(cfg, kBudget, mp, kWarmup);
}

TEST(Reproduction, BaseArchitectureLandsNearPaperCpi)
{
    const auto res = run(baseline());
    // Paper: 1.238 CPU floor, ~1.65 total.  Synthetic-workload
    // tolerance: the floor must be tight, the total in band.
    EXPECT_NEAR(res.baseCpi(), 1.238, 0.02);
    EXPECT_GT(res.cpi(), 1.40);
    EXPECT_LT(res.cpi(), 1.95);
}

TEST(Reproduction, StoreFractionMatchesPaper)
{
    const auto res = run(baseline());
    const double frac =
        static_cast<double>(res.sys.stores) /
        static_cast<double>(res.instructions);
    EXPECT_NEAR(frac, 0.0725, 0.008);
}

TEST(Reproduction, WriteBackWriteHitRateIsHigh)
{
    // Section 6: ~98% of writes hit a 4KW write-allocate D-cache.
    const auto res = run(baseline());
    EXPECT_LT(res.sys.l1dWriteMissRatio(), 0.08);
}

TEST(Reproduction, WriteThroughBeatsWriteBackAtFastL2)
{
    // Fig. 5: at 4-6 cycle L2 access times write-through wins.
    auto wb = baseline();
    wb.l2.accessTime = 4;
    auto wo = withWritePolicy(baseline(), WritePolicy::WriteOnly);
    wo.l2.accessTime = 4;
    EXPECT_LT(run(wo).cpi(), run(wb).cpi());
}

TEST(Reproduction, WriteBackWinsAtSlowL2)
{
    // Fig. 5: beyond ~8 cycles the write-back policy wins.
    auto wb = baseline();
    wb.l2.accessTime = 12;
    auto wo = withWritePolicy(baseline(), WritePolicy::WriteOnly);
    wo.l2.accessTime = 12;
    EXPECT_LT(run(wb).cpi(), run(wo).cpi());
}

TEST(Reproduction, WriteOnlyCloseToSubblockPlacement)
{
    // Fig. 5: in the fast-L2 region write-only performs almost as
    // well as subblock placement (within a few hundredths of CPI).
    auto wo = withWritePolicy(baseline(), WritePolicy::WriteOnly);
    auto sb =
        withWritePolicy(baseline(), WritePolicy::SubblockPlacement);
    const double gap = run(wo).cpi() - run(sb).cpi();
    EXPECT_GE(gap, -0.01); // subblock is never meaningfully worse
    EXPECT_LT(gap, 0.03);
}

TEST(Reproduction, WritePoliciesOrderedAtSixCycles)
{
    // Fig. 5 at 6 cycles: wb > wmi >= wo >= sb.
    const double wb = run(baseline()).cpi();
    const double wmi =
        run(withWritePolicy(baseline(),
                            WritePolicy::WriteMissInvalidate))
            .cpi();
    const double wo =
        run(withWritePolicy(baseline(), WritePolicy::WriteOnly))
            .cpi();
    const double sb =
        run(withWritePolicy(baseline(),
                            WritePolicy::SubblockPlacement))
            .cpi();
    EXPECT_GT(wb, wmi);
    EXPECT_GE(wmi + 0.002, wo); // wo at or below wmi (tolerance)
    EXPECT_GE(wo + 0.005, sb);  // sb at or below wo (tolerance)
}

TEST(Reproduction, OptimizedBeatsBaseline)
{
    const auto base = run(baseline());
    const auto opt = run(optimized());
    EXPECT_LT(opt.cpi(), base.cpi());
    EXPECT_LT(opt.memCpi(), base.memCpi());
    // The paper reports 54.5% memory / 13.7% total improvement; the
    // synthetic workload must land in the same direction with at
    // least half the effect.
    EXPECT_GT(1.0 - opt.memCpi() / base.memCpi(), 0.15);
}

TEST(Reproduction, PresetLadderMonotonicallyImproves)
{
    const SystemConfig steps[] = {afterWritePolicy(), afterSplitL2(),
                                  afterFetchSize(), optimized()};
    double prev = run(baseline()).cpi();
    for (const auto &cfg : steps) {
        const double cpi = run(cfg).cpi();
        EXPECT_LT(cpi, prev + 0.01) << cfg.name;
        prev = cpi;
    }
}

TEST(Reproduction, ExchangedSplitIsWorse)
{
    // Fig. 9: swapping the L2-I and L2-D sizes/speeds loses: the
    // small fast cache belongs on the instruction side.
    EXPECT_GT(run(splitL2Exchanged()).memCpi(),
              run(afterSplitL2()).memCpi());
}

TEST(Reproduction, BiggerL2ReducesMisses)
{
    auto small = afterWritePolicy();
    small.l2.cache.sizeWords = 16 * 1024;
    auto large = afterWritePolicy();
    large.l2.cache.sizeWords = 512 * 1024;
    EXPECT_GT(run(small).sys.l2MissRatio(),
              run(large).sys.l2MissRatio());
}

TEST(Reproduction, TwoWayL2HasFewerMissesThanDirectMapped)
{
    auto direct = afterWritePolicy();
    auto two_way = afterWritePolicy();
    two_way.l2.cache.assoc = 2;
    two_way.l2.accessTime = 7;
    EXPECT_GE(run(direct).sys.l2MissRatio(),
              run(two_way).sys.l2MissRatio());
}

TEST(Reproduction, MultiprogrammingBarelyMovesL1)
{
    // Fig. 2: the L1-I miss ratio is essentially flat in the
    // multiprogramming level.
    const auto mp1 = run(baseline(), 1);
    const auto mp8 = run(baseline(), 8);
    const double r1 =
        static_cast<double>(mp1.sys.l1iMisses) /
        static_cast<double>(mp1.instructions);
    const double r8 =
        static_cast<double>(mp8.sys.l1iMisses) /
        static_cast<double>(mp8.instructions);
    // Different benchmark mixes make exact equality meaningless;
    // both must sit in the same small band.
    EXPECT_LT(r1, 0.05);
    EXPECT_LT(r8, 0.05);
}

TEST(Reproduction, LongerTimeSliceImprovesCpi)
{
    // Fig. 3: more reuse with longer slices.  (Bypasses the run()
    // helper, which pins the slice.)
    auto short_slice = baseline();
    short_slice.timeSliceCycles = 10'000;
    auto long_slice = baseline();
    long_slice.timeSliceCycles = 5'000'000;
    EXPECT_GT(runStandard(short_slice, kBudget, 8, kWarmup).cpi(),
              runStandard(long_slice, kBudget, 8, kWarmup).cpi());
}

TEST(Reproduction, ConcurrencyFeaturesNeverHurt)
{
    // Fig. 10: small but nonnegative gains.
    const double before = run(afterFetchSize()).cpi();
    const double after = run(optimized()).cpi();
    EXPECT_LE(after, before + 0.002);
}

TEST(Reproduction, DirtyBufferReducesDirtyMissCost)
{
    auto without = afterLoadBypass();
    auto with = optimized();
    // Identical except the dirty buffer; CPI must not increase.
    EXPECT_LE(run(with).cpi(), run(without).cpi() + 0.002);
}

TEST(Integration, TraceFileRoundTripDrivesSimulator)
{
    // Write a short synthetic trace to disk, then simulate from the
    // file: the pixie-style flow end to end.
    const auto path = (std::filesystem::temp_directory_path() /
                       "gaas_integration.v3")
                          .string();
    auto spec = synth::defaultSuite()[0];
    spec.simInstructions = 20'000;
    {
        trace::TraceV3Writer writer(path);
        auto bench = synth::makeBenchmark(spec);
        writer.writeAll(*bench);
    }

    Workload wl;
    wl.add(std::make_unique<trace::TraceV3Reader>(path),
           spec.baseCpi, spec.name);
    Simulator sim(baseline(), std::move(wl));
    const auto res = sim.run(20'000);
    EXPECT_EQ(res.instructions, 20'000u);

    // The file-driven run matches the generator-driven run exactly.
    Workload wl2;
    wl2.add(synth::makeBenchmark(spec), spec.baseCpi, spec.name);
    Simulator sim2(baseline(), std::move(wl2));
    const auto res2 = sim2.run(20'000);
    EXPECT_EQ(res.cycles, res2.cycles);
    EXPECT_EQ(res.sys.l1dReadMisses, res2.sys.l1dReadMisses);

    std::filesystem::remove(path);
}

TEST(Integration, SixteenProcessWorkloadRuns)
{
    const auto res = run(baseline(), 16);
    EXPECT_EQ(res.instructions, kBudget);
    EXPECT_GT(res.contextSwitches, 0u);
}

} // namespace
} // namespace gaas::core
