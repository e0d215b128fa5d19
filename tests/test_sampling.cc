/**
 * @file
 * Sampled-simulation suite (ctest label: sampling): the Student-t
 * table, the infeasible-budget fallback's byte-identity with a
 * full-detail run, run-to-run determinism, the headline accuracy
 * contract -- on seeded Fig. 6 points the full-detail CPI lies
 * within the sampled run's reported 95% confidence interval -- and
 * grouped runs (runSampledGroup) dumping byte-identical stats to solo
 * runs, guard fallbacks and watchdog failures included, on one thread
 * and with pool helpers replaying the members.
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <set>

#include "core/config.hh"
#include "core/sampling.hh"
#include "core/simulator.hh"
#include "core/stats_dump.hh"
#include "core/workload.hh"
#include "util/thread_pool.hh"

namespace gaas::core
{
namespace
{

/** The flat stats dump of @p result as name -> value text. */
std::map<std::string, std::string>
dumpFields(const SimResult &result)
{
    std::ostringstream os;
    dumpStats(result, os);
    std::map<std::string, std::string> fields;
    std::istringstream in(os.str());
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream words(line);
        std::string name, value;
        words >> name >> value;
        fields[name] = value;
    }
    return fields;
}

/** One Fig. 6 ladder configuration (see tools/benchspeed.cc). */
SystemConfig
fig6Point(std::uint64_t size_words, L2Org org, unsigned assoc,
          Cycles access_time)
{
    SystemConfig cfg = afterWritePolicy();
    cfg.l2Org = org;
    cfg.l2.cache.sizeWords = size_words;
    cfg.l2.cache.assoc = assoc;
    cfg.l2.accessTime = access_time;
    cfg.name = std::to_string(size_words / 1024);
    cfg.name.append("KW ")
        .append(l2OrgName(org))
        .append(" ")
        .append(std::to_string(assoc))
        .append("-way");
    return cfg;
}

/** The 28 points of Fig. 6, in its submission order. */
std::vector<SystemConfig>
fig6Ladder()
{
    std::vector<SystemConfig> ladder;
    for (std::uint64_t size = 16 * 1024; size <= 1024 * 1024;
         size *= 2) {
        ladder.push_back(fig6Point(size, L2Org::Unified, 1, 6));
        ladder.push_back(fig6Point(size, L2Org::Unified, 2, 7));
        ladder.push_back(fig6Point(size, L2Org::LogicalSplit, 1, 6));
        ladder.push_back(fig6Point(size, L2Org::LogicalSplit, 2, 7));
    }
    return ladder;
}

/** The flat stats dump of @p result. */
std::string
dumpOf(const SimResult &result)
{
    std::ostringstream os;
    dumpStats(result, os);
    return os.str();
}

/**
 * Run @p configs as one group and each one solo through runSampled,
 * and require every member to end as its solo run does: the same
 * stats dump byte for byte, or the same error code and message.
 * @return the group's members
 */
std::vector<SampledMember>
expectGroupMatchesSolo(const std::vector<SystemConfig> &configs,
                       const SamplingConfig &plan, Count total,
                       unsigned mp, Count warmup,
                       const std::vector<Cycles> &watchdogs = {})
{
    std::vector<SampledMember> members(configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        members[i].config = configs[i];
        if (!watchdogs.empty())
            members[i].watchdogCycles = watchdogs[i];
    }
    runSampledGroup(members, plan, total, mp, warmup);

    for (const SampledMember &m : members) {
        SCOPED_TRACE(m.config.name);
        SimResult solo;
        ErrorCode code = ErrorCode::Internal;
        std::string error;
        const bool ok = captureError(
            [&] {
                solo = runSampled(m.config, plan, total, mp, warmup,
                                  m.watchdogCycles);
            },
            code, error);
        EXPECT_EQ(m.failed, !ok);
        if (ok && !m.failed) {
            EXPECT_EQ(dumpOf(m.result), dumpOf(solo));
        } else if (!ok && m.failed) {
            EXPECT_EQ(m.errorCode, code);
            EXPECT_EQ(m.error, error);
            EXPECT_EQ(m.result.configName, m.config.name);
            EXPECT_EQ(m.result.instructions, 0u);
        }
    }
    return members;
}

SamplingConfig
defaultPlan()
{
    SamplingConfig plan;
    plan.enabled = true;
    return plan;
}

TEST(StudentT, TabulatedAndBracketedValues)
{
    EXPECT_DOUBLE_EQ(studentT95(1), 12.706);
    EXPECT_DOUBLE_EQ(studentT95(8), 2.306);
    EXPECT_DOUBLE_EQ(studentT95(16), 2.120);
    EXPECT_DOUBLE_EQ(studentT95(30), 2.042);
    // Between tabulated rows the lower row's (larger) multiplier
    // applies, so intervals stay conservative.
    EXPECT_DOUBLE_EQ(studentT95(35), 2.042);
    EXPECT_DOUBLE_EQ(studentT95(40), 2.021);
    EXPECT_DOUBLE_EQ(studentT95(60), 2.000);
    EXPECT_DOUBLE_EQ(studentT95(120), 1.980);
    EXPECT_DOUBLE_EQ(studentT95(100000), 1.980);
    // df 0 cannot occur (the controller floors it at 1) but must
    // not index out of the table.
    EXPECT_DOUBLE_EQ(studentT95(0), 12.706);
    // The multiplier never increases with df.
    double prev = studentT95(1);
    for (Count df = 2; df <= 200; ++df) {
        EXPECT_LE(studentT95(df), prev) << "df " << df;
        prev = studentT95(df);
    }
}

TEST(Sampling, InfeasibleBudgetFallsBackToExactFullDetail)
{
    const SystemConfig cfg = afterWritePolicy();
    SamplingConfig plan;
    plan.enabled = true;
    // minIntervals episodes cannot fit: the period is smaller than
    // one warm+head+body burst, so the controller must run the
    // point in full detail.
    const Count total = 500'000;
    const Count warmup = 100'000;

    SimResult sampled = runSampled(cfg, plan, total, 2, warmup);
    EXPECT_EQ(sampled.sampling.intervals, 0u)
        << "expected the full-detail fallback";
    EXPECT_EQ(sampled.sampling.passes, 1u);

    Simulator sim(cfg, Workload::standard(2, warmup + total));
    const SimResult full = sim.run(total, warmup);
    EXPECT_EQ(sampled.instructions, full.instructions);
    EXPECT_EQ(sampled.cycles, full.cycles);
    EXPECT_EQ(sampled.references(), full.references());
    EXPECT_DOUBLE_EQ(sampled.sampling.cpiMean, full.cpi());
}

TEST(Sampling, DeterministicAcrossRuns)
{
    const SystemConfig cfg =
        fig6Point(64 * 1024, L2Org::Unified, 2, 7);
    SamplingConfig plan;
    plan.enabled = true;
    const SimResult a = runSampled(cfg, plan, 2'000'000, 8, 500'000);
    const SimResult b = runSampled(cfg, plan, 2'000'000, 8, 500'000);
    EXPECT_EQ(a.sampling.intervals, b.sampling.intervals);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_DOUBLE_EQ(a.sampling.cpiMean, b.sampling.cpiMean);
    EXPECT_DOUBLE_EQ(a.sampling.cpiHalfWidth,
                     b.sampling.cpiHalfWidth);
}

/**
 * The accuracy contract on three seeded Fig. 6 points spanning the
 * L2 size axis: the full-detail CPI of the identical (config, mp,
 * budget) point must lie within the sampled run's reported CI, and
 * the sampled run must measure a small fraction of the budget.
 * Both runs are deterministic, so this is a regression gate, not a
 * statistical coin flip.
 */
TEST(Sampling, FullDetailCpiWithinReportedCiOnFig6Points)
{
    const SystemConfig points[] = {
        fig6Point(32 * 1024, L2Org::Unified, 1, 6),
        fig6Point(128 * 1024, L2Org::LogicalSplit, 2, 7),
        fig6Point(512 * 1024, L2Org::Unified, 2, 7),
    };
    const Count total = 4'000'000;
    const Count warmup = 2'000'000;
    SamplingConfig plan;
    plan.enabled = true;

    for (const SystemConfig &cfg : points) {
        SCOPED_TRACE(std::to_string(cfg.l2.cache.sizeWords / 1024) +
                     "KW L2");
        const SimResult full = runStandard(cfg, total, 8, warmup);
        const SimResult s = runSampled(cfg, plan, total, 8, warmup);

        ASSERT_GT(s.sampling.intervals, 0u);
        EXPECT_GE(s.sampling.intervals, plan.minIntervals);
        EXPECT_NEAR(s.sampling.cpiMean, full.cpi(),
                    s.sampling.cpiHalfWidth);
        // The headline cpi() is pinned to the stratified estimate.
        EXPECT_NEAR(s.cpi(), s.sampling.cpiMean, 1e-6);
        // The CI never collapses below the documented systematic
        // allowance for finite warming depth.
        EXPECT_GE(s.sampling.cpiHalfWidth,
                  plan.warmingBiasRel * s.sampling.cpiMean);
        // Detail work is the point of sampling: the measured span
        // must be a small fraction of the budget.
        EXPECT_LT(s.sampling.measuredInstructions, total / 4);
        EXPECT_GT(s.sampling.skippedInstructions, total / 2);
    }
}

/**
 * Under the sampled schedule the secondary cache never steers what
 * the machine above it sees: warm windows run on the stall-free
 * clock, and no detailed window comes near a time slice, so the
 * reference interleaving -- and with it every L1, TLB, scheduler and
 * write-buffer-entry counter -- is the same beneath any L2.  Grouped
 * sampled sweeps simulate that front end once per group and rest on
 * this property; checked here on solo runs, at Fig. 6's own budget,
 * across both organisations, both associativities and four sizes.
 */
TEST(Sampling, FrontEndCountersIgnoreTheL2)
{
    const SystemConfig points[] = {
        fig6Point(64 * 1024, L2Org::Unified, 1, 6),
        fig6Point(128 * 1024, L2Org::Unified, 2, 7),
        fig6Point(256 * 1024, L2Org::LogicalSplit, 2, 7),
        fig6Point(1024 * 1024, L2Org::LogicalSplit, 1, 6),
    };
    SamplingConfig plan;
    plan.enabled = true;
    plan.minIntervals = 24;
    plan.maxIntervals = 24; // n fixed: the points cannot size apart

    const auto isFrontEnd = [](const std::string &name) {
        for (const char *prefix : {"l1i.", "l1d.", "itlb.", "dtlb."}) {
            if (name.rfind(prefix, 0) == 0)
                return true;
        }
        for (const char *exact :
             {"sim.instructions", "sim.context_switches",
              "sim.syscall_switches", "cpi.tlb", "cpi.l1_writes",
              "l2i.accesses", "l2d.accesses", "wb.pushes"}) {
            if (name == exact)
                return true;
        }
        return false;
    };

    std::vector<std::map<std::string, std::string>> dumps;
    for (const SystemConfig &cfg : points) {
        const SimResult s =
            runSampled(cfg, plan, 16'000'000, 8, 8'000'000);
        ASSERT_EQ(s.sampling.intervals, 24u);
        dumps.push_back(dumpFields(s));
    }

    std::size_t frontFields = 0;
    bool backEndDiffers = false;
    for (const auto &[name, value] : dumps.front()) {
        const bool front = isFrontEnd(name);
        frontFields += front ? 1 : 0;
        for (std::size_t i = 1; i < dumps.size(); ++i) {
            ASSERT_TRUE(dumps[i].count(name)) << name;
            if (front) {
                EXPECT_EQ(dumps[i].at(name), value)
                    << name << " differs at point " << i;
            } else if (dumps[i].at(name) != value) {
                backEndDiffers = true;
            }
        }
    }
    EXPECT_EQ(frontFields, 24u);
    // Not vacuous: the L2 does change what lies beneath the L1s.
    EXPECT_TRUE(backEndDiffers);
    EXPECT_NE(dumps[0].at("sim.cycles"), dumps[3].at("sim.cycles"));
    EXPECT_NE(dumps[0].at("l2.miss_ratio"),
              dumps[3].at("l2.miss_ratio"));
}

/** The 28 Fig. 6 points: one front end, 28 back ends, and members
 *  that size to different episode counts. */
TEST(SampledGroup, Fig6LadderMatchesSoloRuns)
{
    const std::vector<SampledMember> members = expectGroupMatchesSolo(
        fig6Ladder(), defaultPlan(), 4'000'000, 8, 2'000'000);
    std::set<Count> intervals;
    for (const SampledMember &m : members) {
        EXPECT_FALSE(m.ranSolo) << m.config.name;
        intervals.insert(m.result.sampling.intervals);
    }
    EXPECT_GE(intervals.size(), 2u)
        << "no member grew past another: the union schedule is untested";
}

/** Write-through and write-back store paths, and the write buffer's
 *  drain timing: four policies, two L2 speeds each, four groups. */
TEST(SampledGroup, WritePoliciesMatchSoloRuns)
{
    for (const WritePolicy policy :
         {WritePolicy::WriteBack, WritePolicy::WriteMissInvalidate,
          WritePolicy::WriteOnly, WritePolicy::SubblockPlacement}) {
        std::vector<SystemConfig> configs;
        for (const Cycles access : {Cycles{2}, Cycles{10}}) {
            SystemConfig cfg = withWritePolicy(baseline(), policy);
            cfg.l2.accessTime = access;
            cfg.name.append(" L2 ")
                .append(std::to_string(access))
                .append("cy");
            configs.push_back(cfg);
        }
        expectGroupMatchesSolo(configs, defaultPlan(), 2'000'000, 8,
                               1'000'000);
    }
}

/** The Section 9 features are back-end fields: concurrent
 *  I-refill, the dirty-bit load bypass (fed the front end's victim
 *  bit) and the dirty buffer all vary inside one group. */
TEST(SampledGroup, ConcurrencyLadderMatchesSoloRuns)
{
    const std::vector<SystemConfig> configs = {
        afterFetchSize(), afterConcurrentIRefill(), afterLoadBypass(),
        optimized()};
    for (const SystemConfig &cfg : configs)
        ASSERT_TRUE(cfg.frontEnd() == configs.front().frontEnd());
    expectGroupMatchesSolo(configs, defaultPlan(), 2'000'000, 8,
                           1'000'000);
}

TEST(SampledGroup, TwoWayL1GroupMatchesSoloRuns)
{
    std::vector<SystemConfig> configs;
    for (const std::uint64_t size : {32 * 1024, 256 * 1024}) {
        SystemConfig cfg = fig6Point(size, L2Org::Unified, 2, 7);
        cfg.l1i.assoc = 2;
        cfg.l1d.assoc = 2;
        cfg.loadBypass = LoadBypass::Associative;
        configs.push_back(cfg);
    }
    configs.back().loadBypass = LoadBypass::None;
    expectGroupMatchesSolo(configs, defaultPlan(), 2'000'000, 8,
                           1'000'000);
}

/** MP 1 included: one process, so every episode measures the same
 *  stream (ROADMAP item 3 records that it stops fast-forwarding). */
TEST(SampledGroup, MultiprogrammingLevelsMatchSoloRuns)
{
    for (const unsigned mp : {1u, 2u, 3u}) {
        SCOPED_TRACE("mp " + std::to_string(mp));
        expectGroupMatchesSolo(
            {fig6Point(16 * 1024, L2Org::Unified, 1, 6),
             fig6Point(128 * 1024, L2Org::LogicalSplit, 2, 7),
             fig6Point(1024 * 1024, L2Org::Unified, 1, 6)},
            defaultPlan(), 2'000'000, mp, 500'000);
    }
}

/**
 * Slices shorter than a detailed window: each member's own clock
 * reaches its slice end at its own instruction, and a member that
 * gets there where the front end did not switch must leave the group
 * and run solo -- with the same answer.
 */
TEST(SampledGroup, ShortSlicesTripTheGuardAndFallBackToSolo)
{
    std::vector<SystemConfig> configs;
    for (const std::uint64_t size : {16 * 1024, 64 * 1024, 1024 * 1024})
        configs.push_back(fig6Point(size, L2Org::Unified, 1, 6));
    for (SystemConfig &cfg : configs)
        cfg.timeSliceCycles = 20'000;
    const std::vector<SampledMember> members = expectGroupMatchesSolo(
        configs, defaultPlan(), 2'000'000, 4, 500'000);
    std::size_t fellBack = 0;
    for (const SampledMember &m : members)
        fellBack += m.ranSolo ? 1 : 0;
    EXPECT_GE(fellBack, 1u);
}

/** A watchdog budget only some members exceed: they fail with their
 *  solo code and message, and the rest of the group carries on. */
TEST(SampledGroup, WatchdogFailsOnlyTheMembersItTrips)
{
    const std::vector<SystemConfig> configs = {
        fig6Point(16 * 1024, L2Org::Unified, 1, 6),
        fig6Point(64 * 1024, L2Org::Unified, 1, 6),
        fig6Point(256 * 1024, L2Org::LogicalSplit, 1, 6),
        fig6Point(1024 * 1024, L2Org::Unified, 1, 6)};
    const std::vector<SampledMember> members = expectGroupMatchesSolo(
        configs, defaultPlan(), 2'000'000, 8, 1'000'000,
        {0, 120, 1'000'000, 120});
    EXPECT_FALSE(members[0].failed);
    EXPECT_TRUE(members[1].failed);
    EXPECT_EQ(members[1].errorCode, ErrorCode::Watchdog);
    EXPECT_FALSE(members[2].failed);
    EXPECT_TRUE(members[3].failed);
}

/**
 * Three of the groups above, replayed by pool helpers while the front
 * end records ahead, end exactly as they do on one thread, and so as
 * their solo runs: ladder members that grow past the floor, members
 * the slice guard sends solo, and members their watchdog fails.
 */
TEST(SampledGroupOnHelpers, EndAsOnOneThread)
{
    struct Case
    {
        std::vector<SystemConfig> configs;
        Count total;
        unsigned mp;
        Count warmup;
        std::vector<Cycles> watchdogs;
    };
    std::vector<SystemConfig> shortSlices;
    for (const std::uint64_t size : {16 * 1024, 64 * 1024, 1024 * 1024}) {
        shortSlices.push_back(fig6Point(size, L2Org::Unified, 1, 6));
        shortSlices.back().timeSliceCycles = 20'000;
    }
    const Case cases[] = {
        {fig6Ladder(), 4'000'000, 8, 2'000'000, {}},
        {shortSlices, 2'000'000, 4, 500'000, {}},
        {{fig6Point(16 * 1024, L2Org::Unified, 1, 6),
          fig6Point(64 * 1024, L2Org::Unified, 1, 6),
          fig6Point(256 * 1024, L2Org::LogicalSplit, 1, 6),
          fig6Point(1024 * 1024, L2Org::Unified, 1, 6)},
         2'000'000, 8, 1'000'000, {0, 120, 1'000'000, 120}},
    };
    ThreadPool pool(3);
    for (const Case &c : cases) {
        std::vector<SampledMember> alone(c.configs.size());
        for (std::size_t i = 0; i < alone.size(); ++i) {
            alone[i].config = c.configs[i];
            if (!c.watchdogs.empty())
                alone[i].watchdogCycles = c.watchdogs[i];
        }
        std::vector<SampledMember> helped = alone;
        runSampledGroup(alone, defaultPlan(), c.total, c.mp, c.warmup);
        const GroupStats stats = runSampledGroup(
            helped, defaultPlan(), c.total, c.mp, c.warmup, &pool, 3);
        EXPECT_GT(stats.recordedCalls, 0u);
        for (std::size_t i = 0; i < alone.size(); ++i) {
            SCOPED_TRACE(alone[i].config.name);
            EXPECT_EQ(helped[i].failed, alone[i].failed);
            EXPECT_EQ(helped[i].ranSolo, alone[i].ranSolo);
            EXPECT_EQ(helped[i].errorCode, alone[i].errorCode);
            EXPECT_EQ(helped[i].error, alone[i].error);
            EXPECT_EQ(dumpOf(helped[i].result), dumpOf(alone[i].result));
        }
    }
}

/** Members must share a front end; the group refuses one that
 *  does not instead of replaying it on the wrong reference stream. */
TEST(SampledGroup, RefusesMembersWithDifferentFrontEnds)
{
    std::vector<SampledMember> members(2);
    members[0].config = fig6Point(64 * 1024, L2Org::Unified, 1, 6);
    members[1].config = members[0].config;
    members[1].config.l1d.sizeWords *= 2;
    EXPECT_THROW(runSampledGroup(members, defaultPlan(), 2'000'000, 2),
                 SimError);
}

/** A budget too small for the schedule runs every member's exact
 *  full-detail fallback, solo. */
TEST(SampledGroup, InfeasibleBudgetRunsEveryMemberSolo)
{
    const std::vector<SampledMember> members = expectGroupMatchesSolo(
        {fig6Point(32 * 1024, L2Org::Unified, 1, 6),
         fig6Point(512 * 1024, L2Org::LogicalSplit, 2, 7)},
        defaultPlan(), 500'000, 2, 100'000);
    for (const SampledMember &m : members) {
        EXPECT_TRUE(m.ranSolo);
        EXPECT_EQ(m.result.sampling.intervals, 0u);
    }
}

} // namespace
} // namespace gaas::core
