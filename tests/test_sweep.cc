/**
 * @file
 * Tests for the parallel sweep engine: results come back in
 * submission order and are bit-identical to serial execution,
 * whatever the worker count; exhaustible (non-looping) workloads and
 * degenerate job lists behave; GAAS_BENCH_JOBS resolves the worker
 * count; sampled jobs sharing a front end run as grouped units with
 * per-job results, faults, cancellation and telemetry.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/config.hh"
#include "core/stats_dump.hh"
#include "core/sweep.hh"
#include "obs/metrics.hh"
#include "core/workload.hh"
#include "trace/source.hh"
#include "util/fault.hh"
#include "util/thread_pool.hh"

namespace gaas::core
{
namespace
{

/**
 * Field-by-field equality of two SimResults, excluding hostSeconds
 * (the one field documented as non-deterministic wall-clock timing).
 */
void
expectSameResult(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.configName, b.configName);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.cpuStallCycles, b.cpuStallCycles);
    EXPECT_EQ(a.contextSwitches, b.contextSwitches);
    EXPECT_EQ(a.syscallSwitches, b.syscallSwitches);

    EXPECT_EQ(a.comp.l1iMiss, b.comp.l1iMiss);
    EXPECT_EQ(a.comp.l1dMiss, b.comp.l1dMiss);
    EXPECT_EQ(a.comp.l1Writes, b.comp.l1Writes);
    EXPECT_EQ(a.comp.wbWait, b.comp.wbWait);
    EXPECT_EQ(a.comp.l2iMiss, b.comp.l2iMiss);
    EXPECT_EQ(a.comp.l2dMiss, b.comp.l2dMiss);
    EXPECT_EQ(a.comp.tlb, b.comp.tlb);

    EXPECT_EQ(a.sys.ifetches, b.sys.ifetches);
    EXPECT_EQ(a.sys.l1iMisses, b.sys.l1iMisses);
    EXPECT_EQ(a.sys.loads, b.sys.loads);
    EXPECT_EQ(a.sys.l1dReadMisses, b.sys.l1dReadMisses);
    EXPECT_EQ(a.sys.stores, b.sys.stores);
    EXPECT_EQ(a.sys.l1dWriteMisses, b.sys.l1dWriteMisses);
    EXPECT_EQ(a.sys.writeOnlyReadMisses, b.sys.writeOnlyReadMisses);
    EXPECT_EQ(a.sys.l2iAccesses, b.sys.l2iAccesses);
    EXPECT_EQ(a.sys.l2iMisses, b.sys.l2iMisses);
    EXPECT_EQ(a.sys.l2dAccesses, b.sys.l2dAccesses);
    EXPECT_EQ(a.sys.l2dMisses, b.sys.l2dMisses);
    EXPECT_EQ(a.sys.l2DirtyMisses, b.sys.l2DirtyMisses);
    EXPECT_EQ(a.sys.l2WriteAllocates, b.sys.l2WriteAllocates);

    EXPECT_EQ(a.sys.wb.pushes, b.sys.wb.pushes);
    EXPECT_EQ(a.sys.wb.fullStalls, b.sys.wb.fullStalls);
    EXPECT_EQ(a.sys.wb.fullStallCycles, b.sys.wb.fullStallCycles);
    EXPECT_EQ(a.sys.wb.drainWaits, b.sys.wb.drainWaits);
    EXPECT_EQ(a.sys.wb.drainWaitCycles, b.sys.wb.drainWaitCycles);
    EXPECT_EQ(a.sys.wb.bypasses, b.sys.wb.bypasses);
    EXPECT_EQ(a.sys.wb.maxOccupancy, b.sys.wb.maxOccupancy);

    EXPECT_EQ(a.sys.memory.reads, b.sys.memory.reads);
    EXPECT_EQ(a.sys.memory.dirtyWritebacks, b.sys.memory.dirtyWritebacks);
    EXPECT_EQ(a.sys.memory.busWaitCycles, b.sys.memory.busWaitCycles);
    EXPECT_EQ(a.sys.memory.busWaits, b.sys.memory.busWaits);

    EXPECT_EQ(a.sys.itlb.accesses, b.sys.itlb.accesses);
    EXPECT_EQ(a.sys.itlb.misses, b.sys.itlb.misses);
    EXPECT_EQ(a.sys.dtlb.accesses, b.sys.dtlb.accesses);
    EXPECT_EQ(a.sys.dtlb.misses, b.sys.dtlb.misses);
}

/**
 * A six-config L1-D size ladder -- the shape of a real figure run,
 * scaled down so the whole test stays fast under TSan.
 */
std::vector<SweepJob>
ladder()
{
    std::vector<SweepJob> jobs;
    for (std::uint64_t words : {1024u, 2048u, 4096u, 8192u,
                                16384u, 32768u}) {
        SweepJob job;
        job.config = baseline();
        job.config.name = "l1d-" + std::to_string(words) + "w";
        job.config.l1d.sizeWords = words;
        job.mpLevel = 2;
        job.instructions = 20'000;
        job.warmup = 5'000;
        jobs.push_back(std::move(job));
    }
    return jobs;
}

TEST(Sweep, PoolIsBitIdenticalToSerialAtAnyWorkerCount)
{
    const auto jobs = ladder();

    // The serial reference: the exact per-job function, in order.
    std::vector<SimResult> serial;
    for (const auto &job : jobs)
        serial.push_back(runSweepJob(job));

    for (unsigned workers : {1u, 2u, 8u}) {
        SweepStats stats;
        const auto pooled = runSweepOutcomes(jobs, workers, &stats);
        ASSERT_EQ(pooled.size(), jobs.size()) << workers;
        EXPECT_EQ(stats.jobs, jobs.size());
        EXPECT_EQ(stats.workers, workers);
        EXPECT_GT(stats.references, 0u);
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            SCOPED_TRACE("workers=" + std::to_string(workers) +
                         " job=" + std::to_string(i));
            expectSameResult(pooled[i].result, serial[i]);
        }
    }
}

TEST(Sweep, ResultsComeBackInSubmissionOrder)
{
    const auto jobs = ladder();
    const auto results = runSweepOutcomes(jobs, 8);
    ASSERT_EQ(results.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i)
        EXPECT_EQ(results[i].result.configName, jobs[i].config.name);
}

TEST(Sweep, ExhaustedTraceEndsIdenticallySerialAndPooled)
{
    // A finite (non-looping) workload: the budget is far larger than
    // the trace, so the run ends on exhaustion, not on the budget.
    auto finite_workload = [] {
        std::vector<trace::MemRef> refs;
        for (int i = 0; i < 32; ++i) {
            refs.push_back(trace::instRef(0x40'0000 + 4 * i));
            if (i % 4 == 0)
                refs.push_back(trace::loadRef(0x80'0000 + 16 * i));
        }
        Workload wl;
        wl.add(std::make_unique<trace::VectorSource>(
                   "finite", std::move(refs)),
               1.0, "finite");
        return wl;
    };

    std::vector<SweepJob> jobs(3);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        jobs[i].config = baseline();
        jobs[i].config.name = "finite-" + std::to_string(i);
        jobs[i].instructions = 1'000'000;
        jobs[i].workload = finite_workload;
    }

    std::vector<SimResult> serial;
    for (const auto &job : jobs)
        serial.push_back(runSweepJob(job));
    EXPECT_EQ(serial[0].instructions, 32u);

    const auto pooled = runSweepOutcomes(jobs, 4);
    ASSERT_EQ(pooled.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        SCOPED_TRACE(i);
        expectSameResult(pooled[i].result, serial[i]);
    }
}

TEST(Sweep, SingleJobAndEmptyJobLists)
{
    std::vector<SweepJob> one = ladder();
    one.resize(1);

    const auto serial = runSweepJob(one[0]);
    SweepStats stats;
    const auto pooled = runSweepOutcomes(one, 8, &stats);
    ASSERT_EQ(pooled.size(), 1u);
    expectSameResult(pooled[0].result, serial);
    EXPECT_EQ(stats.jobs, 1u);

    const auto none = runSweepOutcomes({}, 4, &stats);
    EXPECT_TRUE(none.empty());
    EXPECT_EQ(stats.jobs, 0u);
}

TEST(Sweep, WorkerCountComesFromEnvironment)
{
    ::setenv("GAAS_BENCH_JOBS", "3", 1);
    EXPECT_EQ(sweepWorkers(), 3u);
    ::setenv("GAAS_BENCH_JOBS", "0", 1); // invalid: fall through
    EXPECT_GE(sweepWorkers(), 1u);
    ::unsetenv("GAAS_BENCH_JOBS");
    EXPECT_GE(sweepWorkers(), 1u);
}

TEST(Sweep, WorkerCountParsesStrictly)
{
    ::unsetenv("GAAS_BENCH_JOBS");
    const unsigned fallback = sweepWorkers();

    // A half-numeric value must be rejected whole, not read as its
    // numeric prefix ("4x" silently becoming 4 workers is the bug
    // this guards against).
    for (const char *bad :
         {"4x", "x4", "+4", "-4", " 4", "4 ", "0",
          "18446744073709551616",  // overflows uint64
          "4294967296"}) {         // valid uint64, overflows unsigned
        ::setenv("GAAS_BENCH_JOBS", bad, 1);
        EXPECT_EQ(sweepWorkers(), fallback) << '"' << bad << '"';
    }

    ::setenv("GAAS_BENCH_JOBS", "2", 1);
    EXPECT_EQ(sweepWorkers(), 2u);
    ::unsetenv("GAAS_BENCH_JOBS");
}

TEST(Sweep, PerJobTelemetryIsRecorded)
{
    const auto jobs = ladder();

    SweepStats serial_stats;
    runSweepOutcomes(jobs, 1, &serial_stats);
    ASSERT_EQ(serial_stats.perJob.size(), jobs.size());
    for (const auto &js : serial_stats.perJob) {
        EXPECT_EQ(js.worker, 0u);
        EXPECT_DOUBLE_EQ(js.queueWaitSeconds, 0.0);
        EXPECT_GE(js.buildSeconds, 0.0);
        EXPECT_GE(js.simSeconds, 0.0);
        // The phases are disjoint sub-intervals of the job total.
        EXPECT_LE(js.buildSeconds + js.simSeconds,
                  js.totalSeconds + 1e-9);
    }

    const unsigned workers = 3;
    SweepStats pooled_stats;
    runSweepOutcomes(jobs, workers, &pooled_stats);
    ASSERT_EQ(pooled_stats.perJob.size(), jobs.size());
    for (const auto &js : pooled_stats.perJob) {
        EXPECT_LT(js.worker, workers);
        EXPECT_GE(js.queueWaitSeconds, 0.0);
        EXPECT_LE(js.buildSeconds + js.simSeconds,
                  js.totalSeconds + 1e-9);
    }
}

TEST(Sweep, ProgressCallbackRunsInSubmissionOrder)
{
    const auto jobs = ladder();
    std::vector<std::string> seen;
    const auto results = runSweepOutcomes(
        jobs, 4, nullptr,
        [&seen](std::size_t index, SweepOutcome &outcome) {
            EXPECT_EQ(index, seen.size());
            EXPECT_EQ(outcome.status, PointStatus::Ok);
            seen.push_back(outcome.result.configName);
        });
    ASSERT_EQ(seen.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i)
        EXPECT_EQ(seen[i], jobs[i].config.name);
    ASSERT_EQ(results.size(), jobs.size());
}

/** RAII disarm so a failing test cannot leak an armed fault. */
struct FaultGuard
{
    explicit FaultGuard(const char *spec) { fault::configure(spec); }
    ~FaultGuard() { fault::reset(); }
};

TEST(Sweep, FailedJobIsIsolatedAndEveryOtherPointCompletes)
{
    const auto jobs = ladder();
    // Fail the 3rd sweep job; serial execution (workers = 1) makes
    // the process-wide hit counter deterministic.
    FaultGuard guard("sweep-job:3");

    SweepStats stats;
    const auto outcomes = runSweepOutcomes(jobs, 1, &stats);
    ASSERT_EQ(outcomes.size(), jobs.size());
    EXPECT_EQ(stats.failedPoints, 1u);
    EXPECT_EQ(stats.okPoints, jobs.size() - 1);

    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        SCOPED_TRACE(i);
        if (i == 2) {
            EXPECT_EQ(outcomes[i].status, PointStatus::Failed);
            EXPECT_EQ(outcomes[i].errorCode, ErrorCode::Internal);
            EXPECT_NE(outcomes[i].error.find("injected fault"),
                      std::string::npos);
            // Zeroed result, but the config name survives so the
            // figure row still labels itself.
            EXPECT_EQ(outcomes[i].result.configName,
                      jobs[i].config.name);
            EXPECT_EQ(outcomes[i].result.cycles, 0u);
        } else {
            EXPECT_EQ(outcomes[i].status, PointStatus::Ok);
            EXPECT_GT(outcomes[i].result.cycles, 0u);
        }
    }
}

TEST(Sweep, WatchdogTripsAsAStructuredFailure)
{
    // One cycle per instruction is an impossible budget: the very
    // first instruction (L1 fill from a cold cache) exceeds it, so
    // the watchdog must convert the runaway into a clean Failed
    // outcome instead of a wedged run.
    auto jobs = ladder();
    jobs.resize(2);
    jobs[1].watchdogCycles = 1;

    SweepStats stats;
    const auto outcomes = runSweepOutcomes(jobs, 1, &stats);
    ASSERT_EQ(outcomes.size(), 2u);
    EXPECT_EQ(outcomes[0].status, PointStatus::Ok);
    EXPECT_EQ(outcomes[1].status, PointStatus::Failed);
    EXPECT_EQ(outcomes[1].errorCode, ErrorCode::Watchdog);
    EXPECT_NE(outcomes[1].error.find("watchdog budget"),
              std::string::npos);
    EXPECT_EQ(stats.failedPoints, 1u);
}

TEST(Sweep, GenerousWatchdogBudgetChangesNothing)
{
    auto jobs = ladder();
    jobs.resize(2);
    const auto plain = runSweepOutcomes(jobs, 1);
    for (auto &job : jobs)
        job.watchdogCycles = 1'000'000;
    const auto watched = runSweepOutcomes(jobs, 1);
    ASSERT_EQ(watched.size(), plain.size());
    for (std::size_t i = 0; i < plain.size(); ++i) {
        SCOPED_TRACE(i);
        EXPECT_EQ(watched[i].status, PointStatus::Ok);
        expectSameResult(watched[i].result, plain[i].result);
    }
}

/**
 * Sampled jobs over two front ends (write-back and write-only L1
 * policies, three L2s each), plus one full-detail job that must run
 * alone.
 */
std::vector<SweepJob>
sampledJobs()
{
    std::vector<SweepJob> jobs;
    for (const WritePolicy policy :
         {WritePolicy::WriteBack, WritePolicy::WriteOnly}) {
        for (const std::uint64_t size : {32 * 1024, 128 * 1024,
                                         512 * 1024}) {
            SweepJob job;
            job.config = withWritePolicy(baseline(), policy);
            job.config.l2.cache.sizeWords = size;
            job.config.name.append(" ")
                .append(std::to_string(size / 1024))
                .append("KW");
            job.mpLevel = 4;
            job.instructions = 1'000'000;
            job.warmup = 200'000;
            job.sampling.enabled = true;
            jobs.push_back(std::move(job));
        }
    }
    SweepJob full = jobs.front();
    full.config.name += " full";
    full.sampling.enabled = false;
    full.instructions = 20'000;
    jobs.insert(jobs.begin() + 2, std::move(full));
    return jobs;
}

std::string
dumpOf(const SimResult &result)
{
    std::ostringstream os;
    dumpStats(result, os);
    return os.str();
}

/**
 * One group over a budget its schedule fits, with 50k-cycle slices
 * and a 1% precision target: two members size to 24 episodes and one
 * to 40, the slice guard sends the 16KW member solo, and a 120-cycle
 * watchdog fails the 64KW one.
 */
std::vector<SweepJob>
mixedGroup()
{
    std::vector<SweepJob> jobs;
    for (const std::uint64_t size :
         {16 * 1024, 32 * 1024, 64 * 1024, 256 * 1024, 1024 * 1024}) {
        SweepJob job;
        job.config = afterWritePolicy();
        job.config.l2.cache.sizeWords = size;
        job.config.timeSliceCycles = 50'000;
        job.config.name = "mixed " + std::to_string(size / 1024) + "KW";
        job.mpLevel = 4;
        job.instructions = 2'000'000;
        job.warmup = 500'000;
        job.sampling.enabled = true;
        job.sampling.targetRelHalfWidth = 0.01;
        jobs.push_back(std::move(job));
    }
    jobs[2].watchdogCycles = 120;
    return jobs;
}

TEST(Sweep, SampledJobsSharingAFrontEndFormUnits)
{
    const std::vector<SweepJob> jobs = sampledJobs();
    // Jobs 0,1,3 share the write-back front end and 4,5,6 the
    // write-only one; job 2 runs full detail.
    EXPECT_TRUE(sharesFrontEnd(jobs[0], jobs[3]));
    EXPECT_FALSE(sharesFrontEnd(jobs[0], jobs[4]));
    EXPECT_FALSE(sharesFrontEnd(jobs[0], jobs[2]));
    SweepJob custom = jobs[0];
    custom.workload = [] { return Workload::standard(4, 1); };
    EXPECT_FALSE(sharesFrontEnd(jobs[0], custom));
    SweepJob shortSlice = jobs[0];
    shortSlice.config.timeSliceCycles /= 2;
    EXPECT_FALSE(sharesFrontEnd(jobs[0], shortSlice));
    SweepJob otherBudget = jobs[0];
    otherBudget.instructions /= 2;
    EXPECT_FALSE(sharesFrontEnd(jobs[0], otherBudget));

    // One unit per front end, each in submission order.
    using Units = std::vector<std::vector<std::size_t>>;
    EXPECT_EQ(sweepUnits(jobs, {0, 1, 2, 3, 4, 5, 6}),
              (Units{{0, 1, 3}, {2}, {4, 5, 6}}));
    EXPECT_EQ(sweepUnits(jobs, {1, 3, 6}), (Units{{1, 3}, {6}}));
}

TEST(Sweep, GroupedUnitsMatchSoloJobsAtAnyWorkerCount)
{
    std::vector<SweepJob> jobs = sampledJobs();
    const std::vector<SweepJob> mixed = mixedGroup();
    jobs.insert(jobs.end(), mixed.begin(), mixed.end());
    std::vector<SweepOutcome> solo;
    for (const SweepJob &job : jobs)
        solo.push_back(runSweepJobIsolated(job));

    std::uint64_t recorded = 0;

    {
        // The mixed group covers what it should: rounds that close at
        // different episodes, a member sent solo by the slice guard
        // and a watchdog failure.  A member that stays runs to the
        // episode cap, which no commitment exceeds, so the front end
        // records episodes up to the cap however far it ran ahead of
        // the members that left: the recorded calls cannot depend on
        // the worker count.
        std::vector<SampledMember> members(mixed.size());
        for (std::size_t i = 0; i < mixed.size(); ++i) {
            members[i].config = mixed[i].config;
            members[i].watchdogCycles = mixed[i].watchdogCycles;
        }
        ThreadPool pool(2);
        const SweepJob &m0 = mixed.front();
        recorded = runSampledGroup(members, m0.sampling,
                                   m0.instructions, m0.mpLevel,
                                   m0.warmup, &pool, 2)
                       .recordedCalls;
        std::set<Count> intervals;
        std::size_t wentSolo = 0, failed = 0;
        for (const SampledMember &m : members) {
            if (m.failed)
                ++failed;
            else if (m.ranSolo)
                ++wentSolo;
            else
                intervals.insert(m.result.sampling.intervals);
        }
        EXPECT_EQ(failed, 1u);
        EXPECT_GE(wentSolo, 1u);
        ASSERT_GE(intervals.size(), 2u);
        EXPECT_EQ(*intervals.rbegin(), m0.sampling.maxIntervals);
    }

    // Every worker count on all the jobs, whose grouped units queue
    // their helpers behind other units on the shared pool, and the
    // mixed group alone, whose helpers wait behind none.
    const std::size_t mixedFrom = jobs.size() - mixed.size();
    const std::pair<std::size_t, unsigned> runs[] = {
        {0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 7}, {mixedFrom, 4}};
    for (const auto &[from, workers] : runs) {
        SCOPED_TRACE("jobs from " + std::to_string(from) + ", workers " +
                     std::to_string(workers));
        const std::vector<SweepJob> set(jobs.begin() + from, jobs.end());
        SweepStats stats;
        const auto outcomes = runSweepOutcomes(set, workers, &stats);
        ASSERT_EQ(outcomes.size(), set.size());
        EXPECT_EQ(stats.failedPoints, 1u);
        for (std::size_t i = 0; i < set.size(); ++i) {
            SCOPED_TRACE(set[i].config.name);
            const SweepOutcome &alone = solo[from + i];
            EXPECT_EQ(outcomes[i].status, alone.status);
            EXPECT_EQ(outcomes[i].errorCode, alone.errorCode);
            EXPECT_EQ(outcomes[i].error, alone.error);
            EXPECT_EQ(dumpOf(outcomes[i].result), dumpOf(alone.result));
            EXPECT_GT(outcomes[i].stats.simSeconds, 0.0);
        }
        // Only the mixed group's schedule fits its budget, so only it
        // records, and its front end runs once at any worker count.
        EXPECT_GT(recorded, 0u);
        EXPECT_EQ(stats.grouped.recordedCalls, recorded);
        EXPECT_GT(stats.grouped.frontEndSeconds, 0.0);
        EXPECT_GT(stats.grouped.replaySeconds, 0.0);
    }
}

/** sampledJobs() with @p unit's jobs given a budget the sampling
 *  schedule fits, so the unit records and replays instead of running
 *  every job solo. */
std::vector<SweepJob>
recordingJobs(const std::vector<std::size_t> &unit)
{
    std::vector<SweepJob> jobs = sampledJobs();
    for (const std::size_t i : unit)
        jobs[i].instructions = 2'000'000;
    return jobs;
}

TEST(Sweep, GroupedUnitCountsFaultsPerJob)
{
    const std::vector<std::size_t> unit = {0, 1, 3};
    const std::vector<SweepJob> jobs = recordingJobs(unit);
    std::string expected;
    {
        // The message a solo job's injected fault carries.
        FaultGuard guard("sweep-job:1");
        expected = runSweepJobIsolated(jobs[1]).error;
    }
    FaultGuard guard("sweep-job:2");
    GroupStats grouped;
    const std::vector<SweepOutcome> outs =
        runSweepUnit(jobs, unit, nullptr, 0, &grouped);
    EXPECT_GT(grouped.recordedCalls, 0u);
    ASSERT_EQ(outs.size(), 3u);
    EXPECT_EQ(outs[0].status, PointStatus::Ok);
    EXPECT_EQ(outs[1].status, PointStatus::Failed);
    EXPECT_EQ(outs[1].errorCode, ErrorCode::Internal);
    EXPECT_EQ(outs[1].error, expected);
    EXPECT_EQ(outs[1].result.configName, jobs[1].config.name);
    // The failed job still takes its share of the unit's setup.
    EXPECT_GT(outs[1].stats.totalSeconds, 0.0);
    EXPECT_EQ(outs[2].status, PointStatus::Ok);
    EXPECT_EQ(dumpOf(outs[2].result), dumpOf(runSweepJob(jobs[3])));
}

TEST(Sweep, GroupedUnitFailsFrontEndErrorsEverywhereAndBackEndOnesAlone)
{
    const std::vector<std::size_t> unit = {0, 1, 3};
    std::vector<SweepJob> jobs = recordingJobs(unit);

    // A back-end error: an L2 access time of 0 fails its own job, as
    // it would alone, and the rest of the group records and replays.
    jobs[1].config.l2.accessTime = 0;
    GroupStats grouped;
    std::vector<SweepOutcome> outs =
        runSweepUnit(jobs, unit, nullptr, 0, &grouped);
    EXPECT_GT(grouped.recordedCalls, 0u);
    const SweepOutcome alone = runSweepJobIsolated(jobs[1]);
    ASSERT_EQ(alone.status, PointStatus::Failed);
    EXPECT_EQ(outs[0].status, PointStatus::Ok);
    EXPECT_EQ(outs[1].status, PointStatus::Failed);
    EXPECT_EQ(outs[1].errorCode, alone.errorCode);
    EXPECT_EQ(outs[1].error, alone.error);
    EXPECT_EQ(outs[2].status, PointStatus::Ok);

    // A front-end error -- a plan no schedule can run -- fails every
    // job of the unit, each with its solo error.
    jobs = recordingJobs(unit);
    for (const std::size_t i : unit)
        jobs[i].sampling.headInstructions = 0;
    outs = runSweepUnit(jobs, unit);
    for (std::size_t k = 0; k < unit.size(); ++k) {
        SCOPED_TRACE(k);
        const SweepOutcome solo = runSweepJobIsolated(jobs[unit[k]]);
        EXPECT_EQ(outs[k].status, PointStatus::Failed);
        EXPECT_EQ(outs[k].errorCode, solo.errorCode);
        EXPECT_EQ(outs[k].error, solo.error);
    }
}

/** A grouped unit's job seconds sum to its wall time when it runs
 *  alone, and to its busy thread-seconds beside helpers. */
TEST(Sweep, GroupedUnitTimeSumsToItsWallAndCancelStopsIt)
{
    const std::vector<std::size_t> unit = {4, 5, 6};
    const std::vector<SweepJob> jobs = recordingJobs(unit);
    ThreadPool pool(2);
    for (const unsigned count : {0u, 2u}) {
        SCOPED_TRACE("helpers " + std::to_string(count));
        GroupStats grouped;
        const obs::Stopwatch wall;
        const std::vector<SweepOutcome> outs =
            runSweepUnit(jobs, unit, &pool, count, &grouped);
        const double outer = wall.seconds();
        double sum = 0.0;
        for (const SweepOutcome &out : outs) {
            EXPECT_EQ(out.status, PointStatus::Ok);
            EXPECT_GT(out.stats.simSeconds, 0.0);
            EXPECT_EQ(out.stats.simSeconds, out.stats.totalSeconds);
            EXPECT_EQ(out.stats.buildSeconds, 0.0);
            sum += out.stats.totalSeconds;
        }
        // Each job is a third of the front-end pass plus its own
        // replays, so the jobs sum to the unit's busy thread-seconds:
        // at most one thread's worth of its wall per thread, and at
        // least the wall, less scheduling noise, since the front end
        // waits only while a helper replays.
        EXPECT_GT(grouped.frontEndSeconds, 0.0);
        EXPECT_GT(grouped.replaySeconds, 0.0);
        EXPECT_GT(grouped.recordedCalls, 0u);
        EXPECT_NEAR(sum, grouped.frontEndSeconds + grouped.replaySeconds,
                    1e-9 * sum);
        EXPECT_LE(sum, (1 + count) * outer);
        EXPECT_GT(sum, 0.5 * outer);
        // The front end's arena work is charged once, to the first
        // job.
        EXPECT_EQ(outs[1].stats.arenaStreamsReused +
                      outs[1].stats.arenaStreamsGenerated,
                  0u);
    }

    requestSweepCancel();
    const std::vector<SweepOutcome> cancelled =
        runSweepUnit(jobs, unit, &pool, 2);
    clearSweepCancel();
    for (const SweepOutcome &out : cancelled)
        EXPECT_EQ(out.errorCode, ErrorCode::Cancelled);
}

TEST(Sweep, PointStatusNamesRoundTrip)
{
    for (PointStatus status : {PointStatus::Ok, PointStatus::Failed,
                               PointStatus::Degraded}) {
        PointStatus parsed;
        ASSERT_TRUE(parsePointStatus(pointStatusName(status),
                                     parsed));
        EXPECT_EQ(parsed, status);
    }
    PointStatus ignored;
    EXPECT_FALSE(parsePointStatus("nonsense", ignored));
    EXPECT_FALSE(parsePointStatus("", ignored));
}

} // namespace
} // namespace gaas::core
