/**
 * @file
 * Tests for the multi-process sweep executor (proc/executor.hh):
 * sharding across forked workers must be bit-identical to the
 * serial engine at any worker count; an injected worker SIGKILL or
 * hang costs a requeue (and a respawn), never the run; a job whose
 * workers keep dying degrades to failed:worker-lost after the
 * attempt budget; and journal reuse and cooperative cancellation
 * behave exactly as in-process.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "core/config.hh"
#include "core/journal.hh"
#include "core/stats_dump.hh"
#include "core/sweep.hh"
#include "proc/executor.hh"
#include "util/error.hh"
#include "util/fault.hh"

namespace gaas::proc
{
namespace
{

using core::PointStatus;
using core::SweepJob;
using core::SweepOutcome;
using core::SweepStats;

/** A fresh per-test scratch directory under the gtest temp root. */
std::string
scratchDir(const std::string &name)
{
    const std::string dir = ::testing::TempDir() + "mproc-" + name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

/**
 * The deterministic full-stats dump: the same text goldencheck and
 * benchspeed byte-compare, so "equal dumps" is the executor's
 * bit-identity contract, not an approximation.
 */
std::string
dump(const core::SimResult &result)
{
    std::ostringstream os;
    core::dumpStats(result, os);
    return os.str();
}

/** A small L1-D ladder, TSan-sized (same shape as test_sweep's). */
std::vector<SweepJob>
ladder(std::size_t points = 6)
{
    std::vector<SweepJob> jobs;
    std::uint64_t words = 1024;
    for (std::size_t i = 0; i < points; ++i, words *= 2) {
        SweepJob job;
        job.config = core::baseline();
        job.config.name = "l1d-" + std::to_string(words) + "w";
        job.config.l1d.sizeWords = words;
        job.mpLevel = 2;
        job.instructions = 20'000;
        job.warmup = 5'000;
        jobs.push_back(std::move(job));
    }
    return jobs;
}

/** Fast-failure supervision knobs so fault tests stay quick. */
MprocOptions
fastOptions(unsigned workers)
{
    MprocOptions o;
    o.workers = workers;
    o.backoffMs = 1;
    o.heartbeatMs = 20;
    o.heartbeatMiss = 5;
    return o;
}

TEST(Mproc, ShardingIsBitIdenticalToSerialAtAnyWorkerCount)
{
    const auto jobs = ladder();
    const auto serial = core::runSweepOutcomes(jobs, 1);

    for (unsigned workers : {1u, 2u, 4u}) {
        MprocOptions o;
        o.workers = workers;
        SweepStats stats;
        const auto sharded = runSweepMproc(jobs, o, &stats);
        ASSERT_EQ(sharded.size(), jobs.size()) << workers;
        EXPECT_TRUE(stats.mproc);
        EXPECT_EQ(stats.workers, workers);
        EXPECT_EQ(stats.workerRespawns, 0u);
        EXPECT_EQ(stats.requeuedJobs, 0u);
        ASSERT_EQ(stats.perJob.size(), jobs.size());
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            SCOPED_TRACE("workers=" + std::to_string(workers) +
                         " job=" + std::to_string(i));
            EXPECT_EQ(sharded[i].status, PointStatus::Ok);
            EXPECT_EQ(dump(sharded[i].result),
                      dump(serial[i].result));
            EXPECT_LT(stats.perJob[i].worker, workers);
        }
    }
}

TEST(Mproc, ThrowingJobFailsThePointNotTheWorker)
{
    fault::configure("sweep-job:2");
    auto jobs = ladder(3);
    SweepStats stats;
    const auto outcomes = runSweepMproc(jobs, fastOptions(1), &stats);
    fault::reset();

    ASSERT_EQ(outcomes.size(), 3u);
    EXPECT_EQ(outcomes[0].status, PointStatus::Ok);
    EXPECT_EQ(outcomes[1].status, PointStatus::Failed);
    EXPECT_EQ(outcomes[1].errorCode, ErrorCode::Internal);
    EXPECT_EQ(outcomes[2].status, PointStatus::Ok);
    // The worker survived the throw: no deaths, no respawns.
    EXPECT_EQ(stats.workerRespawns, 0u);
    EXPECT_EQ(stats.requeuedJobs, 0u);
}

TEST(Mproc, KilledWorkerIsRequeuedAndResultsAreIdentical)
{
    const auto jobs = ladder();
    const auto serial = core::runSweepOutcomes(jobs, 1);

    fault::configure("worker-kill:1");
    SweepStats stats;
    const auto outcomes = runSweepMproc(jobs, fastOptions(2), &stats);
    fault::reset();

    ASSERT_EQ(outcomes.size(), jobs.size());
    EXPECT_GE(stats.requeuedJobs, 1u);
    EXPECT_GE(stats.workerRespawns, 1u);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        SCOPED_TRACE(i);
        EXPECT_EQ(outcomes[i].status, PointStatus::Ok);
        EXPECT_EQ(dump(outcomes[i].result), dump(serial[i].result));
    }
    // Exactly one job carries the requeue in its telemetry.
    unsigned requeued = 0;
    for (const auto &js : stats.perJob)
        requeued += js.requeues;
    EXPECT_EQ(requeued, 1u);
}

TEST(Mproc, HungWorkerIsDetectedByHeartbeatAndRequeued)
{
    const auto jobs = ladder(3);
    const auto serial = core::runSweepOutcomes(jobs, 1);

    fault::configure("worker-hang:1");
    SweepStats stats;
    const auto outcomes = runSweepMproc(jobs, fastOptions(2), &stats);
    fault::reset();

    ASSERT_EQ(outcomes.size(), jobs.size());
    EXPECT_GE(stats.requeuedJobs, 1u);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        SCOPED_TRACE(i);
        EXPECT_EQ(outcomes[i].status, PointStatus::Ok);
        EXPECT_EQ(dump(outcomes[i].result), dump(serial[i].result));
    }
}

TEST(Mproc, PoisonJobDegradesToWorkerLostAfterAttemptBudget)
{
    // One job whose worker dies on every dispatch: after
    // maxAttempts the supervisor stops burning processes on it.
    fault::configure(
        "worker-kill:1,worker-kill:2,worker-kill:3,worker-kill:4");
    auto jobs = ladder(1);
    MprocOptions o = fastOptions(1);
    o.maxAttempts = 3;
    SweepStats stats;
    const auto outcomes = runSweepMproc(jobs, o, &stats);
    fault::reset();

    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_EQ(outcomes[0].status, PointStatus::Failed);
    EXPECT_EQ(outcomes[0].errorCode, ErrorCode::WorkerLost);
    EXPECT_EQ(outcomes[0].result.configName, jobs[0].config.name);
    EXPECT_EQ(stats.failedPoints, 1u);
    EXPECT_EQ(stats.requeuedJobs, 2u); // 3 attempts = 2 requeues
    ASSERT_EQ(stats.perJob.size(), 1u);
    EXPECT_EQ(stats.perJob[0].requeues, 2u);
}

TEST(Mproc, JournaledPointsAreReusedAcrossProcessModes)
{
    const std::string dir = scratchDir("journal-reuse");
    const std::string path = dir + "/journal.jsonl";
    const auto jobs = ladder(3);

    // First pass: multi-process, journaling as it goes.
    std::vector<std::string> first;
    {
        core::RunJournal journal;
        ASSERT_TRUE(journal.open(path));
        SweepStats stats;
        const auto outcomes = runSweepMproc(
            jobs, fastOptions(2), &stats, {}, &journal);
        for (const auto &out : outcomes) {
            EXPECT_EQ(out.status, PointStatus::Ok);
            EXPECT_FALSE(out.reused);
            first.push_back(dump(out.result));
        }
    }

    // Second pass reuses every point -- and the in-process engine
    // reads the same journal the process pool wrote, proving the
    // record format is shared, not parallel.
    {
        core::RunJournal journal;
        ASSERT_TRUE(journal.open(path));
        EXPECT_EQ(journal.loadedRecords(), jobs.size());
        SweepStats stats;
        const auto outcomes = runSweepMproc(
            jobs, fastOptions(2), &stats, {}, &journal);
        ASSERT_EQ(outcomes.size(), jobs.size());
        EXPECT_EQ(stats.reusedPoints, jobs.size());
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            EXPECT_TRUE(outcomes[i].reused);
            EXPECT_EQ(dump(outcomes[i].result), first[i]);
        }
    }
    std::filesystem::remove_all(dir);
}

TEST(Mproc, CancelFailsQueuedPointsWithoutJournalingThem)
{
    const std::string dir = scratchDir("cancel");
    const std::string path = dir + "/journal.jsonl";
    const auto jobs = ladder(4);

    {
        core::RunJournal journal;
        ASSERT_TRUE(journal.open(path));
        core::requestSweepCancel();
        const auto outcomes = runSweepMproc(
            jobs, fastOptions(2), nullptr, {}, &journal);
        core::clearSweepCancel();
        ASSERT_EQ(outcomes.size(), jobs.size());
        for (const auto &out : outcomes) {
            EXPECT_EQ(out.status, PointStatus::Failed);
            EXPECT_EQ(out.errorCode, ErrorCode::Cancelled);
        }
    }
    // Nothing was journaled: a resumed run must re-simulate.
    core::RunJournal journal;
    ASSERT_TRUE(journal.open(path));
    EXPECT_EQ(journal.loadedRecords(), 0u);
    std::filesystem::remove_all(dir);
}

TEST(Mproc, EmptyJobListIsANoOp)
{
    SweepStats stats;
    const auto outcomes =
        runSweepMproc({}, fastOptions(4), &stats);
    EXPECT_TRUE(outcomes.empty());
    EXPECT_EQ(stats.jobs, 0u);
}

} // namespace
} // namespace gaas::proc
