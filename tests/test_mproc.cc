/**
 * @file
 * Tests for the multi-process sweep executor (proc/executor.hh):
 * sharding across forked workers must be bit-identical to the
 * serial engine at any worker count; an injected worker SIGKILL or
 * hang costs a requeue (and a respawn), never the run; a job whose
 * workers keep dying degrades to failed:worker-lost after the
 * attempt budget; and journal reuse and cooperative cancellation
 * behave exactly as in-process.  The Protocol tests check the frame
 * codec on its own: outcomes round-trip exactly, and every malformed
 * frame throws SimError, which the supervisor treats as a lost
 * worker.
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
#include "proc/protocol.hh"
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

/** @p payload behind its 4-byte little-endian length prefix. */
std::string
framed(const std::string &payload)
{
    std::string out;
    for (int i = 0; i < 4; ++i) {
        const std::size_t byte = (payload.size() >> (8 * i)) & 0xff;
        out.push_back(static_cast<char>(byte));
    }
    return out + payload;
}

/** One Ok, one Degraded and one Failed outcome, each with job stats. */
std::vector<SweepOutcome>
sampleOutcomes()
{
    SweepOutcome ok = core::runSweepJobIsolated(ladder(1)[0]);
    ok.stats.buildSeconds = 0.1;
    ok.stats.simSeconds = 1.0 / 3.0;
    ok.stats.totalSeconds = 2.5e-7;
    ok.stats.arenaStreamsGenerated = 3;
    ok.stats.arenaStreamsReused = 5;
    ok.stats.arenaRefsGenerated = 123'456'789'012;
    ok.stats.arenaGenSeconds = 1e-9;

    SweepOutcome degraded = ok;
    degraded.status = PointStatus::Degraded;

    SweepOutcome failed;
    failed.status = PointStatus::Failed;
    failed.errorCode = ErrorCode::Watchdog;
    failed.error = "fatal: \"quoted\"\nsecond line";
    failed.result.configName = "failed-config";
    failed.stats = ok.stats;
    return {ok, degraded, failed};
}

TEST(Protocol, OutcomesRoundTripExactly)
{
    for (const SweepOutcome &orig : sampleOutcomes()) {
        SCOPED_TRACE(core::pointStatusName(orig.status));
        ASSERT_EQ(orig.status == PointStatus::Failed,
                  orig.result.cycles == 0);
        const std::string payload = encodeResult(7, orig);
        std::uint64_t job = 0;
        SweepOutcome back;
        ASSERT_EQ(decodeResponse(payload, job, back), FrameType::Result);
        EXPECT_EQ(job, 7u);
        EXPECT_EQ(back.status, orig.status);
        EXPECT_EQ(back.errorCode, orig.errorCode);
        EXPECT_EQ(back.error, orig.error);
        EXPECT_EQ(back.result.configName, orig.result.configName);
        EXPECT_EQ(dump(back.result), dump(orig.result));
        EXPECT_EQ(back.result.hostSeconds, orig.result.hostSeconds);
        EXPECT_EQ(back.stats.buildSeconds, orig.stats.buildSeconds);
        EXPECT_EQ(back.stats.simSeconds, orig.stats.simSeconds);
        EXPECT_EQ(back.stats.totalSeconds, orig.stats.totalSeconds);
        EXPECT_EQ(back.stats.arenaStreamsGenerated,
                  orig.stats.arenaStreamsGenerated);
        EXPECT_EQ(back.stats.arenaStreamsReused,
                  orig.stats.arenaStreamsReused);
        EXPECT_EQ(back.stats.arenaRefsGenerated,
                  orig.stats.arenaRefsGenerated);
        EXPECT_EQ(back.stats.arenaGenSeconds,
                  orig.stats.arenaGenSeconds);
        EXPECT_EQ(encodeResult(7, back), payload);
    }
}

TEST(Protocol, FrameSplitterReassemblesFramesFedOneByteAtATime)
{
    const std::vector<std::string> payloads = {
        encodeHeartbeat(), encodeResult(3, sampleOutcomes()[0]),
        encodeJobRequest(9, kFlagKill), encodeShutdown()};
    std::string stream;
    for (const std::string &p : payloads)
        stream += framed(p);

    FrameSplitter splitter;
    std::vector<std::string> got;
    std::string payload;
    for (const char c : stream) {
        splitter.feed(&c, 1);
        while (splitter.next(payload))
            got.push_back(payload);
    }
    EXPECT_EQ(got, payloads);
    EXPECT_EQ(splitter.pendingBytes(), 0u);
}

TEST(Protocol, MalformedFramesThrowSimError)
{
    FrameSplitter splitter;
    const char oversized[4] = {'\xff', '\xff', '\xff', '\x7f'};
    splitter.feed(oversized, sizeof oversized);
    std::string payload;
    EXPECT_THROW(splitter.next(payload), SimError);

    const std::string unknown(1, static_cast<char>(99));
    std::uint64_t job = 0;
    SweepOutcome out;
    EXPECT_THROW(decodeRequest(unknown), SimError);
    EXPECT_THROW(decodeResponse(unknown, job, out), SimError);

    EXPECT_THROW(decodeRequest(encodeJobRequest(1, 0).substr(0, 5)),
                 SimError);

    const std::string failed = encodeResult(7, sampleOutcomes()[2]);
    EXPECT_THROW(decodeResponse(failed.substr(0, 5), job, out),
                 SimError);

    std::string bogus = failed;
    const std::size_t status = bogus.find("\"failed\"");
    ASSERT_NE(status, std::string::npos);
    bogus.replace(status, 8, "\"bogus\"");
    EXPECT_THROW(decodeResponse(bogus, job, out), SimError);

    const std::size_t stats = failed.find(",\"stats\":");
    ASSERT_NE(stats, std::string::npos);
    EXPECT_THROW(decodeResponse(failed.substr(0, stats) + "}", job, out),
                 SimError);
}

TEST(Protocol, TruncatedResultJsonThrowsSimError)
{
    // A well-framed Result whose JSON is cut short: the supervisor
    // catches SimError only, so anything else would escape it.
    const std::string payload = encodeResult(7, SweepOutcome{});
    std::uint64_t job = 0;
    SweepOutcome out;
    EXPECT_THROW(
        decodeResponse(payload.substr(0, payload.size() - 5), job, out),
        SimError);
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
