/**
 * @file
 * The contract of core::driveSweep, checked once per
 * executor: the in-process thread pool (core::runSweepOutcomes) and
 * the forked worker processes (proc::runSweepMproc) must finalize
 * points the same way.  A failed journal append degrades an Ok
 * point, a point the progress callback downgrades is journaled as
 * downgraded, cancelled points never reach the journal, and a second
 * pass over the same journal reuses every point and appends nothing.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/config.hh"
#include "core/journal.hh"
#include "core/stats_dump.hh"
#include "core/sweep.hh"
#include "proc/executor.hh"
#include "util/fault.hh"

namespace gaas::core
{
namespace
{

enum class Executor
{
    Pool,
    Processes,
};

const char *
executorName(Executor e)
{
    return e == Executor::Pool ? "Pool" : "Processes";
}

std::string
paramName(const ::testing::TestParamInfo<Executor> &info)
{
    return executorName(info.param);
}

/** Stable ctest names: print the executor, not its bytes. */
void
PrintTo(Executor e, std::ostream *os)
{
    *os << executorName(e);
}

/** A small L1-D ladder, TSan-sized (same shape as test_sweep's). */
std::vector<SweepJob>
ladder(std::size_t points)
{
    std::vector<SweepJob> jobs;
    std::uint64_t words = 1024;
    for (std::size_t i = 0; i < points; ++i, words *= 2) {
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

std::string
dump(const SimResult &result)
{
    std::ostringstream os;
    dumpStats(result, os);
    return os.str();
}

class SweepContract : public ::testing::TestWithParam<Executor>
{
  protected:
    void
    SetUp() override
    {
        std::string name =
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
        for (char &c : name)
            if (c == '/')
                c = '-';
        dir = ::testing::TempDir() + "sweep-contract-" + name;
        std::filesystem::remove_all(dir);
        std::filesystem::create_directories(dir);
        path = dir + "/journal.jsonl";
    }

    void
    TearDown() override
    {
        fault::reset();
        clearSweepCancel();
        std::filesystem::remove_all(dir);
    }

    /** Two workers of the executor under test. */
    std::vector<SweepOutcome>
    sweep(const std::vector<SweepJob> &jobs, SweepStats *stats,
          const SweepProgress &progress, RunJournal &journal)
    {
        if (GetParam() == Executor::Pool)
            return runSweepOutcomes(jobs, 2, stats, progress,
                                    &journal);
        proc::MprocOptions o;
        o.workers = 2;
        o.backoffMs = 1;
        return proc::runSweepMproc(jobs, o, stats, progress, &journal);
    }

    std::string dir;
    std::string path;
};

TEST_P(SweepContract, FailedJournalAppendDegradesTheOkPoint)
{
    const auto jobs = ladder(4);
    SweepStats stats;
    {
        RunJournal journal;
        ASSERT_TRUE(journal.open(path));
        // Appends happen in submission order on the calling thread,
        // so the first one -- point 0's -- is the one that fails.
        fault::configure("journal-write:1");
        const auto outcomes = sweep(jobs, &stats, {}, journal);
        fault::reset();

        ASSERT_EQ(outcomes.size(), jobs.size());
        EXPECT_EQ(outcomes[0].status, PointStatus::Degraded);
        for (std::size_t i = 1; i < outcomes.size(); ++i)
            EXPECT_EQ(outcomes[i].status, PointStatus::Ok) << i;
    }
    EXPECT_EQ(stats.mproc, GetParam() == Executor::Processes);
    EXPECT_EQ(stats.degradedPoints, 1u);
    EXPECT_EQ(stats.okPoints, jobs.size());
    EXPECT_EQ(stats.failedPoints, 0u);

    RunJournal reloaded;
    ASSERT_TRUE(reloaded.open(path));
    EXPECT_EQ(reloaded.loadedRecords(), jobs.size() - 1);
    EXPECT_EQ(reloaded.find(sweepJobKey(jobs[0])), nullptr);
    for (std::size_t i = 1; i < jobs.size(); ++i) {
        const JournalRecord *rec = reloaded.find(sweepJobKey(jobs[i]));
        ASSERT_NE(rec, nullptr) << i;
        EXPECT_EQ(rec->status, PointStatus::Ok) << i;
    }
}

TEST_P(SweepContract, ProgressDowngradeIsJournaled)
{
    const auto jobs = ladder(4);
    SweepStats stats;
    {
        RunJournal journal;
        ASSERT_TRUE(journal.open(path));
        const auto outcomes = sweep(
            jobs, &stats,
            [](std::size_t i, SweepOutcome &out) {
                if (i == 1)
                    out.status = PointStatus::Degraded;
            },
            journal);
        ASSERT_EQ(outcomes.size(), jobs.size());
        EXPECT_EQ(outcomes[1].status, PointStatus::Degraded);
    }
    EXPECT_EQ(stats.degradedPoints, 1u);

    RunJournal reloaded;
    ASSERT_TRUE(reloaded.open(path));
    EXPECT_EQ(reloaded.loadedRecords(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const JournalRecord *rec = reloaded.find(sweepJobKey(jobs[i]));
        ASSERT_NE(rec, nullptr) << i;
        EXPECT_EQ(rec->status, i == 1 ? PointStatus::Degraded
                                      : PointStatus::Ok)
            << i;
    }
}

TEST_P(SweepContract, CancelledPointsAreNeverJournaled)
{
    const auto jobs = ladder(6);

    // Cancelled before the sweep starts: every point drains as
    // cancelled and the journal stays empty.
    {
        RunJournal journal;
        ASSERT_TRUE(journal.open(path));
        requestSweepCancel();
        SweepStats stats;
        const auto outcomes = sweep(jobs, &stats, {}, journal);
        clearSweepCancel();
        ASSERT_EQ(outcomes.size(), jobs.size());
        for (const auto &out : outcomes) {
            EXPECT_EQ(out.status, PointStatus::Failed);
            EXPECT_EQ(out.errorCode, ErrorCode::Cancelled);
        }
        EXPECT_EQ(stats.failedPoints, jobs.size());
    }
    {
        RunJournal reloaded;
        ASSERT_TRUE(reloaded.open(path));
        EXPECT_EQ(reloaded.loadedRecords(), 0u);
    }

    // Cancelled from the first point's progress callback: whatever
    // the executor had already started finishes and is journaled,
    // and nothing cancelled is.
    std::vector<SweepOutcome> outcomes;
    {
        RunJournal journal;
        ASSERT_TRUE(journal.open(path));
        outcomes = sweep(
            jobs, nullptr,
            [](std::size_t i, SweepOutcome &) {
                if (i == 0)
                    requestSweepCancel();
            },
            journal);
        clearSweepCancel();
    }
    ASSERT_EQ(outcomes.size(), jobs.size());
    EXPECT_EQ(outcomes[0].status, PointStatus::Ok);
    RunJournal reloaded;
    ASSERT_TRUE(reloaded.open(path));
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        SCOPED_TRACE(i);
        const bool cancelled =
            outcomes[i].errorCode == ErrorCode::Cancelled;
        EXPECT_EQ(reloaded.find(sweepJobKey(jobs[i])) == nullptr,
                  cancelled);
    }
}

TEST_P(SweepContract, SecondPassReusesEveryPointAndAppendsNothing)
{
    const auto jobs = ladder(4);
    std::vector<std::string> first;
    {
        RunJournal journal;
        ASSERT_TRUE(journal.open(path));
        for (const auto &out : sweep(jobs, nullptr, {}, journal)) {
            EXPECT_EQ(out.status, PointStatus::Ok);
            EXPECT_FALSE(out.reused);
            first.push_back(dump(out.result));
        }
    }
    const auto bytes = std::filesystem::file_size(path);

    RunJournal journal;
    ASSERT_TRUE(journal.open(path));
    SweepStats stats;
    std::size_t seen = 0;
    const auto outcomes = sweep(
        jobs, &stats,
        [&seen](std::size_t i, SweepOutcome &out) {
            EXPECT_EQ(i, seen++);
            EXPECT_TRUE(out.reused);
        },
        journal);
    journal.close();

    EXPECT_EQ(seen, jobs.size());
    EXPECT_EQ(stats.reusedPoints, jobs.size());
    EXPECT_EQ(stats.okPoints, jobs.size());
    ASSERT_EQ(outcomes.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_TRUE(outcomes[i].reused) << i;
        EXPECT_EQ(dump(outcomes[i].result), first[i]) << i;
    }
    EXPECT_EQ(std::filesystem::file_size(path), bytes);
}

INSTANTIATE_TEST_SUITE_P(Executors, SweepContract,
                         ::testing::Values(Executor::Pool,
                                           Executor::Processes),
                         paramName);

} // namespace
} // namespace gaas::core
