/**
 * @file
 * Tests for the resume journal stack: core/result_io must round-trip
 * a SimResult bit-exactly (that is what makes resumed CSVs
 * byte-identical), core/journal must survive torn trailing lines and
 * reject corrupt ones, keys must track everything that determines a
 * result, an injected journal-write fault must degrade (not abort),
 * and a journaled sweep re-run must reuse every point with results
 * indistinguishable from the first run.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/config.hh"
#include "core/journal.hh"
#include "core/result_io.hh"
#include "core/sweep.hh"
#include "obs/json.hh"
#include "trace/v3.hh"
#include "util/error.hh"
#include "util/fault.hh"

namespace gaas::core
{
namespace
{

/** A fresh per-test scratch directory under the gtest temp root. */
std::string
scratchDir(const std::string &name)
{
    const std::string dir = ::testing::TempDir() + "journal-" + name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

/** One small but real simulation result (nonzero counters/doubles). */
SimResult
sampleResult()
{
    SweepJob job;
    job.config = baseline();
    job.config.name = "journal-sample";
    job.mpLevel = 2;
    job.instructions = 10'000;
    job.warmup = 2'000;
    return runSweepJob(job);
}

/** Replace the contents of @p path with @p text. */
void
writeText(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
}

/** The whole of @p path. */
std::string
readText(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
}

/** The exact-serialization fingerprint of @p r (every field). */
std::string
fingerprint(const SimResult &r)
{
    return obs::writeJsonCompact(resultToJson(r));
}

/** A small two-config ladder for resume tests. */
std::vector<SweepJob>
smallLadder()
{
    std::vector<SweepJob> jobs;
    for (std::uint64_t words : {1024u, 4096u}) {
        SweepJob job;
        job.config = baseline();
        job.config.name = "jl-" + std::to_string(words) + "w";
        job.config.l1d.sizeWords = words;
        job.mpLevel = 2;
        job.instructions = 10'000;
        job.warmup = 2'000;
        jobs.push_back(std::move(job));
    }
    return jobs;
}

TEST(ResultIo, RoundTripIsExact)
{
    const SimResult original = sampleResult();
    ASSERT_GT(original.cycles, 0u);
    ASSERT_GT(original.hostSeconds, 0.0);

    const SimResult reloaded = resultFromJson(resultToJson(original));
    // Bit-exactness of every field, host-timing doubles included --
    // the shortest-round-trip formatting must reproduce them.
    EXPECT_EQ(fingerprint(reloaded), fingerprint(original));
    EXPECT_EQ(reloaded.configName, original.configName);
    EXPECT_EQ(reloaded.cycles, original.cycles);
    EXPECT_EQ(reloaded.hostSeconds, original.hostSeconds);
    EXPECT_EQ(reloaded.hostStatsSeconds, original.hostStatsSeconds);
}

TEST(ResultIo, MissingFieldIsAStatsIoError)
{
    obs::JsonValue v = resultToJson(sampleResult());
    const std::string text = obs::writeJsonCompact(v);
    // Drop one counter by re-parsing a surgically edited dump.
    const std::string needle = "\"cycles\":";
    const auto pos = text.find(needle);
    ASSERT_NE(pos, std::string::npos);
    const auto comma = text.find(',', pos);
    ASSERT_NE(comma, std::string::npos);
    const std::string edited =
        text.substr(0, pos) + text.substr(comma + 1);

    try {
        resultFromJson(obs::parseJson(edited));
        FAIL() << "missing field did not throw";
    } catch (const SimError &e) {
        EXPECT_EQ(e.code(), ErrorCode::StatsIO);
    }
}

TEST(ResultIo, MalformedCounterIsAStatsIoError)
{
    const std::string text =
        obs::writeJsonCompact(resultToJson(sampleResult()));
    const std::string needle = "\"instructions\":";
    const auto pos = text.find(needle);
    ASSERT_NE(pos, std::string::npos);
    std::string edited = text;
    edited.replace(pos + needle.size(), 1, "-"); // negative number
    try {
        resultFromJson(obs::parseJson(edited));
        FAIL() << "malformed field did not throw";
    } catch (const SimError &e) {
        EXPECT_EQ(e.code(), ErrorCode::StatsIO);
    }
}

TEST(Journal, AppendLoadRoundTrip)
{
    const std::string dir = scratchDir("roundtrip");
    const std::string path = dir + "/j.jsonl";
    const SimResult result = sampleResult();

    {
        RunJournal j;
        ASSERT_TRUE(j.open(path));
        EXPECT_EQ(j.loadedRecords(), 0u);

        SweepOutcome ok;
        ok.status = PointStatus::Ok;
        ok.result = result;
        EXPECT_TRUE(j.append("aaaa", ok));

        SweepOutcome failed;
        failed.status = PointStatus::Failed;
        failed.errorCode = ErrorCode::Watchdog;
        failed.error = "fatal: budget exceeded";
        failed.result.configName = "failed-config";
        EXPECT_TRUE(j.append("bbbb", failed));
    }

    RunJournal j;
    std::string error;
    ASSERT_TRUE(j.open(path, &error)) << error;
    EXPECT_EQ(j.loadedRecords(), 2u);

    const SweepOutcome *ok = j.find("aaaa");
    ASSERT_NE(ok, nullptr);
    EXPECT_EQ(ok->status, PointStatus::Ok);
    EXPECT_EQ(fingerprint(ok->result), fingerprint(result));

    const SweepOutcome *failed = j.find("bbbb");
    ASSERT_NE(failed, nullptr);
    EXPECT_EQ(failed->status, PointStatus::Failed);
    EXPECT_EQ(failed->errorCode, ErrorCode::Watchdog);
    EXPECT_EQ(failed->error, "fatal: budget exceeded");
    EXPECT_EQ(failed->result.configName, "failed-config");

    EXPECT_EQ(j.find("cccc"), nullptr);
}

TEST(Journal, SecondLiveOpenOfTheSameJournalIsRefused)
{
    const std::string dir = scratchDir("flock");
    const std::string path = dir + "/j.jsonl";

    RunJournal holder;
    ASSERT_TRUE(holder.open(path));

    // flock is per open-file-description, so a second RunJournal in
    // the same process conflicts exactly like a second process
    // racing for the same resume directory would.
    RunJournal intruder;
    try {
        intruder.open(path);
        FAIL() << "second open of a locked journal must throw";
    } catch (const SimError &e) {
        EXPECT_EQ(e.code(), ErrorCode::Locked);
    }

    // The holder's lock dies with its file handle; reopening then
    // works and sees the (empty) journal.
    holder.close();
    RunJournal successor;
    std::string error;
    EXPECT_TRUE(successor.open(path, &error)) << error;
}

TEST(Journal, TornTrailingLineIsTolerated)
{
    const std::string dir = scratchDir("torn");
    const std::string path = dir + "/j.jsonl";
    {
        RunJournal j;
        ASSERT_TRUE(j.open(path));
        SweepOutcome rec;
        rec.result = sampleResult();
        ASSERT_TRUE(j.append("aaaa", rec));
    }
    // Simulate a kill mid-append: a record fragment without its
    // terminating newline.
    {
        std::ofstream out(path, std::ios::app | std::ios::binary);
        out << "{\"key\":\"bbbb\",\"status\":\"o";
    }
    RunJournal j;
    std::string error;
    ASSERT_TRUE(j.open(path, &error)) << error;
    EXPECT_EQ(j.loadedRecords(), 1u);
    EXPECT_NE(j.find("aaaa"), nullptr);
    EXPECT_EQ(j.find("bbbb"), nullptr);
}

TEST(Journal, CorruptInteriorLineFailsOpen)
{
    const std::string dir = scratchDir("corrupt");
    const std::string path = dir + "/j.jsonl";
    {
        std::ofstream out(path, std::ios::binary);
        out << "this is not a journal record\n";
    }
    RunJournal j;
    std::string error;
    EXPECT_FALSE(j.open(path, &error));
    EXPECT_NE(error.find("corrupt"), std::string::npos) << error;
    EXPECT_FALSE(j.isOpen());
}

TEST(Journal, LastRecordPerKeyWins)
{
    const std::string dir = scratchDir("lastwins");
    const std::string path = dir + "/j.jsonl";
    {
        RunJournal j;
        ASSERT_TRUE(j.open(path));
        SweepOutcome failed;
        failed.status = PointStatus::Failed;
        failed.errorCode = ErrorCode::TraceIO;
        failed.error = "fatal: first try";
        ASSERT_TRUE(j.append("aaaa", failed));
        SweepOutcome ok;
        ok.result = sampleResult();
        ASSERT_TRUE(j.append("aaaa", ok));
    }
    RunJournal j;
    ASSERT_TRUE(j.open(path));
    EXPECT_EQ(j.loadedRecords(), 1u);
    const SweepOutcome *rec = j.find("aaaa");
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(rec->status, PointStatus::Ok);
}

TEST(Journal, KeyTracksEverythingThatDeterminesTheResult)
{
    SweepJob job;
    job.config = baseline();
    job.mpLevel = 4;
    job.instructions = 10'000;
    job.warmup = 2'000;

    const std::string key = sweepJobKey(job);
    EXPECT_EQ(key.size(), 16u);
    EXPECT_EQ(key, sweepJobKey(job)); // stable

    auto differs = [&](SweepJob changed) {
        EXPECT_NE(sweepJobKey(changed), key);
    };
    {
        SweepJob j2 = job;
        j2.config.l1d.sizeWords *= 2;
        differs(j2);
    }
    {
        SweepJob j2 = job;
        j2.mpLevel = 8;
        differs(j2);
    }
    {
        SweepJob j2 = job;
        j2.instructions += 1;
        differs(j2);
    }
    {
        SweepJob j2 = job;
        j2.warmup += 1;
        differs(j2);
    }

    // A custom workload builder cannot be digested: no key, never
    // journaled, never reused.
    SweepJob custom = job;
    custom.workload = [] { return Workload{}; };
    EXPECT_EQ(sweepJobKey(custom), "");
}

TEST(Journal, KeysArePinned)
{
    // A key digests saveConfig's text, so these literals pin that
    // text byte for byte: a journal written by an earlier build must
    // keep resuming.  They were computed before the config codec
    // became table-driven.
    SweepJob job;
    job.config = baseline();
    job.mpLevel = 4;
    job.instructions = 10'000;
    job.warmup = 2'000;
    EXPECT_EQ(sweepJobKey(job), "f981c0b42fc1cabe");

    SweepJob sampled = job;
    sampled.config = optimized();
    sampled.sampling.enabled = true;
    EXPECT_EQ(sweepJobKey(sampled), "44d16ed4758da7fa");

    const std::string path = scratchDir("pinned-trace") + "/t.v3";
    {
        trace::TraceV3Writer writer(path);
        for (Addr i = 0; i < 1000; ++i) {
            writer.write(trace::instRef(0x40'0000 + 4 * i));
            if (i % 3 == 0)
                writer.write(trace::loadRef(0x1000'0000 + 8 * i));
            if (i % 7 == 0)
                writer.write(trace::storeRef(0x1000'8000 + 4 * i));
        }
        writer.close();
    }
    SweepJob traced;
    traced.config = afterWritePolicy();
    traced.instructions = 10'000;
    traced.traceFiles = {path};
    EXPECT_EQ(sweepJobKey(traced), "8277386dbd495cbc");
}

/** An Ok line as fig6_l2_orgs journaled it before the outcome codec
 *  was shared with the worker protocol. */
const char *const kEarlierOkLine =
    "{\"key\":\"6b2c12afd0b6735f\",\"status\":\"ok\","
    "\"result\":{\"config\":\"base+write-only\","
    "\"instructions\":800000,\"cycles\":1664622,"
    "\"cpu_stall_cycles\":205516,\"context_switches\":4,"
    "\"syscall_switches\":1,\"comp.l1i_miss\":25434,"
    "\"comp.l1d_miss\":119400,\"comp.l1_writes\":2709,"
    "\"comp.wb_wait\":26805,\"comp.l2i_miss\":146714,"
    "\"comp.l2d_miss\":338044,\"comp.tlb\":0,\"sys.ifetches\":800000,"
    "\"sys.l1i_misses\":4239,\"sys.loads\":169294,"
    "\"sys.l1d_read_misses\":19900,\"sys.stores\":47635,"
    "\"sys.l1d_write_misses\":2709,"
    "\"sys.write_only_read_misses\":2323,\"sys.l2i_accesses\":4239,"
    "\"sys.l2i_misses\":930,\"sys.l2d_accesses\":19900,"
    "\"sys.l2d_misses\":1796,\"sys.l2_dirty_misses\":1010,"
    "\"sys.l2_write_allocates\":316,\"sys.wb.pushes\":47635,"
    "\"sys.wb.full_stalls\":937,\"sys.wb.full_stall_cycles\":2282,"
    "\"sys.wb.drain_waits\":3008,\"sys.wb.drain_wait_cycles\":24523,"
    "\"sys.wb.bypasses\":0,\"sys.wb.max_occupancy\":8,"
    "\"sys.mem.reads\":2726,\"sys.mem.dirty_writebacks\":1010,"
    "\"sys.mem.bus_wait_cycles\":0,\"sys.mem.bus_waits\":0,"
    "\"sys.itlb.accesses\":800000,\"sys.itlb.misses\":22,"
    "\"sys.dtlb.accesses\":216929,\"sys.dtlb.misses\":49,"
    "\"host_seconds\":0.127379592,\"host_stats_seconds\":5.48e-07,"
    "\"sampling.passes\":0,\"sampling.intervals\":0,"
    "\"sampling.measured_instructions\":0,"
    "\"sampling.warmed_instructions\":0,"
    "\"sampling.skipped_instructions\":0,\"sampling.cpi_mean\":0,"
    "\"sampling.cpi_std_error\":0,\"sampling.cpi_half_width\":0,"
    "\"sampling.confidence\":0}}";

/** A Failed line from the same earlier build (it carries no config
 *  name). */
const char *const kEarlierFailedLine =
    "{\"key\":\"00000000000000bb\",\"status\":\"failed\","
    "\"code\":\"watchdog\",\"error\":\"fatal: budget exceeded\"}";

TEST(Journal, EarlierJournalLinesStillLoad)
{
    const std::string dir = scratchDir("earlier");
    const std::string path = dir + "/j.jsonl";
    writeText(path, std::string(kEarlierOkLine) + "\n" +
                        kEarlierFailedLine + "\n");

    RunJournal j;
    std::string error;
    ASSERT_TRUE(j.open(path, &error)) << error;
    EXPECT_EQ(j.loadedRecords(), 2u);

    const auto *ok = j.find("6b2c12afd0b6735f");
    ASSERT_NE(ok, nullptr);
    EXPECT_EQ(ok->status, PointStatus::Ok);
    EXPECT_EQ(ok->result.configName, "base+write-only");
    EXPECT_EQ(ok->result.cycles, 1'664'622u);
    EXPECT_EQ(ok->result.sys.dtlb.misses, 49u);
    EXPECT_EQ(ok->result.hostSeconds, 0.127379592);

    const auto *failed = j.find("00000000000000bb");
    ASSERT_NE(failed, nullptr);
    EXPECT_EQ(failed->status, PointStatus::Failed);
    EXPECT_EQ(failed->errorCode, ErrorCode::Watchdog);
    EXPECT_EQ(failed->error, "fatal: budget exceeded");

    // Journaling the Ok point again writes the earlier bytes.
    const std::string again = dir + "/again.jsonl";
    {
        RunJournal out;
        ASSERT_TRUE(out.open(again));
        ASSERT_TRUE(out.append("6b2c12afd0b6735f", *ok));
    }
    EXPECT_EQ(readText(again), std::string(kEarlierOkLine) + "\n");
}

TEST(Journal, InjectedWriteFaultDegradesButJournalStaysUsable)
{
    const std::string dir = scratchDir("fault");
    const std::string path = dir + "/j.jsonl";
    RunJournal j;
    ASSERT_TRUE(j.open(path));

    SweepOutcome rec;
    rec.result = sampleResult();

    fault::configure("journal-write:1");
    EXPECT_FALSE(j.append("aaaa", rec));
    // The failed append must leave the file append-able and clean.
    EXPECT_TRUE(j.isOpen());
    EXPECT_TRUE(j.append("bbbb", rec));
    fault::reset();

    j.close();
    RunJournal reloaded;
    ASSERT_TRUE(reloaded.open(path));
    EXPECT_EQ(reloaded.loadedRecords(), 1u);
    EXPECT_EQ(reloaded.find("aaaa"), nullptr);
    EXPECT_NE(reloaded.find("bbbb"), nullptr);
}

TEST(Journal, SweepReusesJournaledPointsExactly)
{
    const std::string dir = scratchDir("resume");
    const std::string path = dir + "/j.jsonl";
    const auto jobs = smallLadder();

    std::vector<std::string> first_run;
    {
        RunJournal j;
        ASSERT_TRUE(j.open(path));
        SweepStats stats;
        const auto outcomes =
            runSweepOutcomes(jobs, 1, &stats, {}, &j);
        ASSERT_EQ(outcomes.size(), jobs.size());
        EXPECT_EQ(stats.okPoints, jobs.size());
        EXPECT_EQ(stats.reusedPoints, 0u);
        for (const auto &out : outcomes) {
            EXPECT_FALSE(out.reused);
            first_run.push_back(fingerprint(out.result));
        }
    }
    {
        RunJournal j;
        ASSERT_TRUE(j.open(path));
        EXPECT_EQ(j.loadedRecords(), jobs.size());
        SweepStats stats;
        const auto outcomes =
            runSweepOutcomes(jobs, 1, &stats, {}, &j);
        ASSERT_EQ(outcomes.size(), jobs.size());
        EXPECT_EQ(stats.reusedPoints, jobs.size());
        for (std::size_t i = 0; i < outcomes.size(); ++i) {
            EXPECT_TRUE(outcomes[i].reused);
            EXPECT_EQ(outcomes[i].status, PointStatus::Ok);
            // Exact, host-timing doubles included: the journal
            // carried the complete result.
            EXPECT_EQ(fingerprint(outcomes[i].result),
                      first_run[i]);
        }
    }
}

TEST(Journal, FailedRecordsAreReSimulatedOnResume)
{
    const std::string dir = scratchDir("refail");
    const std::string path = dir + "/j.jsonl";
    const auto jobs = smallLadder();

    {
        RunJournal j;
        ASSERT_TRUE(j.open(path));
        SweepOutcome failed;
        failed.status = PointStatus::Failed;
        failed.errorCode = ErrorCode::Internal;
        failed.error = "fatal: injected earlier";
        ASSERT_TRUE(j.append(sweepJobKey(jobs[0]), failed));
    }

    RunJournal j;
    ASSERT_TRUE(j.open(path));
    SweepStats stats;
    const auto outcomes = runSweepOutcomes(jobs, 1, &stats, {}, &j);
    ASSERT_EQ(outcomes.size(), jobs.size());
    // The Failed record does not satisfy the point: it runs again
    // and succeeds this time.
    EXPECT_EQ(stats.reusedPoints, 0u);
    EXPECT_EQ(stats.okPoints, jobs.size());
    EXPECT_FALSE(outcomes[0].reused);
    EXPECT_EQ(outcomes[0].status, PointStatus::Ok);
}

} // namespace
} // namespace gaas::core
