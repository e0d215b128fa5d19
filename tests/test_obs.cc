/**
 * @file
 * Tests for the observability layer: registry ordering, the JSON
 * exporter's exact byte format, parse/re-emit round-trips, the
 * SimResult stats schema, serial-vs-parallel dump identity, and the
 * wall-clock timers.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "core/config.hh"
#include "core/stats_dump.hh"
#include "core/sweep.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "util/logging.hh"

namespace gaas
{
namespace
{

TEST(Registry, KeepsRegistrationOrderAndSections)
{
    obs::Registry r;
    EXPECT_TRUE(r.empty());
    r.beginSection("alpha");
    r.counter("a.events", 3, "events");
    r.beginSection("beta");
    r.value("b.ratio", 0.5, "ratio");
    r.beginSection("beta"); // consecutive identical titles merge
    r.counter("b.total", 7, "total");

    ASSERT_EQ(r.entries().size(), 3u);
    EXPECT_EQ(r.entries()[0].name, "a.events");
    EXPECT_EQ(r.entries()[0].section, "alpha");
    EXPECT_EQ(r.entries()[1].name, "b.ratio");
    EXPECT_EQ(r.entries()[1].section, "beta");
    EXPECT_EQ(r.entries()[2].section, "beta");

    const obs::Entry *found = r.find("b.ratio");
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->kind, obs::Kind::Value);
    EXPECT_DOUBLE_EQ(found->value, 0.5);
    EXPECT_EQ(r.find("missing"), nullptr);
}

TEST(Registry, DuplicateNameIsFatal)
{
    obs::Registry r;
    r.counter("dup", 1, "first");
    EXPECT_THROW(r.counter("dup", 2, "second"), FatalError);
}

TEST(Json, ExporterGoldenSnapshot)
{
    obs::Registry r;
    r.counter("sim.instructions", 42, "instructions");
    r.value("sim.cpi", 1.5, "cpi");
    r.counter("l1d.loads", 7, "loads");

    EXPECT_EQ(obs::writeJsonString(obs::toJson(r)),
              "{\n"
              "  \"sim\": {\n"
              "    \"instructions\": 42,\n"
              "    \"cpi\": 1.5\n"
              "  },\n"
              "  \"l1d\": {\n"
              "    \"loads\": 7\n"
              "  }\n"
              "}\n");
}

TEST(Json, NonFiniteValuesBecomeNull)
{
    obs::Registry r;
    r.value("x.nan", std::nan(""), "not a number");
    const std::string text = obs::writeJsonString(obs::toJson(r));
    EXPECT_NE(text.find("\"nan\": null"), std::string::npos) << text;
    // ... and null survives the round trip.
    EXPECT_EQ(obs::writeJsonString(obs::parseJson(text)), text);
}

TEST(Json, LeafPrefixConflictIsFatal)
{
    obs::Registry r;
    r.counter("a.b", 1, "leaf");
    r.counter("a.b.c", 2, "needs a.b to be an object");
    EXPECT_THROW(obs::toJson(r), FatalError);
}

TEST(Json, ParserRejectsMalformedInput)
{
    EXPECT_THROW(obs::parseJson(""), FatalError);
    EXPECT_THROW(obs::parseJson("{"), FatalError);
    EXPECT_THROW(obs::parseJson("{} trailing"), FatalError);
    EXPECT_THROW(obs::parseJson("{\"a\": 01x}"), FatalError);
}

TEST(Json, RoundTripPreservesNumberTokens)
{
    const std::string text = "{\n"
                             "  \"a\": 0.30000000000000004,\n"
                             "  \"b\": [1, 2.5, -3e-7],\n"
                             "  \"c\": \"quote \\\" slash \\\\\"\n"
                             "}\n";
    EXPECT_EQ(obs::writeJsonString(obs::parseJson(text)), text);
}

/** A fully hand-built, deterministic SimResult. */
core::SimResult
sampleResult()
{
    core::SimResult res;
    res.configName = "unit";
    res.instructions = 1000;
    res.cycles = 1650;
    res.cpuStallCycles = 238;
    res.contextSwitches = 4;
    res.syscallSwitches = 1;
    res.comp.l1iMiss = 100;
    res.comp.l1dMiss = 90;
    res.comp.l1Writes = 80;
    res.comp.wbWait = 70;
    res.comp.l2iMiss = 40;
    res.comp.l2dMiss = 30;
    res.comp.tlb = 2;
    res.sys.ifetches = 1000;
    res.sys.l1iMisses = 50;
    res.sys.loads = 250;
    res.sys.l1dReadMisses = 25;
    res.sys.stores = 120;
    res.sys.l1dWriteMisses = 12;
    res.sys.writeOnlyReadMisses = 3;
    res.sys.l2iAccesses = 50;
    res.sys.l2iMisses = 5;
    res.sys.l2dAccesses = 37;
    res.sys.l2dMisses = 4;
    res.sys.l2DirtyMisses = 2;
    res.sys.l2WriteAllocates = 6;
    res.sys.wb.pushes = 120;
    res.sys.wb.maxOccupancy = 3;
    res.sys.memory.reads = 9;
    res.sys.itlb.accesses = 1000;
    res.sys.dtlb.accesses = 370;
    res.sys.dtlb.misses = 7;
    return res;
}

TEST(StatsJson, SchemaMatchesFlatDump)
{
    const core::SimResult res = sampleResult();
    const obs::Registry reg = core::collectStats(res);

    // Every flat-dump statistic is present under its dotted name.
    const obs::Entry *instructions = reg.find("sim.instructions");
    ASSERT_NE(instructions, nullptr);
    EXPECT_EQ(instructions->count, 1000u);
    const obs::Entry *cpi = reg.find("sim.cpi");
    ASSERT_NE(cpi, nullptr);
    EXPECT_DOUBLE_EQ(cpi->value, 1.65);
    EXPECT_NE(reg.find("cpi.wb_wait"), nullptr);
    EXPECT_NE(reg.find("l1d.write_only_read_misses"), nullptr);
    EXPECT_NE(reg.find("l2.write_allocates"), nullptr);
    EXPECT_NE(reg.find("wb.max_occupancy"), nullptr);
    EXPECT_NE(reg.find("mem.bus_wait_cycles"), nullptr);
    EXPECT_NE(reg.find("itlb.miss_ratio"), nullptr);
    EXPECT_NE(reg.find("dtlb.misses"), nullptr);
}

TEST(StatsJson, ConfigNameLeadsAndValuesNest)
{
    std::ostringstream os;
    core::dumpStatsJson(sampleResult(), os);
    const obs::JsonValue doc = obs::parseJson(os.str());

    ASSERT_FALSE(doc.members.empty());
    EXPECT_EQ(doc.members[0].first, "config");
    EXPECT_EQ(doc.members[0].second.scalar, "unit");

    const obs::JsonValue *sim = doc.member("sim");
    ASSERT_NE(sim, nullptr);
    const obs::JsonValue *insts = sim->member("instructions");
    ASSERT_NE(insts, nullptr);
    EXPECT_EQ(insts->scalar, "1000");

    const obs::JsonValue *dtlb = doc.member("dtlb");
    ASSERT_NE(dtlb, nullptr);
    ASSERT_NE(dtlb->member("misses"), nullptr);
    EXPECT_EQ(dtlb->member("misses")->scalar, "7");
}

TEST(StatsJson, DumpRoundTripsByteIdentically)
{
    std::ostringstream os;
    core::dumpStatsJson(sampleResult(), os);
    const std::string emitted = os.str();
    EXPECT_EQ(obs::writeJsonString(obs::parseJson(emitted)), emitted);
}

TEST(StatsJson, SerialAndParallelSweepsDumpIdentically)
{
    std::vector<core::SweepJob> jobs(3);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        jobs[i].config = core::baseline();
        jobs[i].config.name = "par-" + std::to_string(i);
        jobs[i].config.l1d.sizeWords = 1024u << i;
        jobs[i].mpLevel = 2;
        jobs[i].instructions = 10'000;
        jobs[i].warmup = 2'000;
    }

    const auto serial = core::runSweepOutcomes(jobs, 1);
    const auto pooled = core::runSweepOutcomes(jobs, 4);
    ASSERT_EQ(serial.size(), pooled.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].status, core::PointStatus::Ok);
        EXPECT_EQ(pooled[i].status, core::PointStatus::Ok);
        std::ostringstream a, b;
        core::dumpStatsJson(serial[i].result, a);
        core::dumpStatsJson(pooled[i].result, b);
        EXPECT_EQ(a.str(), b.str()) << "job " << i;
    }
}

TEST(Timers, StopwatchIsMonotonic)
{
    const obs::Stopwatch w;
    const double first = w.seconds();
    const double second = w.seconds();
    EXPECT_GE(first, 0.0);
    EXPECT_GE(second, first);
}

TEST(Timers, ScopedTimerAccumulates)
{
    double acc = 0.0;
    {
        obs::ScopedTimer t(acc);
        EXPECT_GE(t.seconds(), 0.0);
        EXPECT_DOUBLE_EQ(acc, 0.0); // only added on destruction
    }
    const double once = acc;
    EXPECT_GE(once, 0.0);
    {
        obs::ScopedTimer t(acc);
    }
    EXPECT_GE(acc, once);
}

} // namespace
} // namespace gaas
