/**
 * @file
 * Tests for SystemConfig text (de)serialization.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/config.hh"
#include "core/config_io.hh"
#include "core/simulator.hh"
#include "util/error.hh"
#include "util/logging.hh"

namespace gaas::core
{
namespace
{

/** Field-by-field equality over everything config_io round-trips. */
void
expectEqualConfigs(const SystemConfig &a, const SystemConfig &b)
{
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.l1i, b.l1i);
    EXPECT_EQ(a.l1d, b.l1d);
    EXPECT_EQ(a.writePolicy, b.writePolicy);
    EXPECT_EQ(a.l2Org, b.l2Org);
    EXPECT_EQ(a.l2.cache, b.l2.cache);
    EXPECT_EQ(a.l2.accessTime, b.l2.accessTime);
    EXPECT_EQ(a.l2i.cache, b.l2i.cache);
    EXPECT_EQ(a.l2i.accessTime, b.l2i.accessTime);
    EXPECT_EQ(a.l2d.cache, b.l2d.cache);
    EXPECT_EQ(a.l2d.accessTime, b.l2d.accessTime);
    EXPECT_EQ(a.transferWordsPerCycle, b.transferWordsPerCycle);
    EXPECT_EQ(a.wbDepth, b.wbDepth);
    EXPECT_EQ(a.wbEntryWords, b.wbEntryWords);
    EXPECT_EQ(a.wbStreamOverlap, b.wbStreamOverlap);
    EXPECT_EQ(a.concurrentIRefill, b.concurrentIRefill);
    EXPECT_EQ(a.loadBypass, b.loadBypass);
    EXPECT_EQ(a.l2DirtyBuffer, b.l2DirtyBuffer);
    EXPECT_EQ(a.memory.cleanMissPenalty, b.memory.cleanMissPenalty);
    EXPECT_EQ(a.memory.dirtyMissPenalty, b.memory.dirtyMissPenalty);
    EXPECT_EQ(a.mmu.tlbMissPenalty, b.mmu.tlbMissPenalty);
    EXPECT_EQ(a.mmu.pageTable.colors, b.mmu.pageTable.colors);
    EXPECT_EQ(a.mmu.pageTable.coloring, b.mmu.pageTable.coloring);
    EXPECT_EQ(a.timeSliceCycles, b.timeSliceCycles);
}

SystemConfig
roundTrip(const SystemConfig &cfg)
{
    std::ostringstream os;
    saveConfig(cfg, os);
    std::istringstream is(os.str());
    return loadConfig(is);
}

/** The preset ladder every property test walks. */
std::vector<SystemConfig>
presetLadder()
{
    return {baseline(),       afterWritePolicy(),
            afterSplitL2(),   afterFetchSize(),
            afterConcurrentIRefill(), afterLoadBypass(),
            optimized(),      splitL2Exchanged()};
}

TEST(ConfigIo, RoundTripsEveryPreset)
{
    for (const auto &cfg : presetLadder()) {
        SCOPED_TRACE(cfg.name);
        expectEqualConfigs(roundTrip(cfg), cfg);
    }
}

TEST(ConfigIo, WbOverridesSurviveAnyKeyOrder)
{
    // Regression: the old one-pass parser ran applyPolicyDefaults()
    // the moment it saw write_policy, silently clobbering any
    // wb.depth / wb.entry_words line that appeared EARLIER in the
    // file.  Both orders must now produce the same config, with the
    // explicit override winning.
    std::istringstream before(
        "wb.depth = 16\n"
        "wb.entry_words = 2\n"
        "write_policy = writeonly\n");
    std::istringstream after(
        "write_policy = writeonly\n"
        "wb.depth = 16\n"
        "wb.entry_words = 2\n");
    const auto a = loadConfig(before);
    const auto b = loadConfig(after);
    EXPECT_EQ(a.wbDepth, 16u);
    EXPECT_EQ(a.wbEntryWords, 2u);
    EXPECT_EQ(a.writePolicy, WritePolicy::WriteOnly);
    expectEqualConfigs(a, b);
}

TEST(ConfigIo, LineOrderNeverMatters)
{
    // Strongest form of order independence: feeding every preset's
    // save output to the parser in REVERSED line order yields the
    // identical configuration.
    for (const auto &cfg : presetLadder()) {
        SCOPED_TRACE(cfg.name);
        std::ostringstream os;
        saveConfig(cfg, os);
        std::vector<std::string> lines;
        std::istringstream split(os.str());
        for (std::string line; std::getline(split, line);)
            lines.push_back(line);
        std::reverse(lines.begin(), lines.end());
        std::string reversed;
        for (const auto &line : lines)
            reversed += line + '\n';
        std::istringstream is(reversed);
        expectEqualConfigs(loadConfig(is), cfg);
    }
}

TEST(ConfigIo, DuplicateKeyIsFatal)
{
    std::istringstream is("wb.depth = 4\nwb.depth = 8\n");
    EXPECT_THROW(loadConfig(is), FatalError);
    // The error names both the duplicate and the original line.
    std::istringstream again("wb.depth = 4\nwb.depth = 8\n");
    try {
        loadConfig(again);
        FAIL() << "duplicate key must be fatal";
    } catch (const FatalError &err) {
        const std::string what = err.what();
        EXPECT_NE(what.find("duplicate key"), std::string::npos)
            << what;
        EXPECT_NE(what.find("line 2"), std::string::npos) << what;
        EXPECT_NE(what.find("line 1"), std::string::npos) << what;
    }
}

TEST(ConfigIo, ValueErrorsCarryLineNumbers)
{
    std::istringstream is(
        "# comment\n"
        "l2.access_time = 8\n"
        "wb.depth = many\n");
    try {
        loadConfig(is);
        FAIL() << "bad value must be fatal";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("line 3"),
                  std::string::npos)
            << err.what();
    }
}

TEST(ConfigIo, SaveLoadSaveIsIdentity)
{
    // save -> load -> save must reproduce the text byte-for-byte:
    // the parser reads everything the writer emits and invents
    // nothing (the golden harness leans on this fixed point).
    for (const auto &cfg : presetLadder()) {
        SCOPED_TRACE(cfg.name);
        std::ostringstream first;
        saveConfig(cfg, first);
        std::istringstream is(first.str());
        const auto reloaded = loadConfig(is);
        std::ostringstream second;
        saveConfig(reloaded, second);
        EXPECT_EQ(first.str(), second.str());
    }
}

TEST(ConfigIo, ReloadedConfigSimulatesIdentically)
{
    // A reloaded config is the same design point, not merely a
    // field-equal struct: a short pinned-seed run produces the
    // identical SimResult (everything but wall-clock hostSeconds).
    for (const auto &cfg : presetLadder()) {
        SCOPED_TRACE(cfg.name);
        const auto reloaded = roundTrip(cfg);
        const auto a = runStandard(cfg, 20'000, 2, 5'000);
        const auto b = runStandard(reloaded, 20'000, 2, 5'000);
        EXPECT_EQ(a.configName, b.configName);
        EXPECT_EQ(a.instructions, b.instructions);
        EXPECT_EQ(a.cycles, b.cycles);
        EXPECT_EQ(a.cpuStallCycles, b.cpuStallCycles);
        EXPECT_EQ(a.contextSwitches, b.contextSwitches);
        EXPECT_EQ(a.syscallSwitches, b.syscallSwitches);
        EXPECT_EQ(a.comp.total(), b.comp.total());
        EXPECT_EQ(a.sys.ifetches, b.sys.ifetches);
        EXPECT_EQ(a.sys.l1iMisses, b.sys.l1iMisses);
        EXPECT_EQ(a.sys.loads, b.sys.loads);
        EXPECT_EQ(a.sys.l1dReadMisses, b.sys.l1dReadMisses);
        EXPECT_EQ(a.sys.stores, b.sys.stores);
        EXPECT_EQ(a.sys.l1dWriteMisses, b.sys.l1dWriteMisses);
        EXPECT_EQ(a.sys.l2iMisses, b.sys.l2iMisses);
        EXPECT_EQ(a.sys.l2dMisses, b.sys.l2dMisses);
        EXPECT_EQ(a.sys.wb.pushes, b.sys.wb.pushes);
        EXPECT_EQ(a.sys.memory.reads, b.sys.memory.reads);
    }
}

TEST(ConfigIo, DefaultsApplyForMissingKeys)
{
    std::istringstream is("write_policy = writeonly\n");
    const auto cfg = loadConfig(is);
    EXPECT_EQ(cfg.writePolicy, WritePolicy::WriteOnly);
    // Policy defaults reshaped the write buffer.
    EXPECT_EQ(cfg.wbDepth, 8u);
    EXPECT_EQ(cfg.wbEntryWords, 1u);
    // Everything else stays at baseline.
    EXPECT_EQ(cfg.l2.cache.sizeWords, 256u * 1024);
}

TEST(ConfigIo, CommentsAndBlanksIgnored)
{
    std::istringstream is(
        "# a comment\n\n  \t\nl2.access_time = 8\n");
    EXPECT_EQ(loadConfig(is).l2.accessTime, 8u);
}

TEST(ConfigIo, UnknownKeyIsFatal)
{
    std::istringstream is("l3.size_words = 1024\n");
    EXPECT_THROW(loadConfig(is), FatalError);
}

TEST(ConfigIo, MalformedLineIsFatal)
{
    std::istringstream is("this is not a key value pair\n");
    EXPECT_THROW(loadConfig(is), FatalError);
}

TEST(ConfigIo, BadNumberIsFatal)
{
    std::istringstream is("l2.access_time = six\n");
    EXPECT_THROW(loadConfig(is), FatalError);
}

TEST(ConfigIo, LeadingZeroIsDecimal)
{
    std::istringstream is("l2.access_time = 010\n");
    EXPECT_EQ(loadConfig(is).l2.accessTime, 10u);
}

TEST(ConfigIo, NonDecimalOrOutOfRangeNumbersNameLineAndKey)
{
    // A sign, a base prefix or a value past the field's width must
    // not be read as some other number.
    const std::pair<const char *, const char *> cases[] = {
        {"l2.access_time", "-1"},
        {"l1i.assoc", "+4"},
        {"l1i.assoc", "0x2"},
        {"wb.depth", "4294967300"},
    };
    for (const auto &[key, value] : cases) {
        const std::string text = std::string("# comment\n") + key +
                                 " = " + value + "\n";
        SCOPED_TRACE(text);
        std::istringstream is(text);
        try {
            loadConfig(is);
            FAIL() << "accepted";
        } catch (const SimError &err) {
            const std::string what = err.what();
            EXPECT_EQ(err.code(), ErrorCode::Config);
            EXPECT_NE(what.find("line 2"), std::string::npos) << what;
            EXPECT_NE(what.find(key), std::string::npos) << what;
        }
    }
}

TEST(ConfigIo, BadEnumIsFatal)
{
    std::istringstream is("write_policy = copyback\n");
    EXPECT_THROW(loadConfig(is), FatalError);
    std::istringstream is2("l2.org = banked\n");
    EXPECT_THROW(loadConfig(is2), FatalError);
}

TEST(ConfigIo, LoadedConfigIsValidated)
{
    // Inconsistent combination must be rejected at load time.
    std::istringstream is("concurrent_i_refill = true\n");
    EXPECT_THROW(loadConfig(is), FatalError); // unified L2
}

TEST(ConfigIo, FileRoundTrip)
{
    const auto path = (std::filesystem::temp_directory_path() /
                       "gaas_config_io.cfg")
                          .string();
    const auto cfg = optimized();
    saveConfigFile(cfg, path);
    expectEqualConfigs(loadConfigFile(path), cfg);
    std::filesystem::remove(path);
}

TEST(ConfigIo, MissingFileIsFatal)
{
    EXPECT_THROW(loadConfigFile("/nonexistent/nope.cfg"),
                 FatalError);
}

} // namespace
} // namespace gaas::core
