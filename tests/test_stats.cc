/**
 * @file
 * Unit tests for the stats package: tables and sample statistics.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "stats/distribution.hh"
#include "stats/table.hh"
#include "util/logging.hh"

namespace gaas::stats
{
namespace
{

TEST(SampleStat, EmptyIsZero)
{
    SampleStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(SampleStat, MeanAndVariance)
{
    SampleStat s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.variance(), 4.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(SampleStat, MergeMatchesCombinedStream)
{
    SampleStat a, b, all;
    for (int i = 0; i < 100; ++i) {
        const double x = i * 0.37;
        (i % 2 ? a : b).add(x);
        all.add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
    EXPECT_DOUBLE_EQ(a.min(), all.min());
    EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(SampleStat, MergeWithEmpty)
{
    SampleStat a, empty;
    a.add(1.0);
    a.add(3.0);
    a.merge(empty);
    EXPECT_EQ(a.count(), 2u);
    EXPECT_DOUBLE_EQ(a.mean(), 2.0);

    SampleStat b;
    b.merge(a);
    EXPECT_EQ(b.count(), 2u);
    EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(SampleStat, MergeEmptyIntoEmpty)
{
    SampleStat a, b;
    a.merge(b);
    EXPECT_EQ(a.count(), 0u);
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    EXPECT_DOUBLE_EQ(a.variance(), 0.0);
    EXPECT_DOUBLE_EQ(a.min(), 0.0);
    EXPECT_DOUBLE_EQ(a.max(), 0.0);
}

TEST(SampleStat, MergeSingleSamples)
{
    SampleStat lo, hi;
    lo.add(2.0);
    hi.add(4.0);
    lo.merge(hi);
    EXPECT_EQ(lo.count(), 2u);
    EXPECT_DOUBLE_EQ(lo.mean(), 3.0);
    EXPECT_DOUBLE_EQ(lo.variance(), 1.0);
    EXPECT_DOUBLE_EQ(lo.min(), 2.0);
    EXPECT_DOUBLE_EQ(lo.max(), 4.0);
}

TEST(SampleStat, UnbiasedSampleVarianceAndStdError)
{
    SampleStat s;
    EXPECT_DOUBLE_EQ(s.sampleVariance(), 0.0);
    EXPECT_DOUBLE_EQ(s.stdError(), 0.0);
    s.add(3.0);
    // A single sample has no spread information.
    EXPECT_DOUBLE_EQ(s.sampleVariance(), 0.0);
    EXPECT_DOUBLE_EQ(s.stdError(), 0.0);
    s.add(5.0);
    // {3, 5}: population variance 1, unbiased sample variance 2,
    // standard error sqrt(2 / 2) = 1.
    EXPECT_DOUBLE_EQ(s.variance(), 1.0);
    EXPECT_DOUBLE_EQ(s.sampleVariance(), 2.0);
    EXPECT_DOUBLE_EQ(s.stdError(), 1.0);
}

TEST(SampleStat, RandomizedAddAndMergeMatchTwoPassReference)
{
    // Deterministic xorshift stream spanning several orders of
    // magnitude, to stress the streaming (Welford/Chan) update
    // against a plain two-pass computation.
    std::uint64_t x = 0x243F6A8885A308D3ull;
    auto nextU = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    std::vector<double> values;
    for (int i = 0; i < 2000; ++i) {
        const double u =
            static_cast<double>(nextU() >> 11) * 0x1p-53;
        values.push_back((u - 0.5) * std::pow(10.0, i % 5));
    }

    // Two-pass reference moments.
    double sum = 0.0;
    for (const double v : values)
        sum += v;
    const double mean = sum / static_cast<double>(values.size());
    double ss = 0.0;
    for (const double v : values)
        ss += (v - mean) * (v - mean);
    const double sampleVar =
        ss / static_cast<double>(values.size() - 1);
    const double stdErr =
        std::sqrt(sampleVar / static_cast<double>(values.size()));

    // Stream the values into a randomly-cut sequence of shards and
    // merge them back together, as the sweep engine does.
    std::vector<SampleStat> shards(1);
    for (const double v : values) {
        if (nextU() % 7 == 0)
            shards.emplace_back();
        shards.back().add(v);
    }
    SampleStat merged;
    for (const SampleStat &s : shards)
        merged.merge(s);

    EXPECT_EQ(merged.count(), values.size());
    EXPECT_NEAR(merged.mean(), mean, 1e-9 * std::fabs(mean) + 1e-12);
    EXPECT_NEAR(merged.sampleVariance(), sampleVar,
                1e-9 * sampleVar);
    EXPECT_NEAR(merged.stdError(), stdErr, 1e-9 * stdErr);
}

TEST(Table, AlignedOutputContainsCells)
{
    Table t({"config", "cpi"});
    t.setTitle("demo");
    t.newRow().cell("base").cell(1.6531, 4);
    t.newRow().cell("optimized").cell(1.4270, 4);
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("demo"), std::string::npos);
    EXPECT_NE(out.find("config"), std::string::npos);
    EXPECT_NE(out.find("1.6531"), std::string::npos);
    EXPECT_NE(out.find("optimized"), std::string::npos);
}

TEST(Table, CsvEscapesSpecials)
{
    Table t({"name", "note"});
    t.newRow().cell("a,b").cell("say \"hi\"");
    std::ostringstream os;
    t.printCsv(os);
    EXPECT_EQ(os.str(), "name,note\n\"a,b\",\"say \"\"hi\"\"\"\n");
}

TEST(Table, WriteCsvRoundTrip)
{
    const auto path = std::filesystem::temp_directory_path() /
                      "gaas_table_test.csv";
    Table t({"x", "y"});
    t.newRow().cell(std::uint64_t{1}).cell(2.5, 1);
    ASSERT_TRUE(t.writeCsv(path.string()));
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    EXPECT_EQ(line, "x,y");
    std::getline(in, line);
    EXPECT_EQ(line, "1,2.5");
    std::filesystem::remove(path);
}

TEST(Table, RequiresColumns)
{
    EXPECT_THROW(Table({}), FatalError);
}

TEST(Table, RowCounting)
{
    Table t({"a"});
    EXPECT_EQ(t.rowCount(), 0u);
    t.newRow().cell(1);
    t.newRow().cell(2);
    EXPECT_EQ(t.rowCount(), 2u);
    EXPECT_EQ(t.columnCount(), 1u);
}

} // namespace
} // namespace gaas::stats
