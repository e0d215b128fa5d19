/**
 * @file
 * Tests for the shared trace arena: packed replay is bit-identical
 * to running the generators fresh (per stream, and end-to-end across
 * mp levels against Workload::fromSpecs), concurrent first-touch
 * growth is safe (exercised under TSan), concurrent skips across a
 * pass end are exact, and the high-water mark makes second jobs
 * generation-free.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/config.hh"
#include "core/simulator.hh"
#include "core/stats_dump.hh"
#include "core/sweep.hh"
#include "core/workload.hh"
#include "synth/benchmark.hh"
#include "synth/suite.hh"
#include "trace/arena.hh"
#include "trace/compose.hh"
#include "trace/source.hh"

namespace gaas::trace
{
namespace
{

/** A small suite benchmark with a test-sized pass. */
synth::BenchmarkSpec
smallSpec(std::uint64_t sim_instructions = 50'000)
{
    synth::BenchmarkSpec spec = synth::workloadSpecs(1).front();
    spec.simInstructions = sim_instructions;
    return spec;
}

std::vector<MemRef>
drain(TraceSource &src)
{
    std::vector<MemRef> out;
    MemRef buf[257];
    std::size_t got;
    while ((got = src.nextBatch(buf, 257)) > 0)
        out.insert(out.end(), buf, buf + got);
    return out;
}

std::string
statsText(const core::SimResult &result)
{
    std::ostringstream os;
    core::dumpStats(result, os);
    return os.str();
}

TEST(ArenaStream, ReplayMatchesGeneratorBitExactly)
{
    const synth::BenchmarkSpec spec = smallSpec();
    auto fresh = synth::makeBenchmark(spec);
    const std::vector<MemRef> expected = drain(*fresh);
    ASSERT_FALSE(expected.empty());

    TraceArena arena;
    ArenaStream *stream = arena.acquire(
        "test-stream", 2 * spec.simInstructions, /*ref_hint=*/0,
        [spec] { return synth::makeBenchmark(spec); });
    ArenaSource view(stream, "view");
    EXPECT_EQ(drain(view), expected);
    EXPECT_EQ(stream->passRefs(), expected.size());

    // reset() replays the pass identically (zero regeneration: the
    // second drain starts with everything already published).
    view.reset();
    EXPECT_EQ(drain(view), expected);
}

TEST(ArenaStream, PacksEveryFlagCombination)
{
    // syscall Inst and partial-word Store exercise the shared flag
    // bit of the packed layout; a pass bound equal to the record
    // count also exercises the bound-exact completion probe.
    const std::vector<MemRef> records = {
        instRef(0x0040'0000),
        instRef(0x0040'0004, /*syscall=*/true),
        loadRef(0x1000'0000),
        storeRef(0x7ffe'ff00),
        storeRef(0x7ffe'ff04, /*partial_word=*/true),
        instRef(0x7fff'fffc),
    };
    TraceArena arena;
    ArenaStream *stream = arena.acquire(
        "flags", records.size(), records.size(), [&records] {
            return std::make_unique<VectorSource>("flags", records);
        });
    ArenaSource view(stream, "view");
    EXPECT_EQ(drain(view), records);
    EXPECT_EQ(stream->passRefs(), records.size());
    EXPECT_GT(stream->bytes(), 0u);
}

TEST(ArenaSource, SkipMatchesDiscardedReadsOnColdAndWarmStream)
{
    // skip() on a cold stream triggers generation up to the target
    // (interval seeking must not change what is generated); on a
    // warm stream it is pure pointer arithmetic.  Either way the
    // tail after a skip must equal the tail after that many reads.
    const synth::BenchmarkSpec spec = smallSpec(20'000);
    auto fresh = synth::makeBenchmark(spec);
    const std::vector<MemRef> expected = drain(*fresh);
    ASSERT_GT(expected.size(), 1000u);

    TraceArena arena;
    ArenaStream *stream = arena.acquire(
        "skip", 2 * spec.simInstructions, 0,
        [spec] { return synth::makeBenchmark(spec); });

    for (std::size_t skip : {std::size_t{0}, std::size_t{997},
                             expected.size() - 1}) {
        ArenaSource view(stream, "view");
        ASSERT_EQ(view.skip(skip), skip);
        MemRef ref;
        ASSERT_TRUE(view.next(ref)) << "skip " << skip;
        EXPECT_EQ(ref, expected[skip]) << "skip " << skip;
    }
}

TEST(ArenaSource, SkipClampsAtPassEnd)
{
    const synth::BenchmarkSpec spec = smallSpec(10'000);
    auto fresh = synth::makeBenchmark(spec);
    const std::size_t passLen = drain(*fresh).size();

    TraceArena arena;
    ArenaStream *stream = arena.acquire(
        "skip-end", 2 * spec.simInstructions, 0,
        [spec] { return synth::makeBenchmark(spec); });

    // A skip past the pass end consumes only what exists ...
    ArenaSource view(stream, "view");
    EXPECT_EQ(view.skip(passLen + 12345), passLen);
    MemRef ref;
    EXPECT_FALSE(view.next(ref));

    // ... which is exactly what LoopSource needs to learn the pass
    // length and wrap: a looped view lands at (position + n) mod
    // pass length, however large the skip.
    LoopSource looped(
        std::make_unique<ArenaSource>(stream, "looped"));
    const std::size_t skip = 3 * passLen + 17;
    EXPECT_EQ(looped.skip(skip), skip);
    ArenaSource probe(stream, "probe");
    ASSERT_EQ(probe.skip(17u), 17u);
    MemRef fromLoop, fromProbe;
    ASSERT_TRUE(looped.next(fromLoop));
    ASSERT_TRUE(probe.next(fromProbe));
    EXPECT_EQ(fromLoop, fromProbe);
}

TEST(ArenaStream, ConcurrentFirstTouchGrowth)
{
    // Several readers race to grow one cold stream with mutually
    // prime batch sizes; every one must observe the full generator
    // pass.  Run under TSan this is the publication-ordering proof.
    const synth::BenchmarkSpec spec = smallSpec(30'000);
    auto fresh = synth::makeBenchmark(spec);
    const std::vector<MemRef> expected = drain(*fresh);

    TraceArena arena;
    ArenaStream *stream = arena.acquire(
        "race", 2 * spec.simInstructions, 0,
        [spec] { return synth::makeBenchmark(spec); });

    constexpr std::size_t kReaders = 4;
    const std::size_t batch[kReaders] = {61, 127, 509, 1021};
    std::vector<std::vector<MemRef>> seen(kReaders);
    std::vector<std::thread> readers;
    for (std::size_t r = 0; r < kReaders; ++r) {
        readers.emplace_back([&, r] {
            ArenaSource view(stream, "view");
            std::vector<MemRef> buf(batch[r]);
            std::size_t got;
            while ((got = view.nextBatch(buf.data(), batch[r])) > 0)
                seen[r].insert(seen[r].end(), buf.begin(),
                               buf.begin() + got);
        });
    }
    for (auto &t : readers)
        t.join();
    for (std::size_t r = 0; r < kReaders; ++r)
        EXPECT_EQ(seen[r], expected) << "reader " << r;
}

/** A vector source with a slow teardown, as a generator with a large
 *  model state can have: the arena drops its generator inside
 *  ensure(), between the pass end and the end of the call. */
class SlowTeardownSource : public VectorSource
{
  public:
    using VectorSource::VectorSource;

    ~SlowTeardownSource() override
    {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
};

TEST(ArenaSource, ConcurrentSkipsAcrossPassEndAreExact)
{
    // Readers with their own views skip across the end of one fresh,
    // finite stream while another reader's ensure() is finishing it.
    // The generator's slow teardown holds that writer between the
    // pass end and the end of its call; the staggered starts land
    // the other readers inside that window.  Every skip must return
    // exactly min(n, passLen - pos): a reader that sees the pass
    // length must also see the whole pass published.
    const synth::BenchmarkSpec spec = smallSpec(5'000);
    auto fresh = synth::makeBenchmark(spec);
    const std::vector<MemRef> records = drain(*fresh);
    const std::size_t passLen = records.size();
    ASSERT_GT(passLen, 5'000u);

    constexpr std::size_t kReaders = 4;
    const std::size_t step[kReaders] = {passLen + 1, 4099, 1021, 97};
    for (int round = 0; round < 8; ++round) {
        TraceArena arena;
        ArenaStream *stream =
            arena.acquire("skip-race", 2 * passLen, 0, [&records] {
                return std::make_unique<SlowTeardownSource>("slow",
                                                            records);
            });
        std::vector<std::string> errors(kReaders);
        std::vector<std::thread> readers;
        for (std::size_t r = 0; r < kReaders; ++r) {
            readers.emplace_back([&, r] {
                std::this_thread::sleep_for(
                    std::chrono::microseconds(500 * r));
                ArenaSource view(stream, "view");
                std::size_t pos = 0;
                while (true) {
                    const std::size_t want =
                        std::min(step[r], passLen - pos);
                    const std::size_t got = view.skip(step[r]);
                    if (got != want) {
                        errors[r] = "skip(" + std::to_string(step[r]) +
                                    ") at " + std::to_string(pos) +
                                    " returned " + std::to_string(got) +
                                    ", want " + std::to_string(want);
                        return;
                    }
                    pos += got;
                    if (got < step[r])
                        return; // clamped at the pass end
                }
            });
        }
        for (auto &t : readers)
            t.join();
        for (std::size_t r = 0; r < kReaders; ++r)
            EXPECT_EQ(errors[r], "")
                << "round " << round << " reader " << r;
    }
}

TEST(ArenaStream, HighWaterMarkMakesSecondReaderFree)
{
    const synth::BenchmarkSpec spec = smallSpec(20'000);
    TraceArena arena;
    const auto factory = [spec] { return synth::makeBenchmark(spec); };

    TraceArena::resetThreadTally();
    ArenaStream *stream =
        arena.acquire("hwm", 2 * spec.simInstructions, 0, factory);
    ArenaSource first(stream, "first");
    const std::vector<MemRef> pass = drain(first);
    ArenaTally tally = TraceArena::threadTally();
    EXPECT_EQ(tally.streamsGenerated, 1u);
    EXPECT_EQ(tally.streamsReused, 0u);
    EXPECT_EQ(tally.refsGenerated, pass.size());

    // The second acquisition replays the published pass: a cache hit
    // and not one reference of new generation.
    TraceArena::resetThreadTally();
    ArenaStream *again =
        arena.acquire("hwm", 2 * spec.simInstructions, 0, factory);
    EXPECT_EQ(again, stream);
    ArenaSource second(again, "second");
    EXPECT_EQ(drain(second).size(), pass.size());
    tally = TraceArena::threadTally();
    EXPECT_EQ(tally.streamsGenerated, 0u);
    EXPECT_EQ(tally.streamsReused, 1u);
    EXPECT_EQ(tally.refsGenerated, 0u);
    EXPECT_EQ(tally.genSeconds, 0.0);
}

TEST(ArenaEndToEnd, SimResultsMatchFreshGeneratorsAcrossMpLevels)
{
    // The acceptance property in miniature: the standard workload's
    // arena replay dumps the same stats (every counter, byte for
    // byte) as the same processes run from fresh generators.
    const core::SystemConfig config = core::baseline();
    for (const unsigned mp : {1u, 2u, 4u}) {
        core::Simulator fresh(
            config,
            core::Workload::fromSpecs(synth::workloadSpecs(mp)));
        const std::string expected =
            statsText(fresh.run(20'000, 5'000));
        EXPECT_EQ(statsText(core::runStandard(config, 20'000, mp,
                                              5'000)),
                  expected)
            << "mp level " << mp;
    }
}

TEST(ArenaEndToEnd, SweepJobTelemetryShowsReuse)
{
    // Two identical jobs, serially: the first pays all generation,
    // the second reuses every stream and generates nothing.
    core::SweepJob job;
    job.config = core::baseline();
    job.mpLevel = 3;
    job.instructions = 15'000;
    job.warmup = 5'000;

    core::SweepStats stats;
    const auto outcomes =
        core::runSweepOutcomes({job, job}, 1, &stats);
    ASSERT_EQ(outcomes.size(), 2u);
    EXPECT_EQ(statsText(outcomes[0].result),
              statsText(outcomes[1].result));

    ASSERT_EQ(stats.perJob.size(), 2u);
    EXPECT_EQ(stats.perJob[0].arenaStreamsReused, 0u);
    EXPECT_EQ(stats.perJob[0].arenaStreamsGenerated, 3u);
    EXPECT_GT(stats.perJob[0].arenaRefsGenerated, 0u);
    EXPECT_EQ(stats.perJob[1].arenaStreamsGenerated, 0u);
    EXPECT_EQ(stats.perJob[1].arenaStreamsReused, 3u);
    EXPECT_EQ(stats.perJob[1].arenaRefsGenerated, 0u);

    EXPECT_EQ(stats.arenaStreamsGenerated, 3u);
    EXPECT_EQ(stats.arenaStreamsReused, 3u);
    EXPECT_GT(stats.arenaBytes, 0u);
}

} // namespace
} // namespace gaas::trace
