/**
 * @file
 * Tests for the v3 block-compressed trace format (trace/v3.hh) and
 * the bounded-memory streaming store (trace/stream.hh): encode /
 * decode round trips across every token shape, O(1) skip semantics
 * mirroring the ArenaSource/LoopSource contracts, the memory-ceiling
 * error path, one store shared by many streams (interleaved reads,
 * reclaim, pins, per-stream failures), journal keying by content
 * digest, and -- the one that matters -- bit-identical simulation
 * results between in-memory arena replay and streaming replay on
 * pinned design points.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/journal.hh"
#include "core/stats_dump.hh"
#include "core/sweep.hh"
#include "core/workload.hh"
#include "synth/benchmark.hh"
#include "synth/suite.hh"
#include "trace/compose.hh"
#include "trace/packed.hh"
#include "trace/stream.hh"
#include "trace/v3.hh"
#include "util/error.hh"

namespace gaas::trace
{
namespace
{

/**
 * Deterministic multi-block trace hitting every packable token
 * shape: +1 instruction deltas (the one-byte fast path), small and
 * large positive/negative data deltas, syscall and partial-word
 * meta bits.  All addresses are word aligned and below 2^31, so the
 * whole trace fits the packed u32 layout.
 */
std::vector<MemRef>
packableTrace(std::size_t n)
{
    std::vector<MemRef> refs;
    refs.reserve(n);
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    Addr pc = 0x0040'0000;
    for (std::size_t i = 0; i < n; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        switch (x & 7u) {
          case 0:
            refs.push_back(
                loadRef(((x >> 8) & 0x1fff'ffffu) << 2));
            break;
          case 1:
            refs.push_back(
                storeRef(((x >> 8) & 0x1fff'ffffu) << 2,
                         /*partial_word=*/(x & 0x100) != 0));
            break;
          case 2:
            refs.push_back(loadRef(0x1000'0000 + ((x >> 8) & 0xfcu)));
            break;
          default:
            refs.push_back(instRef(pc, /*syscall=*/(x & 0x700) == 0));
            pc += 4;
            break;
        }
    }
    return refs;
}

/** packableTrace plus escape-token records: unaligned addresses and
 *  addresses past the 2^31 packed-layout ceiling. */
std::vector<MemRef>
escapeTrace(std::size_t n)
{
    std::vector<MemRef> refs = packableTrace(n);
    for (std::size_t i = 7; i < refs.size(); i += 13)
        refs[i] = loadRef(0x1000'0001 + 9 * static_cast<Addr>(i));
    for (std::size_t i = 11; i < refs.size(); i += 29)
        refs[i] = storeRef((Addr{1} << 40) + 4 * static_cast<Addr>(i));
    return refs;
}

/**
 * @p refs with the noise the ingest packer strips: random low
 * address bits on every record, a stray syscall flag on some data
 * records and a stray partial-word flag on some Inst and Load
 * records.  The copy is unpackable, yet must simulate exactly like
 * the original.
 */
std::vector<MemRef>
noisyCopy(std::vector<MemRef> refs)
{
    std::uint64_t x = 0x2545f4914f6cdd1dull;
    for (MemRef &ref : refs) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        ref.addr |= x & 3u;
        if (!ref.isInst() && (x & 4u) != 0)
            ref.syscall = true;
        if (!ref.isStore() && (x & 8u) != 0)
            ref.partialWord = true;
    }
    return refs;
}

/** packableTrace(@p n), distinct per @p salt: every address XORed
 *  with a salt-derived mask that keeps it aligned and below 2^31. */
std::vector<MemRef>
saltedTrace(std::size_t n, unsigned salt)
{
    std::vector<MemRef> refs = packableTrace(n);
    const Addr mask = (static_cast<Addr>(salt) * 0x1040u) & 0x3fff'fffcu;
    for (MemRef &ref : refs)
        ref.addr ^= mask;
    return refs;
}

std::vector<MemRef>
drainAll(TraceSource &src)
{
    // Large enough for every trace in this file; collect() reserves
    // its limit up front, so "unbounded" must stay modest.
    return collect(src, 1u << 20);
}

class StreamTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // Unique per test case AND per process: ctest -j runs each
        // case as its own concurrent process (see test_trace.cc).
        const auto *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        dir = std::filesystem::temp_directory_path() /
              ("gaas_stream_test_" + std::string(info->name()) +
               "_" + std::to_string(::getpid()));
        std::filesystem::create_directories(dir);
    }

    void TearDown() override { std::filesystem::remove_all(dir); }

    std::string
    writeV3(const std::string &name, const std::vector<MemRef> &refs,
            std::uint32_t block_refs = kV3DefaultBlockRefs)
    {
        const std::string path = (dir / name).string();
        TraceV3Writer writer(path, block_refs);
        for (const MemRef &ref : refs)
            writer.write(ref);
        writer.close();
        return path;
    }

    std::filesystem::path dir;
};

TEST_F(StreamTest, RoundTripMultiBlockPackable)
{
    const auto refs = packableTrace(1000);
    const std::string path = writeV3("t.v3", refs, 64);

    const V3FileInfo info = v3FileInfo(path);
    EXPECT_EQ(info.records, refs.size());
    EXPECT_EQ(info.blockRefs, 64u);
    EXPECT_TRUE(info.packable());

    TraceV3Reader reader(path);
    EXPECT_EQ(drainAll(reader), refs);

    // reset() replays from the top, bit-identically.
    reader.reset();
    EXPECT_EQ(drainAll(reader), refs);
}

TEST_F(StreamTest, RoundTripEscapeTokens)
{
    // Unaligned and >2^31 addresses force the 0x0F escape token;
    // they must survive the round trip and clear the packable flag.
    const auto refs = escapeTrace(500);
    const std::string path = writeV3("esc.v3", refs, 32);

    EXPECT_FALSE(v3FileInfo(path).packable());
    TraceV3Reader reader(path);
    EXPECT_EQ(drainAll(reader), refs);
}

TEST_F(StreamTest, DigestIsContentNotName)
{
    const auto refs = packableTrace(300);
    const std::string a = writeV3("a.v3", refs, 64);
    const std::string b = writeV3("renamed-copy.v3", refs, 64);
    EXPECT_EQ(v3FileInfo(a).digest, v3FileInfo(b).digest);

    auto more = refs;
    more.push_back(instRef(0x123'4560));
    const std::string c = writeV3("c.v3", more, 64);
    EXPECT_NE(v3FileInfo(a).digest, v3FileInfo(c).digest);
}

TEST_F(StreamTest, ReaderSkipMatchesDiscardedReads)
{
    // Mirror of LoopSource.SkipMatchesDiscardedReads: skip(n) must
    // land exactly where n discarded reads would -- inside the
    // current block, on a block boundary, across several blocks --
    // from a cold reader and mid-stream.
    const auto refs = packableTrace(200);
    const std::string path = writeV3("skip.v3", refs, 32);

    for (std::size_t pre : {std::size_t{0}, std::size_t{3},
                            std::size_t{50}}) {
        for (std::size_t skip :
             {std::size_t{0}, std::size_t{1}, std::size_t{31},
              std::size_t{32}, std::size_t{33}, std::size_t{95},
              std::size_t{149}}) {
            TraceV3Reader skipped(path);
            TraceV3Reader read(path);
            (void)collect(skipped, pre);
            (void)collect(read, pre);
            ASSERT_EQ(skipped.skip(skip), skip)
                << "pre " << pre << " skip " << skip;
            (void)collect(read, skip);
            EXPECT_EQ(drainAll(skipped), drainAll(read))
                << "pre " << pre << " skip " << skip;
        }
    }
}

TEST_F(StreamTest, ReaderSkipClampsAtEof)
{
    const auto refs = packableTrace(100);
    const std::string path = writeV3("clamp.v3", refs, 32);

    TraceV3Reader reader(path);
    EXPECT_EQ(reader.skip(refs.size() + 12345), refs.size());
    MemRef ref;
    EXPECT_FALSE(reader.next(ref));

    // ... which is exactly what LoopSource needs to learn the pass
    // length and wrap (same contract as ArenaSource).
    LoopSource looped(std::make_unique<TraceV3Reader>(path));
    const std::size_t skip = 3 * refs.size() + 17;
    EXPECT_EQ(looped.skip(skip), skip);
    ASSERT_TRUE(looped.next(ref));
    EXPECT_EQ(ref, refs[17]);
}

TEST_F(StreamTest, StreamMatchesReaderForEveryBatchSize)
{
    const auto refs = packableTrace(400);
    const std::string path = writeV3("batch.v3", refs, 64);

    for (std::size_t batch :
         {std::size_t{1}, std::size_t{3}, std::size_t{63},
          std::size_t{64}, std::size_t{65}, std::size_t{200},
          std::size_t{1000}}) {
        StreamSource stream(path);
        std::vector<MemRef> got;
        std::vector<MemRef> buf(batch);
        for (;;) {
            const std::size_t n =
                stream.nextBatch(buf.data(), batch);
            got.insert(got.end(), buf.begin(), buf.begin() + n);
            if (n < batch)
                break;
        }
        EXPECT_EQ(got, refs) << "batch " << batch;
    }
}

TEST_F(StreamTest, StreamPackedPathUnpacksIdentically)
{
    const auto refs = packableTrace(500);
    const std::string path = writeV3("packed.v3", refs, 64);

    StreamSource stream(path);
    std::vector<std::uint32_t> words(37);
    std::vector<MemRef> got;
    for (;;) {
        const std::size_t n =
            stream.nextBatchPacked(words.data(), words.size());
        for (std::size_t i = 0; i < n; ++i)
            got.push_back(packed::unpack(words[i]));
        if (n < words.size())
            break;
    }
    EXPECT_EQ(got, refs);
    EXPECT_GT(stream.blocksDecoded(), 0u);
}

TEST_F(StreamTest, UnalignedStreamReplaysCanonicalWords)
{
    // Unaligned addresses clear the file's packable flag, yet the
    // file streams through the same packed words as any other: the
    // reader thread canonicalizes each block, which word-aligns
    // every address.
    auto refs = packableTrace(300);
    for (std::size_t i = 5; i < refs.size(); i += 7)
        refs[i].addr |= 1 + i % 3;
    const std::string path = writeV3("unaligned.v3", refs, 64);
    ASSERT_FALSE(v3FileInfo(path).packable());

    std::vector<MemRef> aligned = refs;
    for (MemRef &ref : aligned)
        ref.addr &= ~Addr{3};

    StreamSource stream(path);
    std::vector<std::uint32_t> words(refs.size() + 1);
    ASSERT_EQ(stream.nextBatchPacked(words.data(), words.size()),
              refs.size());
    for (std::size_t i = 0; i < refs.size(); ++i)
        ASSERT_EQ(packed::unpack(words[i]), aligned[i]) << "record " << i;

    // The MemRef batch path unpacks the same words.
    stream.reset();
    EXPECT_EQ(drainAll(stream), aligned);
}

TEST_F(StreamTest, StreamSkipMatchesDiscardedReads)
{
    // The StreamSource mirror of the reader test above: skips that
    // stay in the current block, land on block boundaries, and jump
    // past the decoded window (to blocks no slot holds).
    const auto refs = packableTrace(300);
    const std::string path = writeV3("sskip.v3", refs, 16);

    for (std::size_t pre : {std::size_t{0}, std::size_t{5}}) {
        for (std::size_t skip :
             {std::size_t{0}, std::size_t{1}, std::size_t{15},
              std::size_t{16}, std::size_t{17}, std::size_t{160},
              std::size_t{250}}) {
            StreamSource skipped(path);
            StreamSource read(path);
            (void)collect(skipped, pre);
            (void)collect(read, pre);
            ASSERT_EQ(skipped.skip(skip), skip)
                << "pre " << pre << " skip " << skip;
            (void)collect(read, skip);
            EXPECT_EQ(drainAll(skipped), drainAll(read))
                << "pre " << pre << " skip " << skip;
        }
    }
}

TEST_F(StreamTest, StreamSkipClampsAndResetReplays)
{
    const auto refs = packableTrace(200);
    const std::string path = writeV3("sclamp.v3", refs, 32);

    StreamSource stream(path);
    EXPECT_EQ(stream.skip(refs.size() + 999), refs.size());
    MemRef ref;
    EXPECT_FALSE(stream.next(ref));

    // reset() moves the cursor back to block 0 and the replay is
    // bit-identical, repeatedly.
    for (int lap = 0; lap < 3; ++lap) {
        stream.reset();
        EXPECT_EQ(drainAll(stream), refs) << "lap " << lap;
    }
}

TEST_F(StreamTest, LoopedStreamWrapsLikeLoopedReader)
{
    const auto refs = packableTrace(150);
    const std::string path = writeV3("loop.v3", refs, 32);

    LoopSource stream(std::make_unique<StreamSource>(path));
    LoopSource reader(std::make_unique<TraceV3Reader>(path));
    const std::size_t skip = 3 * refs.size() + 17;
    EXPECT_EQ(stream.skip(skip), skip);
    EXPECT_EQ(reader.skip(skip), skip);
    EXPECT_EQ(collect(stream, 2 * refs.size()),
              collect(reader, 2 * refs.size()));
}

TEST_F(StreamTest, CeilingTooSmallIsATraceIoError)
{
    const std::string path =
        writeV3("tiny.v3", packableTrace(100), 32);
    StreamOptions options;
    options.memoryBudgetBytes = 1;
    try {
        StreamSource stream(path, options);
        FAIL() << "a 1-byte ceiling was accepted";
    } catch (const SimError &e) {
        EXPECT_EQ(e.code(), ErrorCode::TraceIO);
        EXPECT_NE(std::string(e.what()).find("at least"),
                  std::string::npos)
            << e.what();
    }
}

TEST_F(StreamTest, MinimalCeilingStillDrainsWithTwoSlots)
{
    const auto refs = packableTrace(1000);
    const std::string path = writeV3("min.v3", refs, 64);

    // The minimum is two decoded blocks and one decode buffer: all
    // a default-budget stream holds.  Exactly that ceiling drains.
    std::size_t minBytes = 0;
    {
        StreamSource probe(path);
        ASSERT_EQ(probe.slotCount(), 2u);
        minBytes = probe.bufferBytes();
    }
    StreamOptions options;
    options.memoryBudgetBytes = minBytes;
    StreamSource stream(path, options);
    EXPECT_EQ(stream.slotCount(), 2u);
    EXPECT_LE(stream.bufferBytes(), options.memoryBudgetBytes);
    EXPECT_EQ(drainAll(stream), refs);

    // One byte less is a TraceIO error naming that minimum.
    options.memoryBudgetBytes = minBytes - 1;
    try {
        StreamSource tooSmall(path, options);
        FAIL() << "a ceiling below the minimum was accepted";
    } catch (const SimError &e) {
        EXPECT_EQ(e.code(), ErrorCode::TraceIO);
        EXPECT_NE(std::string(e.what()).find(
                      "at least " + std::to_string(minBytes) + " bytes"),
                  std::string::npos)
            << e.what();
    }
}

TEST_F(StreamTest, CeilingIsACapNotASize)
{
    // A roomier ceiling buys no deeper prefetch: under the default
    // 64 MiB and under 1 GiB the stream holds the drained block and
    // the next one.
    const auto refs = packableTrace(1000);
    const std::string path = writeV3("cap.v3", refs, 64);
    StreamSource byDefault(path);
    StreamOptions options;
    options.memoryBudgetBytes = std::size_t{1} << 30;
    StreamSource roomy(path, options);
    EXPECT_EQ(byDefault.slotCount(), 2u);
    EXPECT_EQ(roomy.slotCount(), 2u);
    EXPECT_EQ(roomy.bufferBytes(), byDefault.bufferBytes());
    EXPECT_EQ(drainAll(roomy), refs);
}

/** "<stem><i>.v3", built by appending (GCC 12's -Wrestrict misfires
 *  on "literal" + std::to_string(i) in some inlining contexts). */
std::string
fileName(const char *stem, unsigned i)
{
    std::string name = stem;
    name += std::to_string(i);
    name += ".v3";
    return name;
}

/** The largest payload among @p paths: with two blocks of words it
 *  is a store's minimum. */
std::size_t
maxPayload(const std::vector<std::string> &paths)
{
    std::size_t most = 0;
    for (const std::string &path : paths)
        most = std::max(most, V3File(path).maxPayloadBytes());
    return most;
}

TEST_F(StreamTest, SharedStoreInterleavesTwelveStreams)
{
    // Twelve files of 3 to 9 blocks read through one store in a
    // fixed pseudo-random interleaving of batches, skips and resets,
    // wrapping through LoopSource, each beside a looped TraceV3Reader
    // doing the same.  Under the default ceiling every window fits;
    // under four blocks' worth the streams reclaim each other's.
    std::vector<std::string> paths;
    for (unsigned i = 0; i < 12; ++i) {
        paths.push_back(
            writeV3(fileName("s", i), saltedTrace(150 + 37 * i, i), 64));
    }
    const std::size_t tight =
        4 * 64 * sizeof(std::uint32_t) + maxPayload(paths);
    for (const std::size_t cap : {std::size_t{0}, tight}) {
        SCOPED_TRACE("cap " + std::to_string(cap));
        auto store = std::make_shared<BlockStore>(paths, cap);
        EXPECT_LE(store->bufferBytes(), cap ? cap : streamBudgetBytes());
        if (cap) {
            EXPECT_LT(store->slotCount(), paths.size());
        }
        std::vector<std::unique_ptr<LoopSource>> streams;
        std::vector<std::unique_ptr<LoopSource>> readers;
        for (std::size_t i = 0; i < paths.size(); ++i) {
            streams.push_back(std::make_unique<LoopSource>(
                std::make_unique<StreamSource>(store, i)));
            readers.push_back(std::make_unique<LoopSource>(
                std::make_unique<TraceV3Reader>(paths[i])));
        }
        std::uint64_t x = 0x243f6a8885a308d3ull;
        for (int step = 0; step < 2000; ++step) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            const std::size_t i = (x >> 32) % paths.size();
            const auto n = static_cast<std::size_t>((x >> 8) % 700);
            switch (x % 8) {
              case 0:
                ASSERT_EQ(streams[i]->skip(n), n);
                readers[i]->skip(n);
                break;
              case 1:
                streams[i]->reset();
                readers[i]->reset();
                break;
              default:
                ASSERT_EQ(collect(*streams[i], 1 + n / 2),
                          collect(*readers[i], 1 + n / 2))
                    << "step " << step << ", stream " << i;
            }
        }
        EXPECT_LE(store->bufferBytes(), cap ? cap : streamBudgetBytes());
    }
}

TEST_F(StreamTest, MoreStreamsThanSlotsReplayByteIdentically)
{
    // Six streams of eight blocks share three slots, read round
    // robin 40 records a turn.  A block spans two turns and five
    // other streams' blocks pass through the store between them, so
    // it is reclaimed and decoded again: more decodes than blocks,
    // the same words.
    std::vector<std::string> paths;
    for (unsigned i = 0; i < 6; ++i) {
        paths.push_back(
            writeV3(fileName("r", i), saltedTrace(512, i), 64));
    }
    const std::size_t cap =
        3 * 64 * sizeof(std::uint32_t) + maxPayload(paths);
    auto store = std::make_shared<BlockStore>(paths, cap);
    ASSERT_LE(store->slotCount(), 3u);
    std::vector<std::unique_ptr<StreamSource>> streams;
    for (std::size_t i = 0; i < paths.size(); ++i)
        streams.push_back(std::make_unique<StreamSource>(store, i));
    std::vector<std::vector<MemRef>> got(paths.size());
    for (bool more = true; more;) {
        more = false;
        for (std::size_t i = 0; i < paths.size(); ++i) {
            const std::vector<MemRef> part = collect(*streams[i], 40);
            got[i].insert(got[i].end(), part.begin(), part.end());
            more = more || part.size() == 40;
        }
    }
    for (unsigned i = 0; i < paths.size(); ++i)
        EXPECT_EQ(got[i], saltedTrace(512, i)) << "stream " << i;
    EXPECT_GT(store->blocksDecoded(), 6u * 8u);
}

/** Return once @p store's decoders are idle: its decode count has
 *  not moved over three polls 2 ms apart. */
void
waitForDecoders(const BlockStore &store)
{
    std::uint64_t last = store.blocksDecoded();
    for (int still = 0; still < 3;) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        const std::uint64_t now = store.blocksDecoded();
        still = now == last ? still + 1 : 0;
        last = now;
    }
}

TEST_F(StreamTest, RoundRobinDecodesEachBlockOnce)
{
    // Four streams of eight blocks read round robin, as the simulator
    // multiplexes its processes, with the decoders idle before each
    // turn.  Every window fits the store, so whatever the turn length
    // each block is decoded once, and every decoded block is read.
    std::vector<std::string> paths;
    for (unsigned i = 0; i < 4; ++i) {
        paths.push_back(
            writeV3(fileName("rr", i), saltedTrace(512, i), 64));
    }
    for (const std::size_t turn : {std::size_t{40}, std::size_t{100}}) {
        SCOPED_TRACE("turn " + std::to_string(turn));
        auto store = std::make_shared<BlockStore>(paths);
        std::vector<std::unique_ptr<StreamSource>> streams;
        for (std::size_t i = 0; i < paths.size(); ++i)
            streams.push_back(std::make_unique<StreamSource>(store, i));
        std::vector<std::vector<MemRef>> got(paths.size());
        for (bool more = true; more;) {
            more = false;
            for (std::size_t i = 0; i < paths.size(); ++i) {
                waitForDecoders(*store);
                const std::vector<MemRef> part = collect(*streams[i], turn);
                got[i].insert(got[i].end(), part.begin(), part.end());
                more = more || part.size() == turn;
            }
        }
        for (unsigned i = 0; i < paths.size(); ++i)
            EXPECT_EQ(got[i], saltedTrace(512, i)) << "stream " << i;
        EXPECT_EQ(store->blocksDecoded(), 4u * 8u);
    }
}

TEST_F(StreamTest, PinnedBlockSurvivesOtherStreamsChurn)
{
    // Stream 0's block 2 stays pinned while four other streams drain
    // through the remaining slots of a three-slot store: its words
    // never change, and stream 0 still reads them.
    std::vector<std::string> paths;
    for (unsigned i = 0; i < 5; ++i) {
        paths.push_back(
            writeV3(fileName("p", i), saltedTrace(512, i), 64));
    }
    const std::size_t cap =
        3 * 64 * sizeof(std::uint32_t) + maxPayload(paths);
    auto store = std::make_shared<BlockStore>(paths, cap);
    ASSERT_LE(store->slotCount(), 3u);

    const std::vector<MemRef> first = saltedTrace(512, 0);
    const BlockStore::Pin held = store->pin(0, 2);
    ASSERT_EQ(held.records(), 64u);
    const std::vector<std::uint32_t> words(held.words(),
                                           held.words() + 64);
    for (std::size_t k = 0; k < 64; ++k)
        ASSERT_EQ(packed::unpack(words[k]), first[128 + k]) << k;

    for (unsigned i = 1; i < paths.size(); ++i) {
        StreamSource other(store, i);
        EXPECT_EQ(drainAll(other), saltedTrace(512, i)) << "stream " << i;
    }
    EXPECT_EQ(std::vector<std::uint32_t>(held.words(), held.words() + 64),
              words);
    StreamSource again(store, 0);
    again.skip(128);
    EXPECT_EQ(collect(again, 64),
              std::vector<MemRef>(first.begin() + 128,
                                  first.begin() + 192));
}

TEST_F(StreamTest, CorruptBlockFailsOnlyItsOwnStream)
{
    // One flipped payload byte in block 3 of one file: its stream
    // reads blocks 0-2, then fails with the byte-accurate TraceIO
    // message TraceV3Reader gives, and reads on past the block after
    // a skip; the other stream in the store reads every record.
    const std::vector<MemRef> good = saltedTrace(400, 1);
    const std::vector<MemRef> bad = saltedTrace(400, 2);
    const std::string goodPath = writeV3("good.v3", good, 64);
    const std::string badPath = writeV3("bad.v3", bad, 64);
    {
        const auto offset = static_cast<std::streamoff>(
            V3File(badPath).payloadOffset(3) + 5);
        std::fstream f(badPath,
                       std::ios::in | std::ios::out | std::ios::binary);
        f.seekg(offset);
        const int byte = f.get();
        f.seekp(offset);
        f.put(static_cast<char>(byte ^ 0x5a));
    }
    std::string expected;
    try {
        TraceV3Reader reader(badPath);
        (void)drainAll(reader);
    } catch (const SimError &e) {
        expected = e.what();
    }
    ASSERT_NE(expected.find("block 3 payload checksum mismatch"),
              std::string::npos)
        << expected;

    auto store = std::make_shared<BlockStore>(
        std::vector<std::string>{badPath, goodPath});
    StreamSource badStream(store, 0);
    StreamSource goodStream(store, 1);
    EXPECT_EQ(collect(badStream, 192),
              std::vector<MemRef>(bad.begin(), bad.begin() + 192));
    EXPECT_EQ(collect(goodStream, 100),
              std::vector<MemRef>(good.begin(), good.begin() + 100));
    try {
        MemRef ref;
        (void)badStream.next(ref);
        FAIL() << "the corrupt block was read";
    } catch (const SimError &e) {
        EXPECT_EQ(e.code(), ErrorCode::TraceIO);
        EXPECT_EQ(std::string(e.what()), expected);
    }
    EXPECT_EQ(drainAll(goodStream),
              std::vector<MemRef>(good.begin() + 100, good.end()));
    EXPECT_EQ(badStream.skip(64), 64u);
    EXPECT_EQ(drainAll(badStream),
              std::vector<MemRef>(bad.begin() + 256, bad.end()));
}

TEST_F(StreamTest, FailedReadAheadIsNotRetried)
{
    // Reading into block 2 of a standalone stream puts block 3 in its
    // window, and the decoder decodes it ahead; it fails its checksum.
    // The decoder must then go idle rather than decode block 3 again
    // and again: half a second later the process has used next to
    // no CPU.  Reading on still reports the block's error.
    const std::string path = writeV3("ahead.v3", saltedTrace(512, 3), 64);
    {
        const auto offset = static_cast<std::streamoff>(
            V3File(path).payloadOffset(3) + 5);
        std::fstream f(path,
                       std::ios::in | std::ios::out | std::ios::binary);
        f.seekg(offset);
        const int byte = f.get();
        f.seekp(offset);
        f.put(static_cast<char>(byte ^ 0x5a));
    }
    StreamSource stream(path);
    ASSERT_EQ(collect(stream, 150).size(), 150u);
    const std::clock_t before = std::clock();
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    const double cpuSeconds =
        static_cast<double>(std::clock() - before) / CLOCKS_PER_SEC;
    EXPECT_LT(cpuSeconds, 0.1);
    EXPECT_THROW((void)collect(stream, 512), SimError);
}

TEST_F(StreamTest, TwoHundredOneBlockFilesStreamUnderTheDefaultCeiling)
{
    // 200 files of one block each (8 Ki records under the default
    // 64 Ki-record block size), streamed as one workload under the
    // default 64 MiB ceiling.  An even split of the ceiling, 335 KB a
    // file, could not hold two slots sized for the format's 64 Ki
    // records (256 KiB each); the store keeps one 32 KiB block per
    // file.
    constexpr unsigned kFiles = 200;
    constexpr std::size_t kRecords = 8192;
    std::vector<std::string> paths;
    for (unsigned i = 0; i < kFiles; ++i) {
        paths.push_back(
            writeV3(fileName("one", i), saltedTrace(kRecords, i)));
    }
    core::Workload workload =
        core::Workload::fromTraceFiles(paths, /*streaming=*/true);
    std::vector<core::Process> processes = workload.take();
    ASSERT_EQ(processes.size(), kFiles);
    for (unsigned i = 0; i < kFiles; ++i) {
        ASSERT_EQ(collect(*processes[i].source, kRecords),
                  saltedTrace(kRecords, i))
            << "file " << i;
    }
}

TEST_F(StreamTest, JournalKeysTrackContentNotPathOrMode)
{
    const auto refs = packableTrace(400);
    const std::string a = writeV3("job-a.v3", refs, 64);
    const std::string b = writeV3("job-renamed.v3", refs, 64);

    core::SweepJob job;
    job.config = core::afterWritePolicy();
    job.instructions = 10'000;
    job.traceFiles = {a};
    const std::string keyA = core::sweepJobKey(job);
    ASSERT_FALSE(keyA.empty());

    // A renamed byte-identical copy resumes under the same key ...
    job.traceFiles = {b};
    EXPECT_EQ(core::sweepJobKey(job), keyA);

    // ... the replay mode is not part of the key (the modes are
    // bit-identical by contract) ...
    job.traceStreaming = true;
    EXPECT_EQ(core::sweepJobKey(job), keyA);
    job.traceStreaming = false;

    // ... different content is a different key ...
    auto more = refs;
    more.push_back(instRef(0x77'7000));
    job.traceFiles = {writeV3("job-c.v3", more, 64)};
    EXPECT_NE(core::sweepJobKey(job), keyA);

    // ... and an unreadable file yields the empty (never-journaled)
    // key instead of throwing on the sweep planning path.
    job.traceFiles = {(dir / "no-such-file.v3").string()};
    EXPECT_EQ(core::sweepJobKey(job), "");
}

TEST_F(StreamTest, GoldenPointsBitIdenticalAcrossReplayModes)
{
    // Three pinned design points simulated both ways over the same
    // trace files -- in-memory arena (filled through TraceV3Reader)
    // and bounded StreamSource -- must dump byte-identical stats.
    // This is the contract that lets traceStreaming stay out of the
    // resume-journal key.  Each mode also replays noisy copies of
    // the files (noisyCopy), which must dump the same bytes: the
    // low address bits and wrong-kind flags never reach timing.
    std::vector<std::string> clean;
    std::vector<std::string> noisy;
    auto specs = synth::workloadSpecs(2);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        specs[i].simInstructions = 30'000;
        auto src = synth::makeBenchmark(specs[i]);
        const std::vector<MemRef> refs = drainAll(*src);
        const std::string stem = "wl-" + std::to_string(i);
        clean.push_back(writeV3(stem + ".v3", refs, 1u << 12));
        noisy.push_back(
            writeV3(stem + "-noisy.v3", noisyCopy(refs), 1u << 12));
        ASSERT_FALSE(v3FileInfo(noisy.back()).packable());
    }

    std::vector<core::SweepJob> points;
    for (int p = 0; p < 3; ++p) {
        core::SweepJob job;
        job.config = core::afterWritePolicy();
        job.config.l2Org = p == 1 ? core::L2Org::LogicalSplit
                                  : core::L2Org::Unified;
        job.config.l2.cache.assoc = p == 2 ? 2 : 1;
        job.config.l2i = job.config.l2d = job.config.l2;
        job.config.name = "point-" + std::to_string(p);
        job.instructions = 40'000;
        points.push_back(std::move(job));
    }

    auto dump = [](core::SweepJob job,
                   const std::vector<std::string> &files,
                   bool streaming) {
        job.traceFiles = files;
        job.traceStreaming = streaming;
        const core::SimResult result = core::runSweepJob(job);
        std::ostringstream os;
        core::dumpStats(result, os);
        return os.str();
    };

    for (const core::SweepJob &job : points) {
        SCOPED_TRACE(job.config.name);
        const std::string viaArena = dump(job, clean, false);
        ASSERT_FALSE(viaArena.empty());
        EXPECT_EQ(dump(job, clean, true), viaArena);
        EXPECT_EQ(dump(job, noisy, false), viaArena);
        EXPECT_EQ(dump(job, noisy, true), viaArena);
    }
}

TEST_F(StreamTest, AddressAtOrAbove2To31FailsAsTraceIoInEveryMode)
{
    // The packed word holds addresses below 2^31, the user-mode
    // range of the paper's pixie traces.  A record past it is a bad
    // trace, not a record to truncate: every replay mode fails the
    // point as trace-io and names the address.  Each mode runs the
    // point twice, so the arena's second acquire of the failed
    // stream must fail the same way.
    synth::BenchmarkSpec spec = synth::workloadSpecs(1).front();
    spec.simInstructions = 2'000;
    auto src = synth::makeBenchmark(spec);
    std::vector<MemRef> refs = drainAll(*src);
    const auto data =
        std::find_if(refs.begin() + 100, refs.end(),
                     [](const MemRef &ref) { return ref.isData(); });
    ASSERT_NE(data, refs.end());
    data->addr = 0x8000'1230;
    const std::string path = writeV3("high.v3", refs, 1u << 10);

    core::SweepJob job;
    job.config = core::afterWritePolicy();
    job.instructions = 5'000;
    job.traceFiles = {path};
    for (const bool streaming : {false, true}) {
        SCOPED_TRACE(streaming ? "stream" : "arena");
        job.traceStreaming = streaming;
        for (int run = 0; run < 2; ++run) {
            const core::SweepOutcome out =
                core::runSweepJobIsolated(job);
            EXPECT_EQ(out.status, core::PointStatus::Failed);
            EXPECT_STREQ(errorCodeName(out.errorCode), "trace-io")
                << out.error;
            EXPECT_NE(out.error.find("0x80001230"), std::string::npos)
                << out.error;
        }
    }
}

} // namespace
} // namespace gaas::trace
