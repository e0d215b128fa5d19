/**
 * @file
 * Unit tests for the trace substrate: records, composing sources,
 * the flat v1/v2 reader behind `tracepack pack`, and the import of
 * v1/v2 files into v3.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>

#include "flat_trace.hh"
#include "trace/compose.hh"
#include "trace/file.hh"
#include "trace/source.hh"
#include "trace/stream.hh"
#include "trace/v3.hh"
#include "util/error.hh"
#include "util/hash.hh"
#include "util/logging.hh"

namespace gaas::trace
{
namespace
{

std::vector<MemRef>
sampleTrace()
{
    return {
        instRef(0x400000),
        loadRef(0x10000000),
        instRef(0x400004),
        instRef(0x400008, /*syscall=*/true),
        storeRef(0x7ffeff00),
        instRef(0x40000c),
        storeRef(0x7ffeff04, /*partial_word=*/true),
    };
}

TEST(MemRef, Predicates)
{
    EXPECT_TRUE(instRef(0).isInst());
    EXPECT_FALSE(instRef(0).isData());
    EXPECT_TRUE(loadRef(0).isLoad());
    EXPECT_TRUE(loadRef(0).isData());
    EXPECT_TRUE(storeRef(0).isStore());
    EXPECT_TRUE(instRef(0, true).syscall);
    EXPECT_TRUE(storeRef(0, true).partialWord);
}

TEST(VectorSource, PlaysBackAndResets)
{
    VectorSource src("sample", sampleTrace());
    auto first = collect(src, 100);
    EXPECT_EQ(first, sampleTrace());
    MemRef ref;
    EXPECT_FALSE(src.next(ref));
    src.reset();
    auto second = collect(src, 100);
    EXPECT_EQ(second, sampleTrace());
}

TEST(LoopSource, WrapsAround)
{
    auto inner =
        std::make_unique<VectorSource>("sample", sampleTrace());
    LoopSource looped(std::move(inner));
    const auto n = sampleTrace().size();
    auto refs = collect(looped, 3 * n);
    ASSERT_EQ(refs.size(), 3 * n);
    EXPECT_EQ(looped.wraps(), 2u);
    // Third copy matches the first.
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(refs[i], refs[2 * n + i]);
}

TEST(LoopSource, EmptyInnerTerminates)
{
    auto inner = std::make_unique<VectorSource>(
        "empty", std::vector<MemRef>{});
    LoopSource looped(std::move(inner));
    MemRef ref;
    EXPECT_FALSE(looped.next(ref));
}

TEST(LoopSource, BatchedWrapMatchesNext)
{
    // Every batch size from 1 up to past three laps must straddle the
    // wrap at some offset; the batched stream and its wrap count must
    // match the repeated-next() ground truth exactly.
    const auto sample = sampleTrace();
    const std::size_t n = sample.size();
    const std::size_t want = 3 * n + 2;
    for (std::size_t batch = 1; batch <= want; ++batch) {
        LoopSource byNext(
            std::make_unique<VectorSource>("s", sample));
        LoopSource byBatch(
            std::make_unique<VectorSource>("s", sample));

        std::vector<MemRef> a;
        MemRef ref;
        while (a.size() < want && byNext.next(ref))
            a.push_back(ref);

        std::vector<MemRef> b;
        std::vector<MemRef> buf(batch);
        while (b.size() < want) {
            const std::size_t ask =
                std::min(batch, want - b.size());
            const std::size_t got =
                byBatch.nextBatch(buf.data(), ask);
            ASSERT_GT(got, 0u) << "batch " << batch;
            b.insert(b.end(), buf.begin(), buf.begin() + got);
        }
        ASSERT_EQ(a, b) << "batch " << batch;
        EXPECT_EQ(byNext.wraps(), byBatch.wraps())
            << "batch " << batch;
    }
}

TEST(LoopSource, OneBatchSpansManyWraps)
{
    // A single call much larger than the inner trace fills completely
    // (the refill loop keeps wrapping instead of returning short).
    const auto sample = sampleTrace();
    const std::size_t n = sample.size();
    LoopSource looped(std::make_unique<VectorSource>("s", sample));
    std::vector<MemRef> out(5 * n + 3);
    ASSERT_EQ(looped.nextBatch(out.data(), out.size()), out.size());
    EXPECT_EQ(looped.wraps(), 5u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], sample[i % n]) << "index " << i;
}

TEST(LoopSource, EmptyInnerBatchTerminates)
{
    LoopSource looped(std::make_unique<VectorSource>(
        "empty", std::vector<MemRef>{}));
    MemRef buf[4];
    EXPECT_EQ(looped.nextBatch(buf, 4), 0u);
}

TEST(LoopSource, SkipMatchesDiscardedReads)
{
    // skip(n) must land exactly where n discarded reads would, for
    // skips that stay inside the pass, hit its end exactly, cross
    // it once, and cross it several times -- both before the pass
    // length is known (pre == 0 starts on a fresh source) and
    // after.
    const auto sample = sampleTrace();
    const std::size_t n = sample.size();
    for (std::size_t pre : {std::size_t{0}, std::size_t{3}}) {
        for (std::size_t skip :
             {std::size_t{0}, std::size_t{1}, n - 1, n, n + 1,
              2 * n - 1, 2 * n, 5 * n + 2}) {
            LoopSource skipped(
                std::make_unique<VectorSource>("s", sample));
            LoopSource read(
                std::make_unique<VectorSource>("s", sample));
            (void)collect(skipped, pre);
            (void)collect(read, pre);
            EXPECT_EQ(skipped.skip(skip), skip);
            (void)collect(read, skip);
            EXPECT_EQ(collect(skipped, 2 * n), collect(read, 2 * n))
                << "pre " << pre << " skip " << skip;
        }
    }
}

TEST(LoopSource, SkipCountsWholePassWraps)
{
    const auto sample = sampleTrace();
    const std::size_t n = sample.size();
    LoopSource looped(std::make_unique<VectorSource>("s", sample));
    // Read one record past the end so the pass length is learned.
    (void)collect(looped, n + 1);
    EXPECT_EQ(looped.wraps(), 1u);
    // Three whole passes from offset 1: pure modular arithmetic.
    EXPECT_EQ(looped.skip(3 * n), 3 * n);
    EXPECT_EQ(looped.wraps(), 4u);
    MemRef ref;
    ASSERT_TRUE(looped.next(ref));
    EXPECT_EQ(ref, sample[1]);
}

TEST(LoopSource, SkipOnEmptyInnerReturnsZero)
{
    LoopSource looped(std::make_unique<VectorSource>(
        "empty", std::vector<MemRef>{}));
    EXPECT_EQ(looped.skip(5), 0u);
    MemRef ref;
    EXPECT_FALSE(looped.next(ref));
}

TEST(MixSource, CountsKinds)
{
    MixSource mix(
        std::make_unique<VectorSource>("sample", sampleTrace()));
    collect(mix, 100);
    const RefMix &m = mix.mix();
    EXPECT_EQ(m.instructions, 4u);
    EXPECT_EQ(m.loads, 1u);
    EXPECT_EQ(m.stores, 2u);
    EXPECT_EQ(m.syscalls, 1u);
    EXPECT_EQ(m.partialWordStores, 1u);
    EXPECT_EQ(m.total(), 7u);
    EXPECT_DOUBLE_EQ(m.loadFraction(), 0.25);
    EXPECT_DOUBLE_EQ(m.storeFraction(), 0.5);
}

class TraceFileTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // Unique per test case AND per process: ctest -j runs each
        // case as its own concurrent process, so a shared fixed name
        // races (one case's writer truncates another's reader).
        const auto *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        path = (std::filesystem::temp_directory_path() /
                ("gaas_trace_test_" + std::string(info->name()) +
                 "_" + std::to_string(::getpid()) + ".gtrc"))
                   .string();
    }

    void
    TearDown() override
    {
        for (const std::string &p : {path, v3Path(), refPath()})
            std::filesystem::remove(p);
    }

    /** Scratch v3 files next to `path`, for the import cases. */
    std::string v3Path() const { return path + ".v3"; }
    std::string refPath() const { return path + ".ref.v3"; }

    std::string path;
};

TEST_F(TraceFileTest, RoundTrip)
{
    test::writeFlatTrace(path, sampleTrace());
    TraceFileReader reader(path);
    EXPECT_EQ(reader.formatVersion(), 2u);
    EXPECT_EQ(reader.recordCount(), sampleTrace().size());
    EXPECT_EQ(collect(reader, 100), sampleTrace());
}

TEST_F(TraceFileTest, ResetRewinds)
{
    test::writeFlatTrace(path, sampleTrace());
    TraceFileReader reader(path);
    auto first = collect(reader, 100);
    reader.reset();
    auto second = collect(reader, 100);
    EXPECT_EQ(first, sampleTrace());
    EXPECT_EQ(first, second);
}

TEST_F(TraceFileTest, LargeTraceBuffering)
{
    // More records than the reader's 64 Ki-record buffer holds.
    std::vector<MemRef> big;
    for (std::uint64_t i = 0; i < 200000; ++i)
        big.push_back(instRef(0x400000 + 4 * i, i % 977 == 0));
    test::writeFlatTrace(path, big);
    TraceFileReader reader(path);
    EXPECT_EQ(reader.recordCount(), big.size());
    auto refs = collect(reader, big.size() + 1);
    EXPECT_EQ(refs, big);
}

TEST_F(TraceFileTest, MissingFileIsFatal)
{
    EXPECT_THROW(TraceFileReader("/nonexistent/nope.gtrc"),
                 FatalError);
}

TEST_F(TraceFileTest, BadMagicIsFatal)
{
    test::writeFileBytes(path, "not a trace file at all, 32 byte");
    EXPECT_THROW(TraceFileReader reader(path), FatalError);
}

TEST_F(TraceFileTest, V1FilesRemainReadable)
{
    // v1 has the v2 layout under an older version stamp.
    test::writeFlatTrace(path, sampleTrace(), 1);
    TraceFileReader reader(path);
    EXPECT_EQ(reader.formatVersion(), 1u);
    EXPECT_EQ(collect(reader, 100), sampleTrace());
}

TEST_F(TraceFileTest, FutureVersionIsFatal)
{
    test::writeFlatTrace(path, {instRef(0x400000)}, 9);
    EXPECT_THROW(TraceFileReader reader(path), FatalError);
}

TEST_F(TraceFileTest, TruncationIsFatalAtOpen)
{
    test::writeFlatTrace(path, sampleTrace());
    const auto full = std::filesystem::file_size(path);
    // Cut mid-record (drop 4 bytes) and at a record boundary (drop
    // exactly two records): both must be rejected when the file is
    // opened, not records later mid-simulation.
    for (const std::uintmax_t cut :
         {full - 4, full - 2 * kTraceRecordBytes}) {
        std::filesystem::resize_file(path, cut);
        try {
            TraceFileReader reader(path);
            FAIL() << "truncated file (size " << cut
                   << ") must fail at open";
        } catch (const FatalError &err) {
            const std::string what = err.what();
            EXPECT_NE(what.find("truncated"), std::string::npos)
                << what;
            // Byte-accurate: the message carries the actual size.
            EXPECT_NE(what.find(std::to_string(cut)),
                      std::string::npos)
                << what;
        }
    }
}

TEST_F(TraceFileTest, TrailingGarbageIsFatalAtOpen)
{
    const std::string bytes = test::flatTraceBytes(sampleTrace());
    test::writeFileBytes(path, bytes + "junk!");
    try {
        TraceFileReader reader(path);
        FAIL() << "garbage-suffixed file must fail at open";
    } catch (const FatalError &err) {
        const std::string what = err.what();
        EXPECT_NE(what.find("trailing garbage"), std::string::npos)
            << what;
        // Byte-accurate: names the offset where the garbage starts.
        EXPECT_NE(what.find("offset " + std::to_string(bytes.size())),
                  std::string::npos)
            << what;
    }
}

TEST_F(TraceFileTest, HeaderCountMismatchIsFatalAtOpen)
{
    // Forge the header to promise one extra record (the count's low
    // byte is at offset 8): the file is now "truncated" relative to
    // its own header.
    std::string bytes = test::flatTraceBytes(sampleTrace());
    bytes[8] = static_cast<char>(sampleTrace().size() + 1);
    test::writeFileBytes(path, bytes);
    EXPECT_THROW(TraceFileReader reader(path), FatalError);
}

TEST_F(TraceFileTest, PackImportsV1AndV2Losslessly)
{
    // Every record shape the formats carry: flags on every kind
    // (including ones the ingest packer would drop), an unaligned
    // address, and addresses past 2^31 and 2^60 -- the last two
    // kinds escape to raw v3 records -- plus enough sequential
    // fetches to fill several 256-record blocks.
    std::vector<MemRef> refs = sampleTrace();
    refs.push_back(loadRef(0x10000001));
    refs.push_back(storeRef(Addr{1} << 40, true));
    refs.push_back(MemRef{0x20, RefKind::Load, true, true});
    refs.push_back(instRef(~Addr{0} - 3, true));
    refs.push_back(loadRef(0x4));
    for (std::uint64_t i = 0; i < 3000; ++i)
        refs.push_back(instRef(0x400000 + 4 * i, i % 701 == 0));

    {
        TraceV3Writer direct(refPath(), 256);
        for (const MemRef &ref : refs)
            direct.write(ref);
    }
    for (const std::uint32_t version : {1u, 2u}) {
        SCOPED_TRACE("v" + std::to_string(version));
        test::writeFlatTrace(path, refs, version);
        {
            // The import exactly as `tracepack pack` runs it.
            TraceFileReader src(path);
            TraceV3Writer writer(v3Path(), 256);
            EXPECT_EQ(writer.writeAll(src), refs.size());
        }
        TraceV3Reader imported(v3Path());
        TraceV3Reader direct(refPath());
        const auto got = collect(imported, refs.size() + 1);
        EXPECT_EQ(got, refs);
        EXPECT_EQ(got, collect(direct, refs.size() + 1));
        // Same records in the same blocks: identical payloads.
        EXPECT_EQ(v3FileInfo(v3Path()).digest,
                  v3FileInfo(refPath()).digest);
    }
}

/**
 * Five 256-record blocks, the last one short, holding every token
 * shape the v3 writer emits: 1-, 2- and 3-byte delta tokens in both
 * directions, each of the twelve legal meta nibbles (kind 0..2 x
 * syscall x partialWord), and raw escapes for unaligned addresses
 * and for word deltas too wide for 60 bits.
 */
std::vector<MemRef>
multiBlockTokenTrace()
{
    // zigzag(delta) < 8, < 1024 and < 131072: tokens of 1, 2 and 3
    // bytes once the meta nibble is shifted in.
    constexpr std::int64_t kDeltas[] = {1, -2, 3, 200, -300, 511,
                                        40000, -50000, 65535};
    std::vector<MemRef> refs;
    std::uint64_t word = std::uint64_t{1} << 24;
    for (std::size_t i = 0; i < 4 * 256 + 77; ++i) {
        const unsigned meta = i % 12;
        MemRef ref;
        ref.kind = static_cast<RefKind>(meta % 3);
        ref.syscall = (meta / 3) % 2 != 0;
        ref.partialWord = meta / 6 != 0;
        if (i % 97 == 5) {
            ref.addr = (word << 2) + 1 + i % 3; // unaligned
        } else if (i % 211 == 7) {
            ref.addr = Addr{1} << 62; // word delta past 2^60
        } else {
            word += static_cast<std::uint64_t>(
                kDeltas[(i * 7 + i / 9) % std::size(kDeltas)]);
            ref.addr = word << 2;
        }
        refs.push_back(ref);
    }
    return refs;
}

/** 64-bit FNV-1a of every byte of the file at @p path. */
std::uint64_t
fileHash(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    util::Fnv1a hash;
    hash.feedBytes(bytes.data(), bytes.size());
    return hash.value();
}

TEST_F(TraceFileTest, V3WriterBytesArePinnedPastOneBlock)
{
    // The literals were computed from the writer that staged each
    // block as MemRefs and encoded it whole; any writer must keep
    // every byte.
    constexpr std::uint64_t kDigest = 4367005550249096286ull;
    constexpr std::uint64_t kFileHash = 4968029644098748887ull;
    const std::vector<MemRef> refs = multiBlockTokenTrace();
    {
        TraceV3Writer writer(refPath(), 256);
        for (const MemRef &ref : refs)
            writer.write(ref);
    }
    {
        VectorSource src("tokens", refs);
        TraceV3Writer writer(v3Path(), 256);
        EXPECT_EQ(writer.writeAll(src), refs.size());
    }
    for (const std::string &file : {refPath(), v3Path()}) {
        SCOPED_TRACE(file);
        const V3FileInfo info = v3FileInfo(file);
        EXPECT_EQ(info.records, refs.size());
        EXPECT_FALSE(info.packable());
        EXPECT_EQ(info.digest, kDigest);
        EXPECT_EQ(fileHash(file), kFileHash);
        TraceV3Reader reader(file);
        EXPECT_EQ(collect(reader, refs.size() + 1), refs);
    }
}

TEST_F(TraceFileTest, PackRejectsAV3Input)
{
    {
        TraceV3Writer writer(v3Path());
        writer.write(instRef(0x400000));
    }
    try {
        TraceFileReader reader(v3Path());
        FAIL() << "a v3 file was imported as v1/v2";
    } catch (const SimError &e) {
        EXPECT_EQ(e.code(), ErrorCode::TraceIO);
        EXPECT_NE(std::string(e.what()).find("already format v3"),
                  std::string::npos)
            << e.what();
    }
}

TEST_F(TraceFileTest, V3EntryPointsRejectFlatFilesNamingPack)
{
    // A one-record flat file is shorter than any v3 file and a
    // 200-record one is not; both must be named as v1/v2 files, not
    // as short or broken v3 files.
    const std::vector<std::vector<MemRef>> fixtures = {
        {instRef(0x400000)},
        std::vector<MemRef>(200, instRef(0x400000))};
    for (const auto &refs : fixtures) {
        for (const std::uint32_t version : {1u, 2u}) {
            test::writeFlatTrace(path, refs, version);
            const std::string format =
                "format v" + std::to_string(version);
            auto expectPackHint = [&](const char *entry,
                                      auto open) {
                try {
                    open();
                    FAIL() << entry << " accepted a " << format
                           << " file";
                } catch (const SimError &e) {
                    const std::string what = e.what();
                    EXPECT_EQ(e.code(), ErrorCode::TraceIO) << what;
                    EXPECT_NE(what.find(format), std::string::npos)
                        << entry << ": " << what;
                    EXPECT_NE(what.find("`tracepack pack`"),
                              std::string::npos)
                        << entry << ": " << what;
                }
            };
            expectPackHint("v3FileInfo", [&] { v3FileInfo(path); });
            expectPackHint("TraceV3Reader",
                           [&] { TraceV3Reader reader(path); });
            expectPackHint("StreamSource",
                           [&] { StreamSource stream(path); });
        }
    }
}

TEST_F(TraceFileTest, InfoRejectsWhatTheReadersReject)
{
    // v3FileInfo once read only the header, so a file whose footer
    // magic was corrupt passed `tracepack info` and failed every
    // reader.  It now opens the file the way the readers do.
    {
        TraceV3Writer writer(v3Path());
        for (const MemRef &ref : sampleTrace())
            writer.write(ref);
    }
    {
        std::fstream f(v3Path(), std::ios::in | std::ios::out |
                                     std::ios::binary);
        f.seekp(-1, std::ios::end);
        f.put('X'); // last byte of the "GSK3" footer magic
    }
    for (const auto &open :
         {std::function<void()>([&] { v3FileInfo(v3Path()); }),
          std::function<void()>(
              [&] { TraceV3Reader reader(v3Path()); })}) {
        try {
            open();
            FAIL() << "a corrupt footer was accepted";
        } catch (const SimError &e) {
            EXPECT_EQ(e.code(), ErrorCode::TraceIO);
            EXPECT_NE(std::string(e.what()).find("footer magic"),
                      std::string::npos)
                << e.what();
        }
    }
}

} // namespace
} // namespace gaas::trace
