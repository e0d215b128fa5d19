/**
 * @file
 * Configuration-space fuzzing: seeded random (but valid)
 * SystemConfigs drive short simulations, and the accounting
 * invariants must hold for every one of them.  This is the guard
 * against corner-case interactions the hand-written timing tests
 * do not enumerate (odd line sizes x policies x bypass modes x
 * split organisations).
 *
 * The second half fuzzes the *rejection* paths: mutated config text
 * and corrupted trace-file headers must either load cleanly or throw
 * a SimError with the right stable code (config / trace-io) -- never
 * an unclassified exception, never a crash.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/config.hh"
#include "core/config_io.hh"
#include "core/simulator.hh"
#include "flat_trace.hh"
#include "trace/file.hh"
#include "trace/v3.hh"
#include "util/error.hh"
#include "util/hash.hh"
#include "util/random.hh"

namespace gaas::core
{
namespace
{

/** Draw a random valid configuration. */
SystemConfig
randomConfig(Rng &rng)
{
    SystemConfig cfg = baseline();
    cfg.name = "fuzz";

    const std::uint64_t l1_sizes[] = {1024, 2048, 4096, 8192};
    const unsigned line_sizes[] = {4, 8, 16};
    const unsigned assocs[] = {1, 1, 2}; // bias to direct mapped

    cfg.l1i.sizeWords = l1_sizes[rng.nextBounded(4)];
    cfg.l1i.assoc = assocs[rng.nextBounded(3)];
    const unsigned line = line_sizes[rng.nextBounded(3)];
    cfg.l1i.lineWords = cfg.l1i.fetchWords = line;
    cfg.l1d = cfg.l1i;
    cfg.l1d.sizeWords = l1_sizes[rng.nextBounded(4)];

    const WritePolicy policies[] = {
        WritePolicy::WriteBack, WritePolicy::WriteMissInvalidate,
        WritePolicy::WriteOnly, WritePolicy::SubblockPlacement};
    cfg.writePolicy = policies[rng.nextBounded(4)];
    cfg.applyPolicyDefaults();
    if (cfg.writePolicy == WritePolicy::WriteBack) {
        // Victim entries must cover a full L1-D line.
        cfg.wbEntryWords = std::max(cfg.wbEntryWords,
                                    cfg.l1d.lineWords);
    } else {
        cfg.wbDepth = 1u << rng.nextBounded(5); // 1..16
    }

    const L2Org orgs[] = {L2Org::Unified, L2Org::LogicalSplit,
                          L2Org::PhysicalSplit};
    cfg.l2Org = orgs[rng.nextBounded(3)];
    cfg.l2.cache.sizeWords = 16384ull
                             << rng.nextBounded(5); // 16K..256K
    cfg.l2.cache.assoc = assocs[rng.nextBounded(3)];
    cfg.l2.accessTime = 2 + rng.nextBounded(9);
    cfg.l2i = cfg.l2d = cfg.l2;
    cfg.l2d.cache.sizeWords = 16384ull << rng.nextBounded(5);
    cfg.l2d.accessTime = 2 + rng.nextBounded(9);

    if (cfg.l2IsSplit() && rng.nextBernoulli(0.5))
        cfg.concurrentIRefill = true;
    if (isWriteThrough(cfg.writePolicy)) {
        if (cfg.writePolicy == WritePolicy::WriteOnly &&
            rng.nextBernoulli(0.3)) {
            cfg.loadBypass = LoadBypass::DirtyBit;
        } else if (rng.nextBernoulli(0.3)) {
            cfg.loadBypass = LoadBypass::Associative;
        }
    }
    if (rng.nextBernoulli(0.3)) {
        cfg.l2DirtyBuffer = true;
        cfg.memory.dirtyBuffer = true;
    }
    cfg.timeSliceCycles = 10'000u << rng.nextBounded(4);
    return cfg;
}

class ConfigFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(ConfigFuzz, InvariantsHoldOnRandomConfigs)
{
    Rng rng(GetParam());
    const SystemConfig cfg = randomConfig(rng);
    SCOPED_TRACE(cfg.describe());
    ASSERT_NO_THROW(cfg.validate());

    const auto res = runStandard(cfg, 30'000, 4, 10'000);

    // Exact cycle decomposition.
    EXPECT_EQ(res.cycles, res.instructions + res.cpuStallCycles +
                              res.comp.total());
    // The memory system never creates negative time.
    EXPECT_GE(res.cpi(), res.baseCpi());
    // Accounting consistency.
    EXPECT_EQ(res.sys.l2iAccesses, res.sys.l1iMisses);
    EXPECT_LE(res.sys.l2iMisses, res.sys.l2iAccesses);
    EXPECT_LE(res.sys.l2dMisses, res.sys.l2dAccesses);
    EXPECT_LE(res.sys.l1iMisses, res.sys.ifetches);
    EXPECT_LE(res.sys.l1dReadMisses, res.sys.loads);
    EXPECT_LE(res.sys.l1dWriteMisses, res.sys.stores);
    // Memory traffic only comes from L2 misses.
    EXPECT_EQ(res.sys.memory.reads,
              res.sys.l2iMisses + res.sys.l2dMisses);
    // Dirty writebacks cannot exceed misses.
    EXPECT_LE(res.sys.memory.dirtyWritebacks, res.sys.memory.reads);
    // The run is deterministic.
    const auto res2 = runStandard(cfg, 30'000, 4, 10'000);
    EXPECT_EQ(res.cycles, res2.cycles);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConfigFuzz,
                         ::testing::Range<std::uint64_t>(1, 33));

/**
 * Load @p text, requiring either a clean parse or a structured
 * rejection: any escape that is not SimError(Config) is a bug in the
 * parser's error discipline.
 */
void
expectStructuredConfigParse(const std::string &text)
{
    std::istringstream in(text);
    try {
        const SystemConfig cfg = loadConfig(in);
        cfg.validate(); // a parse that succeeds is fully valid
    } catch (const SimError &e) {
        EXPECT_EQ(e.code(), ErrorCode::Config)
            << e.what() << "\ninput:\n"
            << text;
    }
    // Any other exception type propagates and fails the test.
}

TEST(ConfigTextFuzz, DirectedRejectionsCarryTheConfigCode)
{
    // A corpus of known-bad inputs covering every rejection branch
    // of loadConfig: malformed lines, unknown keys, duplicates, bad
    // enum/number/boolean values, and semantic validation failures.
    const char *corpus[] = {
        "garbage",
        "key value",
        "= 4",
        "unknown.key = 3",
        "l1i.assoc = x",
        "l1i.size_words = 99999999999999999999999999",
        "l1i.size_words = -1",
        "write_policy = bogus",
        "l2.org = sideways",
        "load_bypass = sometimes",
        "concurrent_i_refill = maybe",
        "mmu.page_coloring = 2",
        "l1d.size_words = 1000",       // not a power of two
        "l1i.line_words = 64",         // beyond the subblock mask
        "l2.access_time = 0",
        "time_slice_cycles = 0",
        "wb.depth = 0",
        "l1i.assoc = 3",               // lines not divisible
        "name = a\nname = b",          // duplicate key
        "l1i.size_words = 4096\nl1i.size_words = 4096",
    };
    for (const char *text : corpus) {
        SCOPED_TRACE(text);
        std::istringstream in(text);
        try {
            loadConfig(in);
            FAIL() << "input was accepted";
        } catch (const SimError &e) {
            EXPECT_EQ(e.code(), ErrorCode::Config) << e.what();
        }
    }
}

class ConfigTextFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(ConfigTextFuzz, MutatedTextParsesOrRejectsStructurally)
{
    Rng rng(GetParam() * 7919);

    // Start from a valid saved config (itself randomized) and apply
    // a handful of text-level mutations; whatever comes out must hit
    // the parse-or-structured-reject contract.
    std::ostringstream os;
    saveConfig(randomConfig(rng), os);
    std::string text = os.str();

    const unsigned mutations = 1 + rng.nextBounded(4);
    for (unsigned m = 0; m < mutations; ++m) {
        if (text.empty())
            break;
        switch (rng.nextBounded(5)) {
          case 0: { // flip one byte to a random printable char
            const std::size_t at = rng.nextBounded(text.size());
            text[at] =
                static_cast<char>(' ' + rng.nextBounded(95));
            break;
          }
          case 1: { // truncate at a random point
            text.resize(rng.nextBounded(text.size()));
            break;
          }
          case 2: { // duplicate a random line
            std::vector<std::string> lines;
            std::istringstream in(text);
            for (std::string l; std::getline(in, l);)
                lines.push_back(l);
            if (lines.empty())
                break;
            const std::size_t at = rng.nextBounded(lines.size());
            lines.insert(lines.begin() + at, lines[at]);
            std::string joined;
            for (const auto &l : lines)
                joined += l + '\n';
            text = joined;
            break;
          }
          case 3: // insert a garbage line up front
            text = "fuzz.noise = " +
                   std::to_string(rng.nextBounded(1000)) + "\n" +
                   text;
            break;
          case 4: { // delete one character (often an '=' or digit)
            const std::size_t at = rng.nextBounded(text.size());
            text.erase(at, 1);
            break;
          }
        }
    }
    SCOPED_TRACE(text);
    expectStructuredConfigParse(text);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConfigTextFuzz,
                         ::testing::Range<std::uint64_t>(1, 65));

/** A fresh scratch directory under the gtest temp root. */
std::string
scratchDir(const std::string &name)
{
    const std::string dir = ::testing::TempDir() + "fuzz-" + name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

/** The bytes of a small valid v2 trace file. */
std::string
validTraceBytes()
{
    std::vector<trace::MemRef> refs;
    for (int i = 0; i < 16; ++i) {
        trace::MemRef ref;
        ref.addr = 0x1000u + 4u * static_cast<Addr>(i);
        ref.kind = i % 3 == 0 ? trace::RefKind::Load
                              : trace::RefKind::Inst;
        refs.push_back(ref);
    }
    return test::flatTraceBytes(refs);
}

/**
 * Open (and fully read) @p bytes as a trace file, requiring either
 * success or SimError(TraceIO).
 */
void
expectStructuredTraceOpen(const std::string &dir,
                          const std::string &bytes)
{
    const std::string path = dir + "/mutant.gtrc";
    {
        std::ofstream out(path, std::ios::binary);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
    }
    try {
        trace::TraceFileReader reader(path);
        trace::MemRef ref;
        while (reader.next(ref)) {
        }
    } catch (const SimError &e) {
        EXPECT_EQ(e.code(), ErrorCode::TraceIO) << e.what();
    }
}

TEST(TraceHeaderFuzz, DirectedHeaderCorruptions)
{
    const std::string dir = scratchDir("trace-directed");
    const std::string valid = validTraceBytes();

    auto expectTraceIo = [&](std::string bytes) {
        const std::string path = dir + "/bad.gtrc";
        {
            std::ofstream out(path, std::ios::binary);
            out.write(bytes.data(),
                      static_cast<std::streamsize>(bytes.size()));
        }
        try {
            trace::TraceFileReader reader(path);
            trace::MemRef ref;
            while (reader.next(ref)) {
            }
            FAIL() << "corrupt trace was accepted";
        } catch (const SimError &e) {
            EXPECT_EQ(e.code(), ErrorCode::TraceIO) << e.what();
        }
    };

    {
        std::string bytes = valid; // bad magic
        bytes[0] = 'X';
        expectTraceIo(bytes);
    }
    {
        std::string bytes = valid; // version 0 (below minimum)
        bytes[4] = 0;
        expectTraceIo(bytes);
    }
    {
        std::string bytes = valid; // version 3 (the v3 stamp)
        bytes[4] = 3;
        expectTraceIo(bytes);
    }
    {
        std::string bytes = valid; // header promises one extra
        bytes[8] = static_cast<char>(bytes[8] + 1);
        expectTraceIo(bytes);
    }
    {
        std::string bytes = valid; // truncated mid-record
        bytes.resize(bytes.size() - 3);
        expectTraceIo(bytes);
    }
    {
        std::string bytes = valid; // trailing garbage
        bytes += "zzz";
        expectTraceIo(bytes);
    }
    expectTraceIo(valid.substr(0, 10)); // truncated header
    expectTraceIo("");                  // empty file
    {
        // Invalid record meta (kind bits = 3) past a valid header:
        // rejected at next(), still as trace-io.
        std::string bytes = valid;
        bytes[16 + 8] = 0x03; // first record's meta byte
        expectTraceIo(bytes);
    }

    // A version-1 byte with the same exact-size layout is accepted
    // and reported as v1 -- the compatibility window stays open.
    {
        std::string bytes = valid;
        bytes[4] = 1;
        const std::string path = dir + "/v1.gtrc";
        std::ofstream out(path, std::ios::binary);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
        out.close();
        trace::TraceFileReader reader(path);
        EXPECT_EQ(reader.formatVersion(), 1u);
        EXPECT_EQ(reader.recordCount(), 16u);
    }
}

class TraceHeaderFuzz
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(TraceHeaderFuzz, MutatedFilesOpenOrRejectStructurally)
{
    Rng rng(GetParam() * 104729);
    const std::string dir =
        scratchDir("trace-" + std::to_string(GetParam()));
    std::string bytes = validTraceBytes();

    const unsigned mutations = 1 + rng.nextBounded(3);
    for (unsigned m = 0; m < mutations; ++m) {
        if (bytes.empty())
            break;
        switch (rng.nextBounded(4)) {
          case 0: { // flip a random byte anywhere
            const std::size_t at = rng.nextBounded(bytes.size());
            bytes[at] = static_cast<char>(rng.nextBounded(256));
            break;
          }
          case 1: // truncate
            bytes.resize(rng.nextBounded(bytes.size()));
            break;
          case 2: { // append garbage
            const unsigned extra = 1 + rng.nextBounded(16);
            for (unsigned i = 0; i < extra; ++i)
                bytes += static_cast<char>(rng.nextBounded(256));
            break;
          }
          case 3: { // corrupt a header byte specifically
            const std::size_t at = rng.nextBounded(16);
            if (at < bytes.size())
                bytes[at] =
                    static_cast<char>(rng.nextBounded(256));
            break;
          }
        }
    }
    expectStructuredTraceOpen(dir, bytes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceHeaderFuzz,
                         ::testing::Range<std::uint64_t>(1, 49));

/**
 * Write a small valid v3 trace (4 blocks: 64+64+64+8 records) and
 * return its bytes.  The fixed shape lets the directed corruptions
 * below compute exact frame / seek-table / tail offsets.
 */
std::string
validV3Bytes(const std::string &dir)
{
    const std::string path = dir + "/valid.v3";
    {
        trace::TraceV3Writer writer(path, 64);
        for (int i = 0; i < 200; ++i) {
            trace::MemRef ref;
            ref.addr = 0x0040'0000u + 4u * static_cast<Addr>(i % 90);
            ref.kind = i % 5 == 0 ? trace::RefKind::Load
                                  : trace::RefKind::Inst;
            writer.write(ref);
        }
        writer.close();
    }
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

TEST(TraceV3Fuzz, DirectedCorruptionsCarryTraceIoAndOffsets)
{
    const std::string dir = scratchDir("v3-directed");
    const std::string valid = validV3Bytes(dir);
    constexpr std::size_t kBlocks = 4;
    const std::size_t tailStart =
        valid.size() - trace::kV3TailBytes;
    const std::size_t tableStart = tailStart - kBlocks * 8;

    auto expectTraceIo = [&](std::string bytes,
                             const char *needle) {
        const std::string path = dir + "/bad.v3";
        {
            std::ofstream out(path, std::ios::binary);
            out.write(bytes.data(),
                      static_cast<std::streamsize>(bytes.size()));
        }
        try {
            trace::TraceV3Reader reader(path);
            trace::MemRef ref;
            while (reader.next(ref)) {
            }
            FAIL() << "corrupt v3 trace was accepted (needle '"
                   << (needle ? needle : "") << "')";
        } catch (const SimError &e) {
            EXPECT_EQ(e.code(), ErrorCode::TraceIO) << e.what();
            if (needle) {
                EXPECT_NE(std::string(e.what()).find(needle),
                          std::string::npos)
                    << e.what();
            }
        }
    };
    // Rewriting the seek table must keep its checksum consistent,
    // or the checksum test would shadow the one being targeted.
    auto fixTableChecksum = [&](std::string &bytes) {
        const std::uint32_t sum = util::fnv1a32(
            bytes.data() + tableStart, tailStart - tableStart);
        for (int i = 0; i < 4; ++i)
            bytes[tailStart + 8 + static_cast<std::size_t>(i)] =
                static_cast<char>((sum >> (8 * i)) & 0xff);
    };

    expectTraceIo("", nullptr);                 // empty file
    expectTraceIo(valid.substr(0, 10), "short"); // truncated header
    {
        std::string bytes = valid; // bad magic
        bytes[0] = 'X';
        expectTraceIo(bytes, "magic");
    }
    {
        std::string bytes = valid; // version from the future
        bytes[4] = 9;
        expectTraceIo(bytes, nullptr);
    }
    {
        std::string bytes = valid; // truncated mid-file: no footer
        bytes.resize(bytes.size() / 2);
        expectTraceIo(bytes, nullptr);
    }
    {
        std::string bytes = valid; // bad footer magic
        bytes[bytes.size() - 1] =
            static_cast<char>(bytes[bytes.size() - 1] + 1);
        expectTraceIo(bytes, "footer magic");
    }
    {
        std::string bytes = valid; // seek-table checksum mismatch
        bytes[tableStart + 3] =
            static_cast<char>(bytes[tableStart + 3] ^ 0x5a);
        expectTraceIo(bytes, "seek table checksum");
    }
    {
        // Header promises one extra record: the block count still
        // adds up, so the lie surfaces at the last block's frame.
        std::string bytes = valid;
        bytes[8] = static_cast<char>(bytes[8] + 1);
        expectTraceIo(bytes, "records, expected");
    }
    {
        // Corrupt payload byte inside block 0: the frame checksum
        // catches it, byte-accurately.
        std::string bytes = valid;
        const std::size_t at =
            trace::kV3HeaderBytes + trace::kV3FrameBytes + 2;
        bytes[at] = static_cast<char>(bytes[at] ^ 0x5a);
        expectTraceIo(bytes, "payload checksum mismatch");
    }
    {
        // Frame declares one payload byte too many: frame vs seek
        // table disagreement.
        std::string bytes = valid;
        bytes[trace::kV3HeaderBytes] = static_cast<char>(
            bytes[trace::kV3HeaderBytes] + 1);
        expectTraceIo(bytes, "seek table lies");
    }
    {
        // Lying seek table (checksum made consistent): swapping two
        // interior entries breaks monotonicity.  (Entry 0 has its
        // own stricter must-be-first-block check.)
        std::string bytes = valid;
        for (std::size_t i = 0; i < 8; ++i)
            std::swap(bytes[tableStart + 8 + i],
                      bytes[tableStart + 16 + i]);
        fixTableChecksum(bytes);
        expectTraceIo(bytes, "out of bounds");
    }
    {
        // Lying seek table: an entry pointing past the file.
        std::string bytes = valid;
        for (std::size_t i = 0; i < 8; ++i)
            bytes[tableStart + 8 + i] =
                static_cast<char>(i < 4 ? 0xff : 0x00);
        fixTableChecksum(bytes);
        expectTraceIo(bytes, "out of bounds");
    }
}

TEST(TraceV3Fuzz, DirectedPayloadDecodeRejections)
{
    // Payload-level corruptions that a (correct) checksum cannot
    // rule out -- bad varints, bad escapes, bad kinds, trailing
    // bytes -- exercised through the decoder directly.  Every
    // rejection is TraceIO and names the payload byte.
    const trace::v3::BlockContext ctx{nullptr, 0, 0};
    auto expectDecodeFail =
        [&](std::vector<unsigned char> payload, std::size_t records,
            const char *needle) {
            std::vector<trace::MemRef> out(records);
            try {
                trace::v3::decodeBlock(payload.data(),
                                       payload.size(), records,
                                       out.data(), ctx);
                FAIL() << "bad payload decoded (needle '" << needle
                       << "')";
            } catch (const SimError &e) {
                EXPECT_EQ(e.code(), ErrorCode::TraceIO) << e.what();
                const std::string what = e.what();
                EXPECT_NE(what.find("payload byte"),
                          std::string::npos)
                    << what;
                EXPECT_NE(what.find(needle), std::string::npos)
                    << what;
            }
        };

    expectDecodeFail({}, 1, "payload ends mid-record");
    expectDecodeFail({0x80}, 1, "payload ends inside a varint");
    expectDecodeFail({0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80,
                      0x80, 0x80, 0x7f},
                     1, "varint overflows 64 bits");
    expectDecodeFail({0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80,
                      0x80, 0x80, 0x80, 0x01},
                     1, "varint longer than 64 bits");
    expectDecodeFail({0x0f}, 1, "payload ends inside a raw record");
    expectDecodeFail({0x1f}, 1, "invalid escape token");
    expectDecodeFail({0x03}, 1, "invalid record kind");
    expectDecodeFail({0x0f, 0, 0, 0, 0, 0, 0, 0, 0, 0x03}, 1,
                     "invalid record kind");
    expectDecodeFail({0x00, 0x00}, 1,
                     "trailing bytes after the last record");
}

TEST(TraceV3Fuzz, PackedDecodeRejectsALyingPackableFlag)
{
    // decodeBlockPacked trusts the header's packable flag; a record
    // that does not fit the packed u32 layout is a TraceIO error,
    // never a silent truncation.
    const trace::v3::BlockContext ctx{nullptr, 0, 0};
    auto expectPackedFail = [&](const trace::MemRef &ref,
                                const char *needle) {
        unsigned char payload[trace::kV3MaxRecordBytes];
        const std::size_t bytes =
            trace::v3::encodeBlock(&ref, 1, payload);
        std::uint32_t word = 0;
        try {
            trace::v3::decodeBlockPacked(payload, bytes, 1, &word,
                                         ctx);
            FAIL() << "unpackable record packed (needle '" << needle
                   << "')";
        } catch (const SimError &e) {
            EXPECT_EQ(e.code(), ErrorCode::TraceIO) << e.what();
            EXPECT_NE(std::string(e.what()).find(needle),
                      std::string::npos)
                << e.what();
        }
    };

    expectPackedFail(trace::loadRef(0x1001), // unaligned -> escape
                     "does not fit the packed layout");
    expectPackedFail(trace::loadRef(Addr{1} << 33), // word >= 2^29
                     "exceeds the packed layout");
}

/**
 * Open (and fully read) @p bytes as a v3 file, requiring either
 * success or SimError(TraceIO) -- random mutation may turn a v3 file
 * into anything.
 */
void
expectStructuredV3Open(const std::string &dir,
                       const std::string &bytes)
{
    const std::string path = dir + "/mutant.v3";
    {
        std::ofstream out(path, std::ios::binary);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
    }
    try {
        trace::TraceV3Reader reader(path);
        trace::MemRef ref;
        while (reader.next(ref)) {
        }
    } catch (const SimError &e) {
        EXPECT_EQ(e.code(), ErrorCode::TraceIO) << e.what();
    }
}

class TraceV3Fuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(TraceV3Fuzz, MutatedFilesOpenOrRejectStructurally)
{
    Rng rng(GetParam() * 15485863);
    const std::string dir =
        scratchDir("v3-" + std::to_string(GetParam()));
    std::string bytes = validV3Bytes(dir);

    const unsigned mutations = 1 + rng.nextBounded(3);
    for (unsigned m = 0; m < mutations; ++m) {
        if (bytes.empty())
            break;
        switch (rng.nextBounded(5)) {
          case 0: { // flip a random byte anywhere
            const std::size_t at = rng.nextBounded(bytes.size());
            bytes[at] = static_cast<char>(rng.nextBounded(256));
            break;
          }
          case 1: // truncate
            bytes.resize(rng.nextBounded(bytes.size()));
            break;
          case 2: { // append garbage
            const unsigned extra = 1 + rng.nextBounded(16);
            for (unsigned i = 0; i < extra; ++i)
                bytes += static_cast<char>(rng.nextBounded(256));
            break;
          }
          case 3: { // corrupt a header byte specifically
            const std::size_t at =
                rng.nextBounded(trace::kV3HeaderBytes);
            if (at < bytes.size())
                bytes[at] =
                    static_cast<char>(rng.nextBounded(256));
            break;
          }
          case 4: { // corrupt the footer region specifically
            const std::size_t span =
                std::min(bytes.size(),
                         trace::kV3TailBytes + 4 * 8);
            const std::size_t at = bytes.size() - span +
                                   rng.nextBounded(span);
            bytes[at] = static_cast<char>(rng.nextBounded(256));
            break;
          }
        }
    }
    expectStructuredV3Open(dir, bytes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceV3Fuzz,
                         ::testing::Range<std::uint64_t>(1, 49));

} // namespace
} // namespace gaas::core
