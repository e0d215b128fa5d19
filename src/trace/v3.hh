/**
 * @file
 * Trace file format v3: block-compressed address traces, the one
 * format the simulator and its tools read.
 *
 * The flat v1/v2 format (trace/file.hh, read only by `tracepack
 * pack`) spends 9 bytes per record; at the paper's
 * 2.5-billion-reference regime that is ~21 GiB per workload and the
 * whole file must be decoded serially.  v3 delta-encodes word
 * addresses inside fixed-population blocks that are independently
 * decodable, checksummed and seekable:
 *
 *   header (32 bytes, little endian):
 *     magic "GTRC" u32, version u32 = 3, record count u64,
 *     records per block u32, flags u32 (bit 0: every record fits
 *     the packed u32 layout of trace/packed.hh), content digest u64
 *   blocks (count / blockRefs, last one short):
 *     frame: payload bytes u32, record count u32,
 *            FNV-1a-32 of the payload u32
 *     payload: one varint token per record (see below)
 *   footer:
 *     seek table: one u64 file offset per block (of its frame)
 *     tail (16 bytes): block count u64,
 *           FNV-1a-32 of the seek table u32, magic "GSK3" u32
 *
 * Token encoding: addresses are word indices (addr >> 2) and each
 * record stores the signed delta from the previous record's word
 * index, zig-zag mapped and packed together with the 4 meta bits
 * into one LEB128 varint:
 *
 *   token = zigzag(wordDelta) << 4 | meta
 *   meta  = kind (2 bits) | syscall << 2 | partialWord << 3
 *
 * meta == 0xF would need kind == 3, which no record has, so the
 * single byte 0x0F escapes to a raw record (u64 address + meta
 * byte) for unaligned addresses or deltas too large for 60 bits.
 * Sequential instruction fetches (delta +1, meta 0) cost one byte.
 * Every block restarts the delta chain at word 0, so blocks decode
 * independently -- which is what lets the streaming block store
 * (trace/stream.hh) decode several ahead in parallel and lets
 * skip() land on any block in O(1) via the seek table.
 *
 * The content digest folds each block's (record count, payload
 * checksum) pair into a 64-bit FNV-1a, so two files with the same
 * digest, record count and block size carry byte-identical payloads
 * without anyone reading them end to end; the resume journal keys
 * trace-file sweep points on it.
 *
 * Every v3 entry point opens the file through V3File, so all of
 * them validate the same structure.  Every malformed-file rejection
 * is a SimError with ErrorCode::TraceIO and a byte-accurate offset;
 * a v1/v2 file is rejected with a message naming `tracepack pack`.
 */

#ifndef GAAS_TRACE_V3_HH
#define GAAS_TRACE_V3_HH

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "trace/source.hh"
#include "util/hash.hh"

namespace gaas::trace
{

/** Magic bytes at the start of every trace file, any version. */
inline constexpr std::uint32_t kTraceMagic = 0x43525447; // "GTRC"

/** v3 format version number. */
inline constexpr std::uint32_t kV3Version = 3;

/** Magic at the very end of the file, after the seek table. */
inline constexpr std::uint32_t kV3FooterMagic = 0x334b5347; // "GSK3"

/** Fixed-size header at the start of the file. */
inline constexpr std::size_t kV3HeaderBytes = 32;

/** Per-block frame: payload bytes u32, records u32, checksum u32. */
inline constexpr std::size_t kV3FrameBytes = 12;

/** Fixed-size tail after the seek table. */
inline constexpr std::size_t kV3TailBytes = 16;

/** Records per block written by default (64 Ki). */
inline constexpr std::uint32_t kV3DefaultBlockRefs = 1u << 16;

/** Largest records-per-block a writer accepts (4 Mi). */
inline constexpr std::uint32_t kV3MaxBlockRefs = 1u << 22;

/**
 * Worst-case encoded bytes per record: a 10-byte varint for the
 * delta path, or the 10-byte escape (token + u64 + meta).  Sizing
 * payload buffers at records * this bound makes encode overflow
 * impossible and caps a decoder's read size.
 */
inline constexpr std::size_t kV3MaxRecordBytes = 10;

/** Header flag bit 0: every record passes packed::packable(). */
inline constexpr std::uint32_t kV3FlagPackable = 1u;

/** Metadata of a validated v3 file (no payload is read). */
struct V3FileInfo
{
    std::uint64_t records = 0;
    std::uint32_t blockRefs = 0;
    std::uint32_t flags = 0;
    std::uint64_t digest = 0;

    bool packable() const { return (flags & kV3FlagPackable) != 0; }
};

/**
 * Open @p path as a V3File -- the header, footer and seek-table
 * validation every v3 reader runs -- and return its metadata.
 * Throws SimError(TraceIO) on any defect V3File rejects.
 */
V3FileInfo v3FileInfo(const std::string &path);

namespace v3
{

/**
 * The meta bits of @p ref: kind | syscall << 2 | partialWord << 3.
 * They are a v3 token's low nibble, the byte after a raw escape's
 * address and the v1/v2 record's meta byte.
 */
inline unsigned
metaOf(const MemRef &ref)
{
    unsigned meta = static_cast<unsigned>(ref.kind);
    if (ref.syscall)
        meta |= 0x04;
    if (ref.partialWord)
        meta |= 0x08;
    return meta;
}

/**
 * Inverse of metaOf: set @p ref's kind, syscall and partialWord from
 * @p meta.  The caller has checked that the kind bits (meta & 0x03)
 * name a RefKind, that is, are at most 2.
 */
inline void
setMeta(MemRef &ref, unsigned meta)
{
    ref.kind = static_cast<RefKind>(meta & 0x03);
    ref.syscall = (meta & 0x04) != 0;
    ref.partialWord = (meta & 0x08) != 0;
}

/** Error context for byte-accurate decode diagnostics. */
struct BlockContext
{
    /** File path (for messages); may be null for in-memory blocks. */
    const std::string *path = nullptr;

    /** Block index within the file. */
    std::uint64_t block = 0;

    /** Absolute file offset of the payload's first byte. */
    std::uint64_t payloadOffset = 0;
};

/**
 * The v3 token encoder.  Encodes @p n records into @p out (room for
 * n * kV3MaxRecordBytes), continuing the delta chain from
 * @p prev_word -- the word index of the record before them, 0 at a
 * block's start -- and leaves it at the last record's.  A block fed
 * in any number of batches gets the bytes of one call over the
 * whole.  @return payload bytes written.
 */
std::size_t encodeRecords(const MemRef *refs, std::size_t n,
                          std::uint64_t &prev_word,
                          unsigned char *out);

/** encodeRecords over a whole block: the chain starts at word 0. */
inline std::size_t
encodeBlock(const MemRef *refs, std::size_t n, unsigned char *out)
{
    std::uint64_t prevWord = 0;
    return encodeRecords(refs, n, prevWord, out);
}

/**
 * Decode exactly @p records records from a @p bytes -byte payload
 * into @p out.  Throws SimError(TraceIO) -- naming the record, block
 * and absolute byte offset from @p ctx -- on truncated or overlong
 * varints, invalid escapes, bad record kinds, or trailing payload
 * bytes.
 */
void decodeBlock(const unsigned char *payload, std::size_t bytes,
                 std::size_t records, MemRef *out,
                 const BlockContext &ctx);

/**
 * decodeBlock straight into packed u32 words (trace/packed.hh),
 * skipping the 16-byte MemRef round trip -- the streaming hot path.
 * Only valid for blocks of a file whose kV3FlagPackable flag is set;
 * a record that does not fit the packed layout is a TraceIO error
 * (the flag lied), never a silent truncation.
 */
void decodeBlockPacked(const unsigned char *payload,
                       std::size_t bytes, std::size_t records,
                       std::uint32_t *out, const BlockContext &ctx);

} // namespace v3

/**
 * Streaming v3 writer.  Records are encoded as they arrive, in the
 * batches write() and writeAll() feed: the pending block's delta
 * chain, payload checksum and the file's packable flag carry from
 * batch to batch, and a full block is framed and written at once.
 * close() finalises header + seek table.
 *
 * Memory: one block's payload, allocated for the worst case but
 * never cleared, so only the bytes actually encoded become resident
 * (a synth block of 64 Ki records takes ~170 KiB of the 640 KiB
 * bound), plus writeAll's source batch on the stack.
 */
class TraceV3Writer
{
  public:
    explicit TraceV3Writer(const std::string &path,
                           std::uint32_t block_refs =
                               kV3DefaultBlockRefs);

    TraceV3Writer(const TraceV3Writer &) = delete;
    TraceV3Writer &operator=(const TraceV3Writer &) = delete;

    ~TraceV3Writer();

    /** Append one record. */
    void write(const MemRef &ref);

    /** Drain @p src into the file; @return records written. */
    std::uint64_t writeAll(TraceSource &src);

    /** Flush, write footer, patch header; implied by destructor. */
    void close();

  private:
    /** Encode @p n records, no more than the pending block has room
     *  for, and flush the block if they fill it. */
    void append(const MemRef *refs, std::size_t n);

    void flushBlock();

    std::string path;
    std::FILE *file = nullptr;
    std::uint32_t blockRefs;
    std::unique_ptr<unsigned char[]> payload; // pending block's bytes
    std::size_t payloadBytes = 0;
    std::uint32_t blockFill = 0;          // pending block's records
    std::uint64_t prevWord = 0;           // its delta chain
    std::uint32_t blockSum = util::kFnv1a32Basis; // its checksum
    std::vector<std::uint64_t> offsets;   // seek table
    util::Fnv1a digest;                   // content digest
    std::uint64_t count = 0;
    std::uint64_t writeOffset = kV3HeaderBytes;
    bool packableAll = true;
};

/**
 * An open, fully validated v3 file with random block access: the
 * shared substrate of the sequential reader (TraceV3Reader) and the
 * streaming block store (BlockStore, trace/stream.hh).  Open-time
 * validation covers header (magic, then version: v1/v2 are rejected
 * naming `tracepack pack`), tail, seek-table checksum, offset
 * monotonicity/bounds and block-count/record-count consistency;
 * per-block validation (frame/table agreement, payload checksum)
 * happens in readBlock.
 *
 * Once constructed the object is immutable, and readBlock reads at
 * absolute offsets (util::readAt), so any number of threads may read
 * blocks of one V3File at once.
 */
class V3File
{
  public:
    explicit V3File(const std::string &path);

    V3File(const V3File &) = delete;
    V3File &operator=(const V3File &) = delete;

    ~V3File();

    const std::string &path() const { return path_; }
    std::uint64_t recordCount() const { return records_; }
    std::uint32_t blockRefs() const { return blockRefs_; }
    std::uint64_t blockCount() const { return offsets.size(); }
    std::uint32_t flags() const { return flags_; }
    std::uint64_t digest() const { return digest_; }

    bool
    packable() const
    {
        return (flags_ & kV3FlagPackable) != 0;
    }

    /** Largest payload in the file (from seek-table adjacency). */
    std::size_t maxPayloadBytes() const { return maxPayload_; }

    /** Global index of block @p b's first record. */
    std::uint64_t
    firstRecordOf(std::uint64_t b) const
    {
        return b * blockRefs_;
    }

    /** Record population of block @p b (blockRefs, last one short). */
    std::uint32_t blockRecords(std::uint64_t b) const;

    /** Absolute file offset of block @p b's payload. */
    std::uint64_t
    payloadOffset(std::uint64_t b) const
    {
        return offsets[b] + kV3FrameBytes;
    }

    /**
     * Read block @p b's payload into @p payload (resized), after
     * validating its frame against the seek table and its checksum
     * against the bytes.  Throws SimError(TraceIO) on any mismatch.
     */
    void readBlock(std::uint64_t b,
                   std::vector<unsigned char> &payload) const;

  private:
    void openAndValidate();

    std::string path_;
    std::FILE *file = nullptr;
    std::uint64_t records_ = 0;
    std::uint32_t blockRefs_ = kV3DefaultBlockRefs;
    std::uint32_t flags_ = 0;
    std::uint64_t digest_ = 0;
    std::vector<std::uint64_t> offsets; // seek table
    std::uint64_t tableStart = 0;
    std::size_t maxPayload_ = 0;
};

/**
 * Sequential TraceSource over a v3 file: decodes one block at a
 * time into an in-memory buffer (so peak memory is one block, not
 * the trace), with O(1) skip()/reset() via the seek table.  Block
 * loading is lazy -- skip() only moves the cursor, and the block it
 * lands in is decoded on the next read.
 */
class TraceV3Reader : public TraceSource
{
  public:
    explicit TraceV3Reader(const std::string &path);

    bool next(MemRef &ref) override;
    std::size_t nextBatch(MemRef *out, std::size_t n) override;
    std::size_t skip(std::size_t n) override;
    void reset() override;
    std::string name() const override;

    std::uint64_t recordCount() const { return src.recordCount(); }
    const V3File &file() const { return src; }

  private:
    void loadBlock(std::uint64_t b);

    V3File src;
    std::vector<unsigned char> payload;
    std::vector<MemRef> refs; // decoded current block
    std::uint64_t curBlock = ~std::uint64_t{0};
    std::uint64_t pos = 0; // global record cursor
};

} // namespace gaas::trace

#endif // GAAS_TRACE_V3_HH
