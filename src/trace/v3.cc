#include "v3.hh"

#include <algorithm>
#include <cstring>
#include <iterator>

#include "trace/packed.hh"
#include "util/bitops.hh"
#include "util/error.hh"
#include "util/fault.hh"
#include "util/file_io.hh"
#include "util/logging.hh"

namespace gaas::trace
{

namespace
{

/** Zig-zag map a signed delta into the non-negative varint domain. */
inline std::uint64_t
zigzag(std::int64_t d)
{
    return (static_cast<std::uint64_t>(d) << 1) ^
           static_cast<std::uint64_t>(d >> 63);
}

inline std::int64_t
unzigzag(std::uint64_t u)
{
    return static_cast<std::int64_t>((u >> 1) ^
                                     (~(u & 1) + 1));
}

/** Append @p v as LEB128; @return bytes written. */
inline std::size_t
putVarint(unsigned char *dst, std::uint64_t v)
{
    std::size_t n = 0;
    while (v >= 0x80) {
        dst[n++] = static_cast<unsigned char>(v) | 0x80;
        v >>= 7;
    }
    dst[n++] = static_cast<unsigned char>(v);
    return n;
}

[[noreturn]] void
decodeFail(const v3::BlockContext &ctx, std::size_t record,
           std::size_t payload_pos, const char *what)
{
    gaas_error(ErrorCode::TraceIO, "trace block ", ctx.block,
               (ctx.path ? " of " : ""),
               (ctx.path ? ctx.path->c_str() : ""), " is corrupt: ",
               what, " decoding record ", record,
               " at payload byte ", payload_pos,
               " (file byte offset ",
               ctx.payloadOffset + payload_pos, ")");
}

/**
 * Decode one varint at @p p; advances @p p, fails byte-accurately
 * past @p end or beyond 64 bits.
 */
inline std::uint64_t
getVarint(const unsigned char *&p, const unsigned char *end,
          const unsigned char *base, std::size_t record,
          const v3::BlockContext &ctx)
{
    if (p >= end)
        decodeFail(ctx, record,
                   static_cast<std::size_t>(p - base),
                   "payload ends mid-record");
    std::uint64_t v = *p++;
    if (v < 0x80)
        return v;
    v &= 0x7f;
    unsigned shift = 7;
    unsigned char b;
    do {
        if (p >= end)
            decodeFail(ctx, record,
                       static_cast<std::size_t>(p - base),
                       "payload ends inside a varint");
        if (shift > 63)
            decodeFail(ctx, record,
                       static_cast<std::size_t>(p - base),
                       "varint longer than 64 bits");
        b = *p++;
        if (shift == 63 && (b & 0x7e))
            decodeFail(ctx, record,
                       static_cast<std::size_t>(p - base) - 1,
                       "varint overflows 64 bits");
        v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
        shift += 7;
    } while (b & 0x80);
    return v;
}

} // namespace

namespace v3
{

std::size_t
encodeRecords(const MemRef *refs, std::size_t n,
              std::uint64_t &prev_word, unsigned char *out)
{
    unsigned char *p = out;
    std::uint64_t prevWord = prev_word;
    for (std::size_t i = 0; i < n; ++i) {
        const MemRef &ref = refs[i];
        const std::uint64_t word = ref.addr >> 2;
        const std::uint64_t zz = zigzag(
            static_cast<std::int64_t>(word - prevWord));
        if ((ref.addr & 3) != 0 || (zz >> 60) != 0) {
            // Raw escape: unaligned address, or a delta too wide to
            // share a 64-bit varint with the meta nibble.
            *p++ = 0x0f;
            storeLE<std::uint64_t>(p, ref.addr);
            p += 8;
            *p++ = static_cast<unsigned char>(metaOf(ref));
        } else {
            p += putVarint(p, zz << 4 | metaOf(ref));
        }
        prevWord = word;
    }
    prev_word = prevWord;
    return static_cast<std::size_t>(p - out);
}

void
decodeBlock(const unsigned char *payload, std::size_t bytes,
            std::size_t records, MemRef *out,
            const BlockContext &ctx)
{
    const unsigned char *p = payload;
    const unsigned char *const end = payload + bytes;
    std::uint64_t word = 0;
    for (std::size_t i = 0; i < records; ++i) {
        const std::uint64_t v =
            getVarint(p, end, payload, i, ctx);
        const unsigned meta = static_cast<unsigned>(v) & 0xf;
        MemRef &ref = out[i];
        if (meta == 0xf) {
            if (v != 0xf)
                decodeFail(ctx, i,
                           static_cast<std::size_t>(p - payload),
                           "invalid escape token");
            if (end - p < 9)
                decodeFail(ctx, i,
                           static_cast<std::size_t>(p - payload),
                           "payload ends inside a raw record");
            const unsigned raw = p[8];
            if ((raw & 0x03) > 2)
                decodeFail(ctx, i,
                           static_cast<std::size_t>(p - payload) + 8,
                           "invalid record kind");
            ref.addr = loadLE<std::uint64_t>(p);
            setMeta(ref, raw);
            word = ref.addr >> 2;
            p += 9;
        } else {
            if ((meta & 0x03) > 2)
                decodeFail(ctx, i,
                           static_cast<std::size_t>(p - payload),
                           "invalid record kind");
            word += static_cast<std::uint64_t>(unzigzag(v >> 4));
            ref.addr = word << 2;
            setMeta(ref, meta);
        }
    }
    if (p != end)
        decodeFail(ctx, records,
                   static_cast<std::size_t>(p - payload),
                   "trailing bytes after the last record");
}

void
decodeBlockPacked(const unsigned char *payload, std::size_t bytes,
                  std::size_t records, std::uint32_t *out,
                  const BlockContext &ctx)
{
    const unsigned char *p = payload;
    const unsigned char *const end = payload + bytes;
    std::uint64_t word = 0;
    for (std::size_t i = 0; i < records; ++i) {
        const std::uint64_t v =
            getVarint(p, end, payload, i, ctx);
        const unsigned meta = static_cast<unsigned>(v) & 0xf;
        // A packable record is aligned (never escaped), has kind
        // 0..2, and only carries syscall on Inst / partialWord on
        // Store -- which leaves exactly these meta nibbles.
        constexpr std::uint16_t kPackableMeta =
            1u << 0x0 | 1u << 0x1 | 1u << 0x2 | // plain records
            1u << 0x4 |                         // Inst + syscall
            1u << 0xa;                          // Store + partial
        if (!((kPackableMeta >> meta) & 1u))
            decodeFail(ctx, i,
                       static_cast<std::size_t>(p - payload),
                       "record does not fit the packed layout "
                       "though the file's packable flag is set");
        word += static_cast<std::uint64_t>(unzigzag(v >> 4));
        if (word >> 29)
            decodeFail(ctx, i,
                       static_cast<std::size_t>(p - payload),
                       "address exceeds the packed layout though "
                       "the file's packable flag is set");
        out[i] = static_cast<std::uint32_t>(word) << 3 |
                 (meta & 0x03) << 1 |
                 static_cast<std::uint32_t>((meta & 0x0c) != 0);
    }
    if (p != end)
        decodeFail(ctx, records,
                   static_cast<std::size_t>(p - payload),
                   "trailing bytes after the last record");
}

} // namespace v3

V3FileInfo
v3FileInfo(const std::string &path)
{
    const V3File file(path);
    V3FileInfo info;
    info.records = file.recordCount();
    info.blockRefs = file.blockRefs();
    info.flags = file.flags();
    info.digest = file.digest();
    return info;
}

TraceV3Writer::TraceV3Writer(const std::string &path_,
                             std::uint32_t block_refs)
    : path(path_), blockRefs(block_refs)
{
    if (blockRefs == 0 || blockRefs > kV3MaxBlockRefs)
        gaas_error(ErrorCode::Config, "v3 block size ", blockRefs,
                   " out of range 1..", kV3MaxBlockRefs);
    if (fault::shouldFail("trace-open")) {
        gaas_error(ErrorCode::TraceIO,
                   "injected fault: trace-open (writing ", path,
                   ")");
    }
    file = std::fopen(path.c_str(), "wb");
    if (!file)
        gaas_error(ErrorCode::TraceIO,
                   "cannot open trace file for writing: ", path);
    // Not cleared: a page of the worst-case bound becomes resident
    // only once encoded bytes reach it.
    payload = std::make_unique_for_overwrite<unsigned char[]>(
        static_cast<std::size_t>(blockRefs) * kV3MaxRecordBytes);
    // Placeholder header; count, flags and digest are patched on
    // close().
    unsigned char header[kV3HeaderBytes] = {};
    storeLE<std::uint32_t>(header, kTraceMagic);
    storeLE<std::uint32_t>(header + 4, kV3Version);
    storeLE<std::uint32_t>(header + 16, blockRefs);
    if (!util::writeBytes(file, header, kV3HeaderBytes))
        gaas_error(ErrorCode::TraceIO,
                   "short write on trace header: ", path);
}

TraceV3Writer::~TraceV3Writer()
{
    try {
        close();
    } catch (const FatalError &err) {
        warn("trace v3 writer close failed: ", err.what());
    }
}

void
TraceV3Writer::append(const MemRef *refs, std::size_t n)
{
    if (!file)
        gaas_panic("write on closed TraceV3Writer");
    unsigned char *const out = payload.get() + payloadBytes;
    const std::size_t bytes =
        v3::encodeRecords(refs, n, prevWord, out);
    blockSum = util::fnv1a32(out, bytes, blockSum);
    for (std::size_t i = 0; i < n && packableAll; ++i)
        packableAll = packed::packable(refs[i]);
    payloadBytes += bytes;
    blockFill += static_cast<std::uint32_t>(n);
    count += n;
    if (blockFill == blockRefs)
        flushBlock();
}

void
TraceV3Writer::write(const MemRef &ref)
{
    append(&ref, 1);
}

std::uint64_t
TraceV3Writer::writeAll(TraceSource &src)
{
    // Source batches small enough to stay in L1 while they are
    // encoded, large enough to amortize the virtual call.
    MemRef batch[1024];
    std::uint64_t n = 0;
    for (;;) {
        const std::size_t want = std::min<std::size_t>(
            std::size(batch), blockRefs - blockFill);
        const std::size_t got = src.nextBatch(batch, want);
        append(batch, got);
        n += got;
        if (got < want)
            return n;
    }
}

void
TraceV3Writer::flushBlock()
{
    if (blockFill == 0)
        return;
    unsigned char frame[kV3FrameBytes];
    storeLE<std::uint32_t>(frame, payloadBytes);
    storeLE<std::uint32_t>(frame + 4, blockFill);
    storeLE<std::uint32_t>(frame + 8, blockSum);
    if (!util::writeBytes(file, frame, kV3FrameBytes) ||
        !util::writeBytes(file, payload.get(), payloadBytes))
        gaas_error(ErrorCode::TraceIO,
                   "short write on trace file: ", path);
    offsets.push_back(writeOffset);
    writeOffset += kV3FrameBytes + payloadBytes;
    digest.feedNumber(blockFill);
    digest.feedNumber(blockSum);
    payloadBytes = 0;
    blockFill = 0;
    prevWord = 0;
    blockSum = util::kFnv1a32Basis;
}

void
TraceV3Writer::close()
{
    if (!file)
        return;
    flushBlock();
    // Seek table + tail.
    std::vector<unsigned char> table(offsets.size() * 8);
    for (std::size_t i = 0; i < offsets.size(); ++i)
        storeLE<std::uint64_t>(table.data() + i * 8, offsets[i]);
    unsigned char tail[kV3TailBytes];
    storeLE<std::uint64_t>(tail, offsets.size());
    storeLE<std::uint32_t>(tail + 8,
                           util::fnv1a32(table.data(), table.size()));
    storeLE<std::uint32_t>(tail + 12, kV3FooterMagic);
    bool ok = util::writeBytes(file, table.data(), table.size()) &&
              util::writeBytes(file, tail, kV3TailBytes);
    // Patch the finalised header.
    unsigned char header[kV3HeaderBytes];
    storeLE<std::uint32_t>(header, kTraceMagic);
    storeLE<std::uint32_t>(header + 4, kV3Version);
    storeLE<std::uint64_t>(header + 8, count);
    storeLE<std::uint32_t>(header + 16, blockRefs);
    storeLE<std::uint32_t>(header + 20,
                           packableAll ? kV3FlagPackable : 0);
    storeLE<std::uint64_t>(header + 24, digest.value());
    ok = ok && util::seekTo(file, 0) &&
         util::writeBytes(file, header, kV3HeaderBytes) &&
         util::flushAndSync(file);
    ok = std::fclose(file) == 0 && ok;
    file = nullptr;
    if (!ok)
        gaas_error(ErrorCode::TraceIO,
                   "error finalising trace file: ", path);
}

V3File::V3File(const std::string &path_) : path_(path_)
{
    if (fault::shouldFail("trace-open")) {
        gaas_error(ErrorCode::TraceIO,
                   "injected fault: trace-open (reading ", path_,
                   ")");
    }
    file = std::fopen(path_.c_str(), "rb");
    if (!file)
        gaas_error(ErrorCode::TraceIO, "cannot open trace file: ",
                   path_);
    try {
        openAndValidate();
    } catch (...) {
        std::fclose(file);
        file = nullptr;
        throw;
    }
}

V3File::~V3File()
{
    if (file)
        std::fclose(file);
}

void
V3File::openAndValidate()
{
    const std::int64_t size64 = util::fileSizeBytes(file);
    if (size64 < 0)
        gaas_error(ErrorCode::TraceIO,
                   "cannot determine size of trace file: ", path_);
    const auto size = static_cast<std::uint64_t>(size64);

    // Magic and version come first, so a short v1/v2 file is named
    // as such rather than as a short v3 file.
    unsigned char header[kV3HeaderBytes] = {};
    const std::size_t got =
        std::fread(header, 1, kV3HeaderBytes, file);
    if (got < 8)
        gaas_error(ErrorCode::TraceIO, "trace file too short: ",
                   path_);
    if (loadLE<std::uint32_t>(header) != kTraceMagic)
        gaas_error(ErrorCode::TraceIO, "bad magic in trace file: ",
                   path_);
    const auto version = loadLE<std::uint32_t>(header + 4);
    if (version != kV3Version)
        gaas_error(ErrorCode::TraceIO, "trace file ", path_,
                   " is format v", version,
                   ", not v3; convert v1/v2 traces with "
                   "`tracepack pack`");
    if (size < kV3HeaderBytes + kV3TailBytes)
        gaas_error(ErrorCode::TraceIO, "trace file too short: ",
                   path_, " (", size, " bytes; a v3 file is at "
                   "least ", kV3HeaderBytes + kV3TailBytes,
                   " bytes)");
    records_ = loadLE<std::uint64_t>(header + 8);
    blockRefs_ = loadLE<std::uint32_t>(header + 16);
    flags_ = loadLE<std::uint32_t>(header + 20);
    digest_ = loadLE<std::uint64_t>(header + 24);
    if (blockRefs_ == 0 || blockRefs_ > kV3MaxBlockRefs)
        gaas_error(ErrorCode::TraceIO, "trace file ", path_,
                   " declares ", blockRefs_,
                   " records per block (valid: 1..", kV3MaxBlockRefs,
                   ")");

    // Tail: the last 16 bytes locate and checksum the seek table.
    unsigned char tail[kV3TailBytes];
    if (!util::seekTo(file, size - kV3TailBytes) ||
        std::fread(tail, 1, kV3TailBytes, file) != kV3TailBytes)
        gaas_error(ErrorCode::TraceIO,
                   "cannot read trace footer of ", path_);
    if (loadLE<std::uint32_t>(tail + 12) != kV3FooterMagic)
        gaas_error(ErrorCode::TraceIO, "trace file ", path_,
                   " has a bad footer magic at byte offset ",
                   size - 4,
                   " -- truncated or not finalised");
    const auto blocks = loadLE<std::uint64_t>(tail);
    const std::uint64_t expectBlocks =
        (records_ + blockRefs_ - 1) / blockRefs_;
    if (blocks != expectBlocks)
        gaas_error(ErrorCode::TraceIO, "trace file ", path_,
                   " footer declares ", blocks, " blocks but ",
                   records_, " records at ", blockRefs_,
                   " per block need ", expectBlocks);
    const std::uint64_t bodyBytes =
        size - kV3HeaderBytes - kV3TailBytes;
    if (blocks > bodyBytes / 8 ||
        blocks * (kV3FrameBytes + 8) > bodyBytes)
        gaas_error(ErrorCode::TraceIO, "trace file ", path_,
                   " footer declares ", blocks,
                   " blocks, more than its ", bodyBytes,
                   " body bytes can hold");
    tableStart = size - kV3TailBytes - blocks * 8;

    // Seek table: checksummed, strictly monotonic, in bounds.
    std::vector<unsigned char> table(blocks * 8);
    if (!util::seekTo(file, tableStart) ||
        std::fread(table.data(), 1, table.size(), file) !=
            table.size())
        gaas_error(ErrorCode::TraceIO,
                   "cannot read seek table of ", path_);
    const std::uint32_t tableSum =
        util::fnv1a32(table.data(), table.size());
    if (tableSum != loadLE<std::uint32_t>(tail + 8))
        gaas_error(ErrorCode::TraceIO, "trace file ", path_,
                   " seek table checksum mismatch at byte offset ",
                   tableStart, " (stored ",
                   loadLE<std::uint32_t>(tail + 8), ", computed ",
                   tableSum, ")");
    offsets.resize(blocks);
    std::uint64_t prevEnd = kV3HeaderBytes;
    for (std::uint64_t i = 0; i < blocks; ++i) {
        const auto off = loadLE<std::uint64_t>(table.data() + i * 8);
        if (off != prevEnd && i == 0)
            gaas_error(ErrorCode::TraceIO, "trace file ", path_,
                       " seek table entry 0 is ", off,
                       ", expected ", kV3HeaderBytes,
                       " (at table byte offset ", tableStart, ")");
        if (off < prevEnd + (i == 0 ? 0 : kV3FrameBytes) ||
            off + kV3FrameBytes > tableStart)
            gaas_error(ErrorCode::TraceIO, "trace file ", path_,
                       " seek table entry ", i, " (", off,
                       ") is out of bounds at table byte offset ",
                       tableStart + i * 8);
        offsets[i] = off;
        if (i > 0) {
            const std::size_t prevPayload = static_cast<std::size_t>(
                off - offsets[i - 1] - kV3FrameBytes);
            maxPayload_ = std::max(maxPayload_, prevPayload);
        }
        prevEnd = off;
    }
    if (blocks > 0) {
        const std::uint64_t lastEnd = tableStart;
        if (lastEnd < offsets[blocks - 1] + kV3FrameBytes)
            gaas_error(ErrorCode::TraceIO, "trace file ", path_,
                       " last block overlaps the seek table");
        maxPayload_ = std::max(
            maxPayload_, static_cast<std::size_t>(
                             lastEnd - offsets[blocks - 1] -
                             kV3FrameBytes));
    } else if (tableStart != kV3HeaderBytes) {
        gaas_error(ErrorCode::TraceIO, "trace file ", path_,
                   " has ", tableStart - kV3HeaderBytes,
                   " unexpected bytes before its (empty) seek "
                   "table at byte offset ", kV3HeaderBytes);
    }
}

std::uint32_t
V3File::blockRecords(std::uint64_t b) const
{
    if (b + 1 < offsets.size())
        return blockRefs_;
    return static_cast<std::uint32_t>(
        records_ - (offsets.size() - 1) * blockRefs_);
}

void
V3File::readBlock(std::uint64_t b,
                  std::vector<unsigned char> &out) const
{
    const std::uint64_t off = offsets[b];
    const std::uint64_t next =
        b + 1 < offsets.size() ? offsets[b + 1] : tableStart;
    const auto expectBytes = static_cast<std::uint32_t>(
        next - off - kV3FrameBytes);
    unsigned char frame[kV3FrameBytes];
    if (!util::readAt(file, off, frame, kV3FrameBytes))
        gaas_error(ErrorCode::TraceIO, "cannot read block ", b,
                   " frame of ", path_, " at byte offset ", off);
    const auto payloadBytes = loadLE<std::uint32_t>(frame);
    const auto frameRecords = loadLE<std::uint32_t>(frame + 4);
    const auto storedSum = loadLE<std::uint32_t>(frame + 8);
    if (payloadBytes != expectBytes)
        gaas_error(ErrorCode::TraceIO, "trace file ", path_,
                   " block ", b, " frame at byte offset ", off,
                   " declares ", payloadBytes,
                   " payload bytes but the seek table allots ",
                   expectBytes, " -- the seek table lies");
    if (frameRecords != blockRecords(b))
        gaas_error(ErrorCode::TraceIO, "trace file ", path_,
                   " block ", b, " frame at byte offset ", off,
                   " declares ", frameRecords, " records, expected ",
                   blockRecords(b));
    out.resize(payloadBytes);
    if (!util::readAt(file, off + kV3FrameBytes, out.data(),
                      payloadBytes))
        gaas_error(ErrorCode::TraceIO, "cannot read block ", b,
                   " payload of ", path_, " at byte offset ",
                   off + kV3FrameBytes);
    const std::uint32_t computed =
        util::fnv1a32(out.data(), payloadBytes);
    if (computed != storedSum)
        gaas_error(ErrorCode::TraceIO, "trace file ", path_,
                   " block ", b, " payload checksum mismatch at "
                   "byte offset ", off + kV3FrameBytes,
                   " (stored ", storedSum, ", computed ", computed,
                   ")");
}

TraceV3Reader::TraceV3Reader(const std::string &path) : src(path) {}

void
TraceV3Reader::loadBlock(std::uint64_t b)
{
    src.readBlock(b, payload);
    const std::uint32_t records = src.blockRecords(b);
    refs.resize(records);
    const v3::BlockContext ctx{&src.path(), b,
                               src.payloadOffset(b)};
    v3::decodeBlock(payload.data(), payload.size(), records,
                    refs.data(), ctx);
    curBlock = b;
}

bool
TraceV3Reader::next(MemRef &ref)
{
    return nextBatch(&ref, 1) == 1;
}

std::size_t
TraceV3Reader::nextBatch(MemRef *out, std::size_t n)
{
    std::size_t produced = 0;
    const std::uint64_t total = src.recordCount();
    while (produced < n && pos < total) {
        const std::uint64_t b = pos / src.blockRefs();
        if (b != curBlock)
            loadBlock(b);
        const auto offset =
            static_cast<std::size_t>(pos - src.firstRecordOf(b));
        const std::size_t take = std::min(
            n - produced, refs.size() - offset);
        std::copy_n(refs.begin() +
                        static_cast<std::ptrdiff_t>(offset),
                    take, out + produced);
        pos += take;
        produced += take;
    }
    return produced;
}

std::size_t
TraceV3Reader::skip(std::size_t n)
{
    const std::uint64_t total = src.recordCount();
    const auto take = static_cast<std::size_t>(
        std::min<std::uint64_t>(n, total - pos));
    pos += take;
    return take;
}

void
TraceV3Reader::reset()
{
    pos = 0;
}

std::string
TraceV3Reader::name() const
{
    return src.path();
}

} // namespace gaas::trace
