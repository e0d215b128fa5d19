#include "file.hh"

#include "trace/v3.hh"
#include "util/bitops.hh"
#include "util/error.hh"
#include "util/fault.hh"
#include "util/file_io.hh"

namespace gaas::trace
{

namespace
{

constexpr std::size_t kHeaderBytes = 4 + 4 + 8;
constexpr std::size_t kBufferRecords = 64 * 1024;

MemRef
unpackRecord(const unsigned char *bytes)
{
    MemRef ref;
    ref.addr = loadLE<std::uint64_t>(bytes);
    const unsigned meta = bytes[8];
    const unsigned kind = meta & 0x03;
    if (kind > 2)
        gaas_error(ErrorCode::TraceIO, "trace record has invalid kind ", kind);
    v3::setMeta(ref, meta);
    return ref;
}

} // namespace

TraceFileReader::TraceFileReader(const std::string &path_)
    : path(path_)
{
    if (fault::shouldFail("trace-open")) {
        gaas_error(ErrorCode::TraceIO,
                   "injected fault: trace-open (reading ", path,
                   ")");
    }
    file = std::fopen(path.c_str(), "rb");
    if (!file)
        gaas_error(ErrorCode::TraceIO, "cannot open trace file: ", path);
    try {
        readHeader();
        validateSize();
    } catch (...) {
        std::fclose(file);
        file = nullptr;
        throw;
    }
    buffer.resize(kBufferRecords * kTraceRecordBytes);
}

TraceFileReader::~TraceFileReader()
{
    if (file)
        std::fclose(file);
}

void
TraceFileReader::readHeader()
{
    unsigned char header[kHeaderBytes];
    if (std::fread(header, 1, kHeaderBytes, file) != kHeaderBytes)
        gaas_error(ErrorCode::TraceIO, "trace file too short: ", path);
    if (loadLE<std::uint32_t>(header) != kTraceMagic)
        gaas_error(ErrorCode::TraceIO, "bad magic in trace file: ", path);
    version = loadLE<std::uint32_t>(header + 4);
    if (version < kTraceMinVersion || version > kTraceVersion) {
        // Version 3 is the block-compressed format (trace/v3.hh)
        // every other reader takes as it is.
        if (version == kV3Version) {
            gaas_error(ErrorCode::TraceIO, "trace file ", path,
                       " is already format v3; it needs no import");
        }
        gaas_error(ErrorCode::TraceIO, "unsupported trace version ",
                   version, " in ", path,
                   " (this build reads versions ", kTraceMinVersion,
                   "..", kTraceVersion, ")");
    }
    total = loadLE<std::uint64_t>(header + 8);
}

void
TraceFileReader::validateSize()
{
    // Catch truncation and trailing garbage here, at open, instead
    // of letting a long simulation die mid-run (or silently ignore
    // bytes past the promised record count).  Both the v1 and v2
    // writers emit exactly header + count * record bytes, so any
    // mismatch is corruption whatever the version says.
    const std::int64_t actual = util::fileSizeBytes(file);
    if (actual < 0)
        gaas_error(ErrorCode::TraceIO,
                   "cannot determine size of trace file: ", path);
    const std::uint64_t expected =
        kHeaderBytes + total * kTraceRecordBytes;
    const auto bytes = static_cast<std::uint64_t>(actual);
    if (bytes < expected) {
        const std::uint64_t body = bytes - kHeaderBytes;
        gaas_error(ErrorCode::TraceIO, "trace file truncated: ",
                   path, " header promises ",
                   total, " records (", expected, " bytes) but the "
                   "file is ", bytes, " bytes -- it ends ",
                   expected - bytes, " bytes short, inside record ",
                   body / kTraceRecordBytes, " at byte offset ",
                   bytes);
    }
    if (bytes > expected) {
        gaas_error(ErrorCode::TraceIO,
                   "trace file has trailing garbage: ", path,
                   " header promises ", total, " records (", expected,
                   " bytes) but the file is ", bytes, " bytes -- ",
                   bytes - expected,
                   " unexpected bytes start at byte offset ",
                   expected);
    }
}

bool
TraceFileReader::fillBuffer()
{
    bufLen = std::fread(buffer.data(), 1, buffer.size(), file);
    bufPos = 0;
    if (bufLen % kTraceRecordBytes != 0)
        gaas_error(ErrorCode::TraceIO,
                   "truncated record in trace file: ", path);
    return bufLen > 0;
}

bool
TraceFileReader::next(MemRef &ref)
{
    if (consumed >= total)
        return false;
    if (bufPos >= bufLen && !fillBuffer()) {
        gaas_error(ErrorCode::TraceIO, "trace file ", path,
                   " ended after ", consumed,
                   " of ", total, " records");
    }
    ref = unpackRecord(buffer.data() + bufPos);
    bufPos += kTraceRecordBytes;
    ++consumed;
    return true;
}

void
TraceFileReader::reset()
{
    if (!util::seekTo(file, kHeaderBytes))
        gaas_error(ErrorCode::TraceIO, "cannot rewind trace file: ", path);
    bufPos = bufLen = 0;
    consumed = 0;
}

std::string
TraceFileReader::name() const
{
    return path;
}

} // namespace gaas::trace
