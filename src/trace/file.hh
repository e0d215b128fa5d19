/**
 * @file
 * Reader for the flat v1/v2 trace format, the on-disk analogue of a
 * pixie address trace.  Its one caller outside tests is `tracepack
 * pack`, which imports v1/v2 files into v3 (trace/v3.hh), the only
 * format the simulator and the other tools read.
 *
 * Format (little endian):
 *   header: magic "GTRC" (4 bytes), version u32, record count u64
 *   records: addr u64, meta u8
 *     meta bits [1:0] = RefKind, bit 2 = syscall, bit 3 = partialWord
 *
 * Version 2 has the same layout as version 1 but guarantees the file
 * holds exactly `header + count * record` bytes; the reader enforces
 * that at open time for both versions (the v1 writer also wrote
 * exact sizes, so any mismatch is truncation or trailing garbage)
 * and reports the discrepancy byte-accurately.  All file positioning
 * is 64-bit (util/file_io.hh), so traces past 2 GiB work on LP32
 * hosts too.
 */

#ifndef GAAS_TRACE_FILE_HH
#define GAAS_TRACE_FILE_HH

#include <cstdio>
#include <string>
#include <vector>

#include "trace/source.hh"

namespace gaas::trace
{

/** Newest flat-format version TraceFileReader accepts. */
inline constexpr std::uint32_t kTraceVersion = 2;

/** Oldest version TraceFileReader still accepts. */
inline constexpr std::uint32_t kTraceMinVersion = 1;

/** Bytes per on-disk record (u64 addr + u8 meta). */
inline constexpr std::size_t kTraceRecordBytes = 9;

/** Streaming reader implementing TraceSource (resettable). */
class TraceFileReader : public TraceSource
{
  public:
    /** Open @p path; throws FatalError if missing or malformed. */
    explicit TraceFileReader(const std::string &path);

    TraceFileReader(const TraceFileReader &) = delete;
    TraceFileReader &operator=(const TraceFileReader &) = delete;

    ~TraceFileReader() override;

    bool next(MemRef &ref) override;
    void reset() override;
    std::string name() const override;

    /** Total records the header promises. */
    std::uint64_t recordCount() const { return total; }

    /** Format version of the file being read (1 or 2). */
    std::uint32_t formatVersion() const { return version; }

  private:
    void readHeader();
    void validateSize();
    bool fillBuffer();

    std::string path;
    std::FILE *file = nullptr;
    std::vector<unsigned char> buffer;
    std::size_t bufPos = 0;
    std::size_t bufLen = 0;
    std::uint64_t total = 0;
    std::uint64_t consumed = 0;
    std::uint32_t version = kTraceVersion;
};

} // namespace gaas::trace

#endif // GAAS_TRACE_FILE_HH
