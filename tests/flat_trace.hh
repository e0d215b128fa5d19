/**
 * @file
 * Test helper: flat v1/v2 trace files as raw bytes.  Nothing in the
 * library writes the flat format, so the tests of TraceFileReader
 * (the importer behind `tracepack pack`) build their fixtures here,
 * byte by byte, from the layout documented in trace/file.hh.
 */

#ifndef GAAS_TESTS_FLAT_TRACE_HH
#define GAAS_TESTS_FLAT_TRACE_HH

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "trace/file.hh"
#include "trace/v3.hh"

namespace gaas::test
{

/** The bytes of a flat trace file of @p version holding @p refs. */
inline std::string
flatTraceBytes(const std::vector<trace::MemRef> &refs,
               std::uint32_t version = trace::kTraceVersion)
{
    std::string out;
    auto put = [&out](std::uint64_t v, int bytes) {
        for (int i = 0; i < bytes; ++i)
            out += static_cast<char>(
                static_cast<unsigned char>(v >> (8 * i)));
    };
    put(trace::kTraceMagic, 4);
    put(version, 4);
    put(refs.size(), 8);
    for (const trace::MemRef &ref : refs) {
        put(ref.addr, 8);
        put(static_cast<unsigned>(ref.kind) |
                (ref.syscall ? 0x04u : 0u) |
                (ref.partialWord ? 0x08u : 0u),
            1);
    }
    return out;
}

/** Write @p bytes to @p path, replacing any file there. */
inline void
writeFileBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/** Write a flat trace file of @p version holding @p refs. */
inline void
writeFlatTrace(const std::string &path,
               const std::vector<trace::MemRef> &refs,
               std::uint32_t version = trace::kTraceVersion)
{
    writeFileBytes(path, flatTraceBytes(refs, version));
}

} // namespace gaas::test

#endif // GAAS_TESTS_FLAT_TRACE_HH
