/**
 * @file
 * Trace-file packer: imports flat v1/v2 traces into the
 * block-compressed v3 format (trace/v3.hh), writes v3 files straight
 * from the synthetic benchmark suite, and verifies, inspects and
 * drains v3 files.
 *
 * Usage:
 *   tracepack pack   <in> <out> [--block-refs N]
 *   tracepack synth  <out> [--bench I] [--instructions N]
 *                    [--seed S] [--block-refs N]
 *   tracepack verify <file>
 *   tracepack info   <file>
 *   tracepack drain  <file> [--stream-mb M]
 *
 * `pack` is the one reader of v1/v2 files: it converts them record
 * for record, losslessly, into v3, and exits 1 on a v3 input, saying
 * it is already v3.  Every other command, and every other tool,
 * reads only v3 and rejects a v1/v2 file with a message naming
 * `tracepack pack`.
 *
 * `synth` plays one pass of a suite benchmark (default: benchmark 0)
 * into a v3 file -- the cheap way to make multi-gigabyte test
 * inputs.  `verify` fully decodes a file, exercising every checksum.
 * `info` prints the validated header.  `drain` replays a file
 * through the bounded-memory StreamSource and reports refs/s, the
 * blocks it decoded and peak RSS (VmHWM) -- the probe the
 * RSS-ceiling shell test uses.
 */

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "synth/suite.hh"
#include "trace/file.hh"
#include "trace/stream.hh"
#include "trace/v3.hh"
#include "util/env.hh"
#include "util/error.hh"

namespace
{

using namespace gaas;

[[noreturn]] void
usage()
{
    std::cerr <<
        "usage: tracepack pack   <in> <out> [--block-refs N]\n"
        "       tracepack synth  <out> [--bench I] "
        "[--instructions N] [--seed S] [--block-refs N]\n"
        "       tracepack verify <file>\n"
        "       tracepack info   <file>\n"
        "       tracepack drain  <file> [--stream-mb M]\n";
    std::exit(2);
}

/** Strict numeric option value (tracepack pack in --block-refs 4x
 *  must die, not truncate).  Only an index (@p zero_ok) may be 0;
 *  for a count or a size, 0 would silently mean the default. */
std::uint64_t
numValue(const std::string &opt, const char *text, bool zero_ok = false)
{
    const auto v = parseU64(text);
    if (!v || (*v == 0 && !zero_ok)) {
        std::cerr << "tracepack: bad value '" << text << "' for "
                  << opt
                  << (zero_ok ? " (decimal integer required)\n"
                              : " (positive decimal integer required)\n");
        std::exit(2);
    }
    return *v;
}

/** Peak resident set size (VmHWM) in KiB, or 0 if unavailable. */
std::uint64_t
peakRssKb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
    return 0;
}

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

int
cmdPack(const std::string &in, const std::string &out,
        std::uint32_t block_refs)
{
    // The reader checks the input's header and size (and rejects a
    // v3 input) before the writer creates the output.
    trace::TraceFileReader src(in);
    trace::TraceV3Writer writer(out, block_refs);
    const std::uint64_t n = writer.writeAll(src);
    writer.close();
    const trace::V3FileInfo info = trace::v3FileInfo(out);
    std::cout << "packed " << n << " records into " << out
              << " (block " << info.blockRefs << " records, "
              << (info.packable() ? "packable" : "not packable")
              << ", digest " << info.digest << ")\n";
    return 0;
}

int
cmdSynth(const std::string &out, std::uint64_t bench,
         std::uint64_t instructions, std::uint64_t seed,
         std::uint32_t block_refs)
{
    const auto &suite = synth::defaultSuite();
    if (bench >= suite.size()) {
        std::cerr << "tracepack: --bench " << bench
                  << " out of range (suite has " << suite.size()
                  << " benchmarks)\n";
        return 2;
    }
    synth::BenchmarkSpec spec = suite[bench];
    if (instructions)
        spec.simInstructions = instructions;
    if (seed)
        spec.seed = seed;
    auto src = synth::makeBenchmark(spec);
    trace::TraceV3Writer writer(out, block_refs);
    const auto start = std::chrono::steady_clock::now();
    const std::uint64_t n = writer.writeAll(*src);
    writer.close();
    const double secs = secondsSince(start);
    std::cout << "synthesized " << n << " records ('" << spec.name
              << "', " << spec.simInstructions
              << " instructions) into " << out;
    if (secs > 0.0)
        std::cout << " at "
                  << static_cast<std::uint64_t>(
                         static_cast<double>(n) / secs)
                  << " refs/s";
    std::cout << '\n';
    return 0;
}

int
cmdVerify(const std::string &path)
{
    // A full sequential decode exercises the header, the seek table
    // and every frame + payload checksum; any corruption dies with
    // the codec's byte-accurate SimError.
    trace::TraceV3Reader src(path);
    constexpr std::size_t kBatch = 1u << 14;
    std::vector<trace::MemRef> batch(kBatch);
    std::uint64_t n = 0;
    for (;;) {
        const std::size_t got = src.nextBatch(batch.data(), kBatch);
        n += got;
        if (got < kBatch)
            break;
    }
    std::cout << "ok: " << path << " decodes cleanly (" << n
              << " records)\n";
    return 0;
}

int
cmdInfo(const std::string &path)
{
    const trace::V3FileInfo info = trace::v3FileInfo(path);
    const std::uint64_t blocks =
        (info.records + info.blockRefs - 1) / info.blockRefs;
    std::cout << path << ":\n"
              << "  format:     v3 (block-compressed)\n"
              << "  records:    " << info.records << '\n'
              << "  block size: " << info.blockRefs << " records ("
              << blocks << " blocks)\n"
              << "  packable:   "
              << (info.packable() ? "yes" : "no") << '\n'
              << "  digest:     " << info.digest << '\n';
    return 0;
}

int
cmdDrain(const std::string &path, std::uint64_t stream_mb)
{
    if (stream_mb > std::numeric_limits<std::size_t>::max() >> 20) {
        std::cerr << "tracepack: bad value '" << stream_mb
                  << "' for --stream-mb (its byte count does not fit "
                     "a size_t)\n";
        return 2;
    }
    trace::StreamOptions options;
    if (stream_mb)
        options.memoryBudgetBytes =
            static_cast<std::size_t>(stream_mb) << 20;
    trace::StreamSource src(path, options);
    constexpr std::size_t kBatch = 1u << 14;
    std::vector<std::uint32_t> words(kBatch);
    std::uint64_t n = 0;
    const auto start = std::chrono::steady_clock::now();
    for (;;) {
        const std::size_t got = src.nextBatchPacked(words.data(), kBatch);
        n += got;
        if (got < kBatch)
            break;
    }
    const double secs = secondsSince(start);
    std::cout << "drained " << n << " records (" << src.slotCount()
              << " slots, " << src.bufferBytes() << " buffer bytes)\n"
              << "refs_per_second: "
              << (secs > 0.0 ? static_cast<std::uint64_t>(
                                   static_cast<double>(n) / secs)
                             : 0)
              << '\n'
              << "blocks_decoded: " << src.blocksDecoded() << '\n'
              << "peak_rss_kb: " << peakRssKb() << '\n';
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 3)
        usage();
    const std::string cmd = argv[1];

    // Positional args first, then options.
    std::vector<std::string> pos;
    std::uint64_t blockRefs = 0;
    std::uint64_t bench = 0;
    std::uint64_t instructions = 0;
    std::uint64_t seed = 0;
    std::uint64_t streamMb = 0;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (++i >= argc) {
                std::cerr << "tracepack: missing value for " << arg
                          << '\n';
                std::exit(2);
            }
            return argv[i];
        };
        if (arg == "--block-refs")
            blockRefs = numValue(arg, next());
        else if (arg == "--bench")
            bench = numValue(arg, next(), /*zero_ok=*/true);
        else if (arg == "--instructions")
            instructions = numValue(arg, next());
        else if (arg == "--seed")
            seed = numValue(arg, next());
        else if (arg == "--stream-mb")
            streamMb = numValue(arg, next());
        else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "tracepack: unknown option " << arg << '\n';
            usage();
        } else
            pos.push_back(arg);
    }
    if (blockRefs > trace::kV3MaxBlockRefs) {
        std::cerr << "tracepack: --block-refs " << blockRefs
                  << " exceeds the format maximum "
                  << trace::kV3MaxBlockRefs << '\n';
        return 2;
    }
    const auto block = blockRefs
                           ? static_cast<std::uint32_t>(blockRefs)
                           : trace::kV3DefaultBlockRefs;

    try {
        if (cmd == "pack" && pos.size() == 2)
            return cmdPack(pos[0], pos[1], block);
        if (cmd == "synth" && pos.size() == 1)
            return cmdSynth(pos[0], bench, instructions, seed,
                            block);
        if (cmd == "verify" && pos.size() == 1)
            return cmdVerify(pos[0]);
        if (cmd == "info" && pos.size() == 1)
            return cmdInfo(pos[0]);
        if (cmd == "drain" && pos.size() == 1)
            return cmdDrain(pos[0], streamMb);
    } catch (const FatalError &err) {
        std::cerr << "tracepack: " << err.what() << '\n';
        return 1;
    }
    usage();
}
