#include "workload.hh"

#include <string>
#include <thread>

#include "synth/benchmark.hh"
#include "trace/arena.hh"
#include "trace/compose.hh"
#include "trace/stream.hh"
#include "trace/v3.hh"
#include "util/error.hh"
#include "util/logging.hh"

namespace gaas::core
{

namespace
{

/**
 * Estimate how many references a process with instruction @p share
 * (synth::instructionShares) of a run of @p total_instr instructions
 * consumes.  References per instruction are 1 (Inst) + loadFrac +
 * storeFrac.  30% slack covers scheduling skew and cache-stall
 * imbalance; underestimates only cost a second growth step
 * (grow-on-demand), never correctness.
 */
std::size_t
refHint(const synth::BenchmarkSpec &spec, double share,
        Count total_instr)
{
    if (total_instr == 0)
        return 0;
    const double instr =
        share * static_cast<double>(total_instr);
    const double refs =
        instr * (1.0 + spec.loadFrac + spec.storeFrac) * 1.3;
    return static_cast<std::size_t>(refs);
}

/**
 * The arena stream process @p i of the level-@p mp_level standard
 * workload replays.  The key includes the mp level and stream index
 * so a stream is exactly "process i of the level-N workload"; see
 * TraceArena::acquire for @p ref_hint.
 */
trace::ArenaStream *
standardStream(const std::vector<synth::BenchmarkSpec> &specs,
               unsigned mp_level, std::size_t i, std::size_t ref_hint)
{
    const synth::BenchmarkSpec &spec = specs[i];
    const std::string key = synth::specDigest(spec) + ":" +
                            std::to_string(mp_level) + ":" +
                            std::to_string(i);
    // One Inst plus at most one data record per instruction.
    const std::size_t bound =
        2 * static_cast<std::size_t>(spec.simInstructions);
    return trace::TraceArena::global().acquire(
        key, bound, ref_hint,
        [spec] { return synth::makeBenchmark(spec); });
}

} // namespace

Workload
Workload::fromSpecs(const std::vector<synth::BenchmarkSpec> &specs)
{
    Workload wl;
    for (const auto &spec : specs) {
        wl.add(std::make_unique<trace::LoopSource>(
                   synth::makeBenchmark(spec)),
               spec.baseCpi, spec.name);
    }
    return wl;
}

Workload
Workload::fromTraceFiles(const std::vector<std::string> &paths,
                         bool streaming, double base_cpi)
{
    if (paths.empty())
        gaas_error(ErrorCode::Config,
                   "trace-file workload names no files");

    auto shortName = [](const std::string &path) {
        const std::size_t slash = path.find_last_of("/\\");
        return slash == std::string::npos
                   ? path
                   : path.substr(slash + 1);
    };

    Workload wl;
    if (streaming) {
        // One store for the whole workload: its streams share the
        // decoded blocks and the decoders under one ceiling.
        auto store = std::make_shared<trace::BlockStore>(paths);
        for (std::size_t i = 0; i < paths.size(); ++i) {
            auto src = std::make_unique<trace::StreamSource>(store, i);
            wl.add(std::make_unique<trace::LoopSource>(
                       std::move(src)),
                   base_cpi, shortName(paths[i]));
        }
        return wl;
    }

    // Decode each file once into the shared arena and replay it
    // zero-copy, keyed by content digest + record count
    // (v3FileInfo validates the file's structure up front, so a bad
    // path fails here, not inside a lazily-invoked factory).  The
    // arena fills through the reader's nextBatchPacked, which
    // canonicalizes every record, and materializes the whole file
    // here, so a rejected record anywhere in it fails the build.
    auto &arena = trace::TraceArena::global();
    for (const std::string &path : paths) {
        const trace::V3FileInfo info = trace::v3FileInfo(path);
        const std::string key =
            "file:" + std::to_string(info.digest) + ":" +
            std::to_string(info.records);
        const auto bound =
            static_cast<std::size_t>(info.records);
        trace::ArenaStream *stream = arena.acquire(
            key, bound, bound,
            [path] {
                return std::make_unique<trace::TraceV3Reader>(path);
            });
        auto view = std::make_unique<trace::ArenaSource>(
            stream, shortName(path) + "[arena]");
        wl.add(std::make_unique<trace::LoopSource>(std::move(view)),
               base_cpi, shortName(path));
    }
    return wl;
}

Workload
Workload::standard(unsigned mp_level, Count instr_hint)
{
    // Each process replays a shared materialized stream instead of
    // running its own generator; LoopSource supplies the wrap
    // semantics of Workload::fromSpecs.
    const std::vector<synth::BenchmarkSpec> specs =
        synth::workloadSpecs(mp_level);
    const std::vector<double> shares = synth::instructionShares(specs);
    Workload wl;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const synth::BenchmarkSpec &spec = specs[i];
        auto view = std::make_unique<trace::ArenaSource>(
            standardStream(specs, mp_level, i,
                           refHint(spec, shares[i], instr_hint)),
            spec.name + "[arena]");
        wl.add(std::make_unique<trace::LoopSource>(std::move(view)),
               spec.baseCpi, spec.name);
    }
    return wl;
}

void
Workload::prewarmStandardStreams(unsigned mp_level,
                                 Count instr_hint)
{
    if (instr_hint == 0)
        return;
    const std::vector<synth::BenchmarkSpec> specs =
        synth::workloadSpecs(mp_level);
    const std::vector<double> shares = synth::instructionShares(specs);
    std::vector<std::thread> generators;
    generators.reserve(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        // The entries standard() will acquire, grown to the same hint.
        const std::size_t want =
            refHint(specs[i], shares[i], instr_hint);
        generators.emplace_back([&specs, mp_level, i, want] {
            standardStream(specs, mp_level, i, 0)->ensure(want);
        });
    }
    for (auto &t : generators)
        t.join();
}

void
Workload::add(std::unique_ptr<trace::TraceSource> source,
              double base_cpi, const std::string &name)
{
    if (!source)
        gaas_fatal("Workload::add requires a source");
    if (base_cpi < 1.0)
        gaas_fatal("base CPI must be at least 1.0, got ", base_cpi);
    if (processes.size() >= 256)
        gaas_fatal("PID space exhausted (max 256 processes)");
    Process p;
    p.pid = static_cast<Pid>(processes.size());
    p.name = name;
    p.baseCpi = base_cpi;
    p.source = std::move(source);
    processes.push_back(std::move(p));
}

} // namespace gaas::core
