/**
 * @file
 * gaassim: the main simulator front end.
 *
 * Runs a configuration (a preset name or a config file) over the
 * standard synthetic workload or a set of v3 trace files, and writes
 * a gem5-style flat statistics dump.  Trace files replay through
 * Workload::fromTraceFiles in streaming mode, one looped process per
 * file, under the GAAS_TRACE_STREAM_MB ceiling.  Numeric flags parse
 * strictly: a malformed value, or a zero --instructions/--mp/--slice,
 * exits 1 naming the flag before any simulation (--warmup 0 is
 * legal).  --mp sizes the synthetic workload only, so --mp with
 * --trace exits 1 as well, and so does a second --preset or
 * --config.  --slice overrides the configuration's time slice
 * wherever it stands on the line.  A --stats or --stats-json file
 * that cannot be written makes the run exit 1.
 *
 * Usage:
 *   gaassim [--preset NAME | --config FILE]
 *           [--trace FILE]... [--instructions N] [--warmup N]
 *           [--mp N] [--slice CYCLES] [--stats FILE]
 *           [--stats-json FILE]
 *
 * Presets: base, write-only, split-l2, fetch-8w, concurrent,
 *          load-bypass, optimized, exchanged.
 *
 * Examples:
 *   gaassim --preset optimized --instructions 8000000
 *   tracepack synth a.v3 --instructions 2000000
 *   gaassim --config my.cfg --trace a.v3 --trace b.v3 \
 *           --stats out/stats.txt
 */

#include <cstdlib>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "core/config.hh"
#include "core/config_io.hh"
#include "core/simulator.hh"
#include "core/stats_dump.hh"
#include "core/workload.hh"
#include "util/env.hh"
#include "util/logging.hh"

namespace
{

using namespace gaas;

core::SystemConfig
presetByName(const std::string &name)
{
    if (name == "base")
        return core::baseline();
    if (name == "write-only")
        return core::afterWritePolicy();
    if (name == "split-l2")
        return core::afterSplitL2();
    if (name == "fetch-8w")
        return core::afterFetchSize();
    if (name == "concurrent")
        return core::afterConcurrentIRefill();
    if (name == "load-bypass")
        return core::afterLoadBypass();
    if (name == "optimized")
        return core::optimized();
    if (name == "exchanged")
        return core::splitL2Exchanged();
    gaas_fatal("unknown preset '", name,
               "' (base, write-only, split-l2, fetch-8w, "
               "concurrent, load-bypass, optimized, exchanged)");
}

[[noreturn]] void
usage()
{
    std::cerr
        << "usage: gaassim [--preset NAME | --config FILE]\n"
           "               [--trace FILE]... [--instructions N]\n"
           "               [--warmup N] [--mp N] [--slice CYCLES]\n"
           "               [--stats FILE] [--stats-json FILE]\n";
    std::exit(1);
}

/** Strict numeric flag value: positive (or, with @p zero_ok, any)
 *  decimal integer no larger than @p max.  Anything else ("abc",
 *  "4x", "-1", zero, overflow) exits 1 naming the flag. */
std::uint64_t
flagValue(const std::string &flag, const std::string &text,
          bool zero_ok = false,
          std::uint64_t max = std::numeric_limits<std::uint64_t>::max())
{
    const auto v = parseU64(text);
    if (!v || (*v == 0 && !zero_ok) || *v > max) {
        std::cerr << "gaassim: bad value '" << text << "' for " << flag
                  << (zero_ok ? " (decimal integer required)\n"
                              : " (positive decimal integer required)\n");
        std::exit(1);
    }
    return *v;
}

} // namespace

int
main(int argc, char **argv)
{
    auto cfg = core::baseline();
    std::vector<std::string> traces;
    Count instructions = 4'000'000;
    std::optional<Count> warmup; // default: half the budget
    std::optional<unsigned> mp; // default: 8
    std::optional<Cycles> slice; // default: the configuration's
    std::string config_flag;     // the --preset or --config given
    std::string stats_path;
    std::string stats_json_path;

    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            auto next = [&]() -> std::string {
                if (++i >= argc)
                    usage();
                return argv[i];
            };
            if (arg == "--preset" || arg == "--config") {
                if (!config_flag.empty()) {
                    std::cerr << "gaassim: " << arg << " after "
                              << config_flag << ": give one --preset "
                                 "or one --config\n";
                    return 1;
                }
                config_flag = arg;
                const std::string value = next();
                cfg = arg == "--preset" ? presetByName(value)
                                        : core::loadConfigFile(value);
            } else if (arg == "--trace") {
                traces.push_back(next());
            } else if (arg == "--instructions") {
                instructions = flagValue(arg, next());
            } else if (arg == "--warmup") {
                warmup = flagValue(arg, next(), true);
            } else if (arg == "--mp") {
                mp = static_cast<unsigned>(flagValue(
                    arg, next(), false,
                    std::numeric_limits<unsigned>::max()));
            } else if (arg == "--slice") {
                slice = flagValue(arg, next());
            } else if (arg == "--stats") {
                stats_path = next();
            } else if (arg == "--stats-json") {
                stats_json_path = next();
            } else {
                std::cerr << "unknown option " << arg << '\n';
                usage();
            }
        }

        if (mp && !traces.empty()) {
            std::cerr << "gaassim: --mp sets the synthetic workload's "
                         "process count; with --trace each trace "
                         "file is one process\n";
            return 1;
        }
        if (slice)
            cfg.timeSliceCycles = *slice;
        core::Workload wl =
            traces.empty()
                ? core::Workload::standard(mp.value_or(8))
                : core::Workload::fromTraceFiles(traces,
                                                 /*streaming=*/true);

        std::cout << cfg.describe() << "\n\n";
        core::Simulator sim(cfg, std::move(wl));
        const auto res =
            sim.run(instructions, warmup.value_or(instructions / 2));
        std::cout << res.formatBreakdown();

        // Each dump warns on its own failure; either one fails the
        // run.
        bool written = true;
        if (!stats_json_path.empty()) {
            if (core::dumpStatsJsonFile(res, stats_json_path))
                std::cout << "[stats-json: " << stats_json_path
                          << "]\n";
            else
                written = false;
        }
        if (!stats_path.empty()) {
            if (core::dumpStatsFile(res, stats_path))
                std::cout << "[stats: " << stats_path << "]\n";
            else
                written = false;
        } else if (stats_json_path.empty()) {
            std::cout << '\n';
            core::dumpStats(res, std::cout);
        }
        return written ? 0 : 1;
    } catch (const FatalError &err) {
        std::cerr << err.what() << '\n';
        return 1;
    }
}
