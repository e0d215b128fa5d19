/**
 * @file
 * Example: the trace substrate as a standalone tool -- generate
 * pixie-style v3 traces from the synthetic suite and inspect them.
 *
 * Usage:
 *   trace_tools gen <benchmark> <file> [instructions]
 *   trace_tools info <file>
 *   trace_tools sim <file> [instructions]
 *
 * Demonstrates: SyntheticBenchmark -> TraceV3Writer,
 * TraceV3Reader -> MixSource, and driving the simulator from a
 * trace file instead of the built-in generator (the route you would
 * take with real externally captured traces, once `tracepack pack`
 * has converted them to v3).  `sim` replays the file once, without
 * looping, so it stops at the end of the trace when no instruction
 * budget is given.
 */

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>

#include "core/config.hh"
#include "core/simulator.hh"
#include "synth/suite.hh"
#include "trace/compose.hh"
#include "trace/v3.hh"
#include "util/logging.hh"

namespace
{

using namespace gaas;

int
generate(const std::string &name, const std::string &path,
         Count instructions)
{
    for (const auto &spec : synth::defaultSuite()) {
        if (spec.name != name)
            continue;
        auto scaled = spec;
        if (instructions)
            scaled.simInstructions = instructions;
        trace::TraceV3Writer writer(path);
        auto bench = synth::makeBenchmark(scaled);
        const auto n = writer.writeAll(*bench);
        writer.close();
        std::cout << "wrote " << n << " records ("
                  << std::filesystem::file_size(path) / 1024
                  << " KiB) for " << name << " to " << path << '\n';
        return 0;
    }
    std::cerr << "unknown benchmark '" << name << "'; choose from:";
    for (const auto &spec : synth::defaultSuite())
        std::cerr << ' ' << spec.name;
    std::cerr << '\n';
    return 1;
}

int
info(const std::string &path)
{
    trace::MixSource mix(
        std::make_unique<trace::TraceV3Reader>(path));
    trace::MemRef ref;
    while (mix.next(ref)) {
    }
    const auto &m = mix.mix();
    std::cout << path << ":\n"
              << "  instructions: " << m.instructions << '\n'
              << "  loads:        " << m.loads << " ("
              << 100.0 * m.loadFraction() << "% of inst)\n"
              << "  stores:       " << m.stores << " ("
              << 100.0 * m.storeFraction() << "% of inst)\n"
              << "  syscalls:     " << m.syscalls << '\n'
              << "  partial-word stores: " << m.partialWordStores
              << '\n';
    return 0;
}

int
simulate(const std::string &path, Count instructions)
{
    core::Workload wl;
    wl.add(std::make_unique<trace::TraceV3Reader>(path), 1.238,
           path);
    core::Simulator sim(core::baseline(), std::move(wl));
    const auto res = sim.run(instructions ? instructions
                                          : ~Count{0} >> 1);
    std::cout << res.formatBreakdown();
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 3) {
        std::cerr << "usage: trace_tools gen <benchmark> <file> "
                     "[instructions] | info <file> | sim <file> "
                     "[instructions]\n";
        return 1;
    }
    const std::string mode = argv[1];
    try {
        if (mode == "gen" && argc >= 4) {
            return generate(argv[2], argv[3],
                            argc > 4 ? std::strtoull(argv[4], nullptr,
                                                     10)
                                     : 0);
        }
        if (mode == "info")
            return info(argv[2]);
        if (mode == "sim") {
            return simulate(argv[2],
                            argc > 3 ? std::strtoull(argv[3], nullptr,
                                                     10)
                                     : 0);
        }
    } catch (const gaas::FatalError &err) {
        std::cerr << err.what() << '\n';
        return 1;
    }
    std::cerr << "bad arguments\n";
    return 1;
}
