/**
 * @file
 * Single-cache trace simulator (a Dinero-style utility).
 *
 * Runs one cache of arbitrary geometry over a v3 trace file (convert
 * v1/v2 traces with `tracepack pack`) and reports miss ratios --
 * useful for characterising captured traces independently of the
 * full two-level system.  A malformed or zero --size/--assoc/--line,
 * or an unknown --kind, exits 1 naming the flag before the trace is
 * read.
 *
 * Usage:
 *   cachesim <trace-file> [--size WORDS] [--assoc N] [--line WORDS]
 *            [--kind inst|data|unified]
 */

#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>

#include "cache/tag_store.hh"
#include "trace/v3.hh"
#include "util/env.hh"
#include "util/logging.hh"

namespace
{

using namespace gaas;

enum class Kind { Inst, Data, Unified };

/** Strict positive numeric flag value no larger than @p max;
 *  anything else exits 1 naming the flag. */
std::uint64_t
flagValue(const std::string &flag, const char *text,
          std::uint64_t max = std::numeric_limits<unsigned>::max())
{
    const auto v = parseU64(text);
    if (!v || *v == 0 || *v > max) {
        std::cerr << "cachesim: bad value '" << text << "' for " << flag
                  << " (positive decimal integer required)\n";
        std::exit(1);
    }
    return *v;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::cerr << "usage: cachesim <trace-file> [--size WORDS] "
                     "[--assoc N] [--line WORDS] "
                     "[--kind inst|data|unified]\n";
        return 1;
    }

    const std::string path = argv[1];
    cache::CacheConfig cfg{4 * 1024, 1, 4, 4};
    Kind kind = Kind::Unified;

    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (++i >= argc) {
                std::cerr << "missing value for " << arg << '\n';
                std::exit(1);
            }
            return argv[i];
        };
        if (arg == "--size") {
            cfg.sizeWords = flagValue(
                arg, next(), std::numeric_limits<std::uint64_t>::max());
        } else if (arg == "--assoc") {
            cfg.assoc = static_cast<unsigned>(flagValue(arg, next()));
        } else if (arg == "--line") {
            cfg.lineWords = cfg.fetchWords =
                static_cast<unsigned>(flagValue(arg, next()));
        } else if (arg == "--kind") {
            const std::string k = next();
            if (k == "inst") {
                kind = Kind::Inst;
            } else if (k == "data") {
                kind = Kind::Data;
            } else if (k == "unified") {
                kind = Kind::Unified;
            } else {
                std::cerr << "cachesim: bad value '" << k
                          << "' for --kind (inst, data or unified)\n";
                return 1;
            }
        } else {
            std::cerr << "unknown option " << arg << '\n';
            return 1;
        }
    }

    try {
        cache::TagStore store(cfg, "cachesim");
        trace::TraceV3Reader reader(path);

        Count accesses = 0, misses = 0;
        Count inst = 0, loads = 0, stores = 0;
        trace::MemRef ref;
        while (reader.next(ref)) {
            switch (ref.kind) {
              case trace::RefKind::Inst:
                ++inst;
                if (kind == Kind::Data)
                    continue;
                break;
              case trace::RefKind::Load:
                ++loads;
                if (kind == Kind::Inst)
                    continue;
                break;
              case trace::RefKind::Store:
                ++stores;
                if (kind == Kind::Inst)
                    continue;
                break;
            }
            ++accesses;
            if (const auto idx = store.lookup(ref.addr);
                idx != cache::TagStore::npos) {
                store.touchIdx(idx);
            } else {
                ++misses;
                cache::Eviction ev;
                store.allocateIdx(ref.addr, ev);
            }
        }

        std::cout << "trace: " << path << " (" << inst
                  << " inst, " << loads << " loads, " << stores
                  << " stores)\n"
                  << "cache: " << cfg.describe() << '\n'
                  << "accesses: " << accesses << '\n'
                  << "misses:   " << misses << '\n'
                  << "miss ratio: "
                  << (accesses ? static_cast<double>(misses) /
                                     static_cast<double>(accesses)
                               : 0.0)
                  << '\n';
    } catch (const FatalError &err) {
        std::cerr << err.what() << '\n';
        return 1;
    }
    return 0;
}
