/**
 * @file
 * goldencheck: the golden-run regression harness.
 *
 * Runs a fixed set of pinned-seed, reduced-budget simulations -- the
 * full preset ladder plus representative Fig. 5 (write policy) and
 * Fig. 6 (L2 organisation) design points, and sampled twins of six
 * of them (core::runSampled) -- dumps each result as a
 * gem5-style flat statistics file, and diffs it bit-exactly against
 * the checked-in golden copy in tests/golden/.  Any PRNG-stream,
 * timing-model, or accounting change shows up as a first-divergence
 * diff; DESIGN.md's "determinism is a hard guarantee" becomes an
 * executable check.
 *
 * Usage:
 *   goldencheck [--golden-dir DIR] [--only NAME]... [--list]
 *               [--bless] [--json-roundtrip]
 *
 *   --golden-dir DIR  where the .stats files live
 *                     (default: tests/golden)
 *   --only NAME       check just this point (repeatable)
 *   --list            print the point names and exit
 *   --bless           regenerate the golden files from the current
 *                     build instead of checking (review the diff
 *                     before committing!)
 *   --json-roundtrip  instead of the flat-dump diff, dump each
 *                     selected point as JSON, parse it back, re-emit
 *                     it and byte-compare -- locks the JSON schema
 *                     and the parser/writer pair together
 *
 * Exit status: 0 all points match, 1 any mismatch/missing golden,
 * 2 usage error.
 */

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/config.hh"
#include "core/sampling.hh"
#include "core/simulator.hh"
#include "core/stats_dump.hh"
#include "obs/json.hh"
#include "util/file_io.hh"
#include "util/logging.hh"

namespace
{

using namespace gaas;

/** One golden design point: a named, fully pinned simulation. */
struct GoldenPoint
{
    std::string name;
    core::SystemConfig config;
    unsigned mpLevel;
    Count instructions;
    Count warmup;
    /** Enabled: run through core::runSampled with this plan. */
    core::SamplingConfig sampling = {};
};

/**
 * The golden set.  Budgets are deliberately small (the harness runs
 * on every ctest invocation) but past the warmup knee, so every CPI
 * bucket and miss counter is nonzero and a perturbed timing model
 * cannot hide.  Everything is pinned: the synthetic workload derives
 * its PRNG streams from fixed per-benchmark seeds, so the only free
 * variable is the code under test.
 */
std::vector<GoldenPoint>
goldenPoints()
{
    constexpr Count kInstructions = 200'000;
    constexpr Count kWarmup = 100'000;
    constexpr unsigned kMp = 8;

    std::vector<GoldenPoint> points;
    auto add = [&](const char *name, core::SystemConfig cfg) {
        points.push_back(GoldenPoint{name, std::move(cfg), kMp,
                                     kInstructions, kWarmup});
    };

    // The preset ladder: base architecture -> Fig. 11 optimized.
    add("ladder-base", core::baseline());
    add("ladder-write-only", core::afterWritePolicy());
    add("ladder-split-l2", core::afterSplitL2());
    add("ladder-fetch-8w", core::afterFetchSize());
    add("ladder-concurrent", core::afterConcurrentIRefill());
    add("ladder-load-bypass", core::afterLoadBypass());
    add("ladder-optimized", core::optimized());
    add("ladder-exchanged", core::splitL2Exchanged());

    // Fig. 5 representatives: the two non-ladder write policies at
    // the 6-cycle crossover region.
    {
        auto cfg = core::withWritePolicy(
            core::baseline(), core::WritePolicy::WriteMissInvalidate);
        cfg.name = "fig5-invalidate-6cy";
        add("fig5-invalidate-6cy", cfg);
    }
    {
        auto cfg = core::withWritePolicy(
            core::baseline(), core::WritePolicy::SubblockPlacement);
        cfg.name = "fig5-subblock-6cy";
        add("fig5-subblock-6cy", cfg);
    }

    // Fig. 6 representatives: the 64KW decision point, unified vs
    // logically split, plus the 2-way (+1 cycle) variant.
    auto fig6 = [&](const char *name, core::L2Org org,
                    unsigned assoc, Cycles access) {
        auto cfg = core::afterWritePolicy();
        cfg.name = name;
        cfg.l2Org = org;
        cfg.l2.cache.sizeWords = 64 * 1024;
        cfg.l2.cache.assoc = assoc;
        cfg.l2.accessTime = access;
        add(name, cfg);
    };
    fig6("fig6-unified-64kw", core::L2Org::Unified, 1, 6);
    fig6("fig6-logical-64kw", core::L2Org::LogicalSplit, 1, 6);
    fig6("fig6-unified-64kw-2way", core::L2Org::Unified, 2, 7);

    // At the reduced budget the 500k-cycle slice almost never
    // preempts, so pin one short-slice point to keep the round-robin
    // scheduler's accounting under the harness too (Fig. 3 regime).
    {
        auto cfg = core::baseline();
        cfg.name = "sched-short-slice";
        cfg.timeSliceCycles = 25'000;
        add("sched-short-slice", cfg);
    }

    // Sampled twins: the same points through the sampled regime, so
    // functional warming, fast-forward and the estimator are pinned
    // too.  The plan is small enough that the schedule fits the
    // golden budget (the dump shows sampling.intervals > 0, not the
    // full-detail fallback) and covers all four write policies, the
    // concurrent I-refill and the dirty-bit load bypass.
    core::SamplingConfig plan;
    plan.enabled = true;
    plan.measureInstructions = 2'000;
    plan.headInstructions = 4'000;
    plan.warmInstructions = 6'000;
    plan.minIntervals = 4;
    plan.maxIntervals = 8;
    for (const char *base :
         {"ladder-base", "ladder-write-only", "fig5-invalidate-6cy",
          "fig5-subblock-6cy", "ladder-concurrent",
          "ladder-load-bypass"}) {
        for (std::size_t i = 0; i < points.size(); ++i) {
            if (points[i].name != base)
                continue;
            GoldenPoint twin = points[i];
            twin.name += "-sampled";
            twin.sampling = plan;
            points.push_back(std::move(twin));
            break;
        }
    }

    return points;
}

void reportDiff(const std::string &name, const std::string &expected,
                const std::string &actual);

/** Run @p point and return its result. */
core::SimResult
runPointResult(const GoldenPoint &point)
{
    if (point.sampling.enabled)
        return core::runSampled(point.config, point.sampling,
                                point.instructions, point.mpLevel,
                                point.warmup);
    return core::runStandard(point.config, point.instructions,
                             point.mpLevel, point.warmup);
}

/** Run @p point and render its stats dump to a string. */
std::string
runPoint(const GoldenPoint &point)
{
    std::ostringstream os;
    core::dumpStats(runPointResult(point), os);
    return os.str();
}

/**
 * JSON schema lock: emit @p point as JSON, parse it back, re-emit,
 * and require the two byte streams to be identical.  Any emitter
 * construct the parser cannot reproduce (or vice versa) fails here
 * long before an external consumer sees it.
 */
bool
checkJsonRoundtrip(const GoldenPoint &point)
{
    std::ostringstream os;
    core::dumpStatsJson(runPointResult(point), os);
    const std::string emitted = os.str();

    std::string reemitted;
    try {
        reemitted = obs::writeJsonString(obs::parseJson(emitted));
    } catch (const FatalError &err) {
        std::cerr << "FAIL " << point.name
                  << ": emitted JSON does not parse: " << err.what()
                  << '\n';
        return false;
    }
    if (reemitted != emitted) {
        std::cerr << "FAIL " << point.name
                  << ": JSON round-trip is not byte-identical\n";
        reportDiff(point.name, emitted, reemitted);
        return false;
    }
    std::cout << "ok   " << point.name << " (json round-trip)\n";
    return true;
}

/** @return the whole of @p path, or nullopt-ish empty + ok=false. */
bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    out = ss.str();
    return true;
}

/** Print a first-divergence report between expected and actual. */
void
reportDiff(const std::string &name, const std::string &expected,
           const std::string &actual)
{
    std::istringstream want(expected), got(actual);
    std::string wline, gline;
    unsigned lineno = 0;
    while (true) {
        ++lineno;
        const bool haveWant = static_cast<bool>(
            std::getline(want, wline));
        const bool haveGot = static_cast<bool>(
            std::getline(got, gline));
        if (!haveWant && !haveGot)
            break;
        if (haveWant != haveGot || wline != gline) {
            std::cerr << "  first divergence at line " << lineno
                      << ":\n"
                      << "    golden:  "
                      << (haveWant ? wline : "<end of file>") << '\n'
                      << "    current: "
                      << (haveGot ? gline : "<end of file>") << '\n';
            return;
        }
    }
    std::cerr << "  (same lines, different bytes -- check line "
                 "endings)\n";
    (void)name;
}

[[noreturn]] void
usage()
{
    std::cerr << "usage: goldencheck [--golden-dir DIR] "
                 "[--only NAME]... [--list] [--bless] "
                 "[--json-roundtrip]\n";
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string goldenDir = "tests/golden";
    std::vector<std::string> only;
    bool bless = false;
    bool list = false;
    bool json_roundtrip = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (++i >= argc)
                usage();
            return argv[i];
        };
        if (arg == "--golden-dir") {
            goldenDir = next();
        } else if (arg == "--only") {
            only.push_back(next());
        } else if (arg == "--bless") {
            bless = true;
        } else if (arg == "--list") {
            list = true;
        } else if (arg == "--json-roundtrip") {
            json_roundtrip = true;
        } else {
            std::cerr << "unknown option " << arg << '\n';
            usage();
        }
    }

    try {
        auto points = goldenPoints();
        if (list) {
            for (const auto &p : points)
                std::cout << p.name << '\n';
            return 0;
        }
        if (!only.empty()) {
            std::vector<GoldenPoint> picked;
            for (const auto &name : only) {
                bool found = false;
                for (auto &p : points) {
                    if (name == p.name) {
                        picked.push_back(std::move(p));
                        found = true;
                        break;
                    }
                }
                if (!found) {
                    std::cerr << "goldencheck: no point named '"
                              << name << "' (see --list)\n";
                    return 2;
                }
            }
            points = std::move(picked);
        }

        if (json_roundtrip) {
            unsigned rt_failures = 0;
            for (const auto &point : points) {
                if (!checkJsonRoundtrip(point))
                    ++rt_failures;
            }
            if (rt_failures) {
                std::cerr << rt_failures << " of " << points.size()
                          << " JSON round-trip(s) diverged\n";
                return 1;
            }
            std::cout << "all " << points.size()
                      << " JSON round-trips byte-exact\n";
            return 0;
        }

        unsigned failures = 0;
        for (const auto &point : points) {
            const std::string path =
                goldenDir + "/" + point.name + ".stats";
            const std::string actual = runPoint(point);
            if (bless) {
                // Atomic publication: a bless interrupted mid-write
                // must never leave a truncated golden file that a
                // later check would "pass" against.
                std::string error;
                if (!util::writeFileAtomicRetry(path, actual,
                                                &error)) {
                    std::cerr << "goldencheck: " << error << '\n';
                    return 1;
                }
                std::cout << "blessed " << point.name << " -> "
                          << path << '\n';
                continue;
            }
            std::string expected;
            if (!readFile(path, expected)) {
                std::cerr << "FAIL " << point.name << ": no golden "
                          << "file " << path
                          << " (run goldencheck --bless)\n";
                ++failures;
                continue;
            }
            if (expected != actual) {
                std::cerr << "FAIL " << point.name
                          << ": stats diverge from " << path << '\n';
                reportDiff(point.name, expected, actual);
                ++failures;
            } else {
                std::cout << "ok   " << point.name << '\n';
            }
        }

        if (bless) {
            std::cout << points.size()
                      << " golden file(s) regenerated in "
                      << goldenDir << "; review with git diff "
                      << "before committing\n";
            return 0;
        }
        if (failures) {
            std::cerr << failures << " of " << points.size()
                      << " golden point(s) diverged\n";
            return 1;
        }
        std::cout << "all " << points.size()
                  << " golden points bit-exact\n";
    } catch (const FatalError &err) {
        std::cerr << "goldencheck: " << err.what() << '\n';
        return 1;
    }
    return 0;
}
