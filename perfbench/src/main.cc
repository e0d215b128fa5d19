/**
 * @file
 * perfbench: one run of one benchmark workload.
 *
 * Sets the workload's inputs up several times (reporting the median
 * set-up time), then repeats its sweep for --seconds of wall time and
 * reports the end-to-end metrics: host wall time, refs/s, set-up
 * time, peak RSS and the simulated CPI.  Every point's stats dump is
 * hashed and checked against the seed-0 pins (or, for other seeds,
 * against the first repetition), so a wrong or nondeterministic
 * result counts as failed.
 *
 * With --trace 1 the run is split into an untraced and a traced half
 * (their wall-time ratio is tracing.overhead_frac), the traced half
 * records spans around every call into the simulator's layers, and
 * the layer ladder (layers.hh) times each layer on the workload's own
 * reference stream; the per-layer metrics replace the end-to-end
 * ones.  The last line of stdout is always the result object
 *
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 *
 * and a fuller document (host block, per-point digests, spans) is
 * written to --out-dir.
 *
 * Usage: perfbench --workload NAME [--seed N] [--seconds S]
 *                  [--trace 0|1] [--scale full|smoke]
 *                  [--out-dir DIR]
 */

#include <cstring>
#include <exception>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <thread>

#include "core/stats_dump.hh"
#include "layers.hh"
#include "pinned.hh"
#include "report.hh"
#include "util/file_io.hh"
#include "util/hash.hh"
#include "workloads.hh"

namespace
{

using namespace gaas;
using namespace perfbench;
using obs::JsonValue;

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    Scale scale = Scale::Full;
    std::string outDir = ".bench_out";
};

void
usage()
{
    std::cerr << "usage: perfbench --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] [--scale full|smoke] "
                 "[--out-dir DIR]\nworkloads:";
    for (const std::string &name : workloadNames())
        std::cerr << " " << name;
    std::cerr << "\n";
}

bool
parseU64(const char *text, std::uint64_t &out)
{
    char *end = nullptr;
    errno = 0;
    out = std::strtoull(text, &end, 10);
    return end != text && *end == '\0' && errno == 0 && text[0] != '-';
}

bool
parseArgs(int argc, char **argv, Options &opts)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const char *value = i + 1 < argc ? argv[i + 1] : nullptr;
        if (!value)
            return false;
        ++i;
        if (arg == "--workload") {
            opts.workload = value;
        } else if (arg == "--seed") {
            if (!parseU64(value, opts.seed))
                return false;
        } else if (arg == "--seconds") {
            char *end = nullptr;
            opts.seconds = std::strtod(value, &end);
            if (end == value || *end != '\0' || !(opts.seconds > 0.0))
                return false;
        } else if (arg == "--trace") {
            if (std::strcmp(value, "0") != 0 &&
                std::strcmp(value, "1") != 0)
                return false;
            opts.trace = value[0] == '1';
        } else if (arg == "--scale") {
            if (std::strcmp(value, "full") == 0)
                opts.scale = Scale::Full;
            else if (std::strcmp(value, "smoke") == 0)
                opts.scale = Scale::Smoke;
            else
                return false;
        } else if (arg == "--out-dir") {
            opts.outDir = value;
        } else {
            return false;
        }
    }
    return !opts.workload.empty();
}

std::string
digestOf(const core::SimResult &result)
{
    std::ostringstream os;
    core::dumpStats(result, os);
    util::Fnv1a h;
    h.feed(os.str());
    return h.hex();
}

/**
 * The correctness gate.  A point-run fails if it failed to simulate,
 * breaks a sanity invariant, or its stats digest differs from the
 * expected one: the pinned seed-0 digest when the workload has pins,
 * else the point's digest in the first repetition (so every further
 * repetition -- traced or not -- must reproduce it exactly).
 */
class Checker
{
  public:
    Checker(const Workload &w, const std::vector<std::string> *pinned)
        : workload(w)
    {
        if (pinned)
            expected = *pinned;
    }

    void
    check(const Rep &rep)
    {
        if (expected.empty()) {
            for (const auto &out : rep.outcomes)
                expected.push_back(digestOf(out.result));
        }
        for (std::size_t i = 0; i < rep.outcomes.size(); ++i) {
            const core::SweepOutcome &out = rep.outcomes[i];
            ++attempted;
            std::string why;
            if (!out.ok())
                why = "failed: " + out.error;
            else if (out.result.references() == 0 ||
                     !(out.result.cpi() >= 1.0))
                why = "implausible result";
            else if (workload.jobs[i].sampling.enabled &&
                     !out.result.sampling.enabled())
                why = "did not run sampled";
            else if (i >= expected.size() ||
                     digestOf(out.result) != expected[i])
                why = "stats digest mismatch";
            if (!why.empty()) {
                ++failed;
                if (failed <= 5)
                    std::cerr << "perfbench: point '"
                              << workload.jobs[i].config.name
                              << "': " << why << "\n";
            }
        }
    }

    Count attempted = 0;
    Count failed = 0;

  private:
    const Workload &workload;
    std::vector<std::string> expected;
};

/** Repeat the sweep until @p seconds of wall time have passed (at
 *  least once), checking every repetition. */
std::vector<Rep>
repeat(const Workload &w, double seconds, Checker &checker,
       SpanLog *spans)
{
    std::vector<Rep> reps;
    const obs::Stopwatch clock;
    do {
        ScopedSpan span(spans, "sweep");
        reps.push_back(w.run());
        checker.check(reps.back());
    } while (clock.seconds() < seconds);
    return reps;
}

double
medianWall(const std::vector<Rep> &reps)
{
    std::vector<double> walls;
    for (const Rep &rep : reps)
        walls.push_back(rep.stats.wallSeconds);
    return median(walls);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Median over repetitions of simulated references per wall second,
 *  all workers combined. */
double
medianRate(const std::vector<Rep> &reps)
{
    std::vector<double> rates;
    for (const Rep &rep : reps)
        rates.push_back(ratio(static_cast<double>(rep.stats.references),
                              rep.stats.wallSeconds));
    return median(rates);
}

Metrics
endToEnd(const std::vector<Rep> &reps, double setup_s)
{
    double cpiSum = 0.0;
    for (const auto &out : reps.front().outcomes)
        cpiSum += out.result.cpi();
    return {
        {"wall_s", medianWall(reps), "s"},
        {"refs_per_s", medianRate(reps), "refs/s"},
        {"setup_s", setup_s, "s"},
        {"peak_rss_mib", peakRssMib(), "MiB"},
        {"sim_cpi",
         cpiSum / static_cast<double>(reps.front().outcomes.size()),
         "cycles/instr"},
    };
}

/** Mean relative CI half-width of a sampled repetition. */
double
cpiCiRel(const Rep &rep)
{
    double sum = 0.0;
    for (const auto &out : rep.outcomes)
        sum += ratio(out.result.sampling.cpiHalfWidth,
                     out.result.sampling.cpiMean);
    return sum / static_cast<double>(rep.outcomes.size());
}

/** Per-layer metrics read off the traced sweeps' results and
 *  telemetry (counts are exact; timings are medians over reps). */
Metrics
sweepLayers(const Workload &w, const std::vector<Rep> &traced,
            double untraced_wall)
{
    // Exact simulated counts, summed over the first traced sweep.
    Count ifetches = 0, l1iMisses = 0, loads = 0, readMisses = 0,
          stores = 0, writeMisses = 0, l2Acc = 0, l2Miss = 0,
          itlbAcc = 0, itlbMiss = 0, dtlbAcc = 0, dtlbMiss = 0,
          instr = 0, fullStalls = 0, drainWaitCycles = 0,
          measured = 0, warmed = 0, skipped = 0;
    for (const auto &out : traced.front().outcomes) {
        const core::SimResult &r = out.result;
        const core::SysStats &s = r.sys;
        ifetches += s.ifetches;
        l1iMisses += s.l1iMisses;
        loads += s.loads;
        readMisses += s.l1dReadMisses;
        stores += s.stores;
        writeMisses += s.l1dWriteMisses;
        l2Acc += s.l2iAccesses + s.l2dAccesses;
        l2Miss += s.l2iMisses + s.l2dMisses;
        itlbAcc += s.itlb.accesses;
        itlbMiss += s.itlb.misses;
        dtlbAcc += s.dtlb.accesses;
        dtlbMiss += s.dtlb.misses;
        instr += r.instructions;
        fullStalls += s.wb.fullStalls;
        drainWaitCycles += s.wb.drainWaitCycles;
        measured += r.sampling.measuredInstructions;
        warmed += r.sampling.warmedInstructions;
        skipped += r.sampling.skippedInstructions;
    }
    auto frac = [](Count num, Count den) {
        return ratio(static_cast<double>(num), static_cast<double>(den));
    };

    std::vector<double> queue, build, p50, pmax, busy;
    Count gen = 0, reused = 0, respawns = 0, requeues = 0;
    for (const Rep &rep : traced) {
        const core::SweepStats &st = rep.stats;
        std::vector<double> totals;
        double q = 0.0, b = 0.0, sum = 0.0;
        for (const auto &job : st.perJob) {
            q += job.queueWaitSeconds;
            // Everything outside the simulation: the workload build
            // (inside sim time for sampled points) and the hand-off.
            b += job.totalSeconds - job.simSeconds;
            sum += job.totalSeconds;
            totals.push_back(job.totalSeconds);
        }
        // A serial sweep has no queue: its one job waits only for the
        // sweep's dispatch, the wall time spent outside the job.
        if (q == 0.0)
            q = std::max(0.0, st.wallSeconds - sum);
        const double points = static_cast<double>(st.perJob.size());
        queue.push_back(q / points);
        build.push_back(b / points);
        p50.push_back(median(totals));
        pmax.push_back(*std::max_element(totals.begin(), totals.end()));
        busy.push_back(
            ratio(sum, static_cast<double>(st.workers) * st.wallSeconds));
        gen += st.arenaStreamsGenerated;
        reused += st.arenaStreamsReused;
        respawns += st.workerRespawns;
        requeues += st.requeuedJobs;
    }

    // Stats emission: both dump formats of every point.
    std::vector<double> dumpS;
    for (int k = 0; k < 3; ++k) {
        const obs::Stopwatch clock;
        for (const auto &out : traced.front().outcomes) {
            std::ostringstream flat, json;
            core::dumpStats(out.result, flat);
            core::dumpStatsJson(out.result, json);
        }
        dumpS.push_back(clock.seconds());
    }

    const bool sampled = w.jobs.front().sampling.enabled;
    const double busyFrac = median(busy);
    return {
        {"trace.arena_mib",
         static_cast<double>(w.arenaBytes()) / (1 << 20), "MiB"},
        {"trace.arena_hit_rate", frac(reused, gen + reused), "ratio"},
        {"mmu.itlb_miss_ratio", frac(itlbMiss, itlbAcc), "ratio"},
        {"mmu.dtlb_miss_ratio", frac(dtlbMiss, dtlbAcc), "ratio"},
        {"cache.l1i_miss_ratio", frac(l1iMisses, ifetches), "ratio"},
        {"cache.l1d_read_miss_ratio", frac(readMisses, loads), "ratio"},
        {"cache.l1d_write_miss_ratio", frac(writeMisses, stores),
         "ratio"},
        {"cache.l2_miss_ratio", frac(l2Miss, l2Acc), "ratio"},
        {"mem.wb_full_stalls_per_kinstr", 1000.0 * frac(fullStalls, instr),
         "1/kinstr"},
        {"mem.wb_drain_wait_cycles_per_kinstr",
         1000.0 * frac(drainWaitCycles, instr), "cycles/kinstr"},
        {"sampling.detail_frac",
         sampled ? frac(measured, measured + warmed + skipped) : 1.0,
         "ratio"},
        {"sweep.queue_wait_s", median(queue), "s"},
        {"sweep.build_s", median(build), "s"},
        {"sweep.point_s_p50", median(p50), "s"},
        {"sweep.point_s_max", median(pmax), "s"},
        {"sweep.worker_busy_frac", busyFrac, "ratio"},
        {"stats.dump_ms_per_point",
         median(dumpS) * 1e3 /
             static_cast<double>(traced.front().outcomes.size()),
         "ms"},
        {"proc.idle_frac", 1.0 - busyFrac, "ratio"},
        {"proc.respawns", static_cast<double>(respawns), "count"},
        {"proc.requeues", static_cast<double>(requeues), "count"},
        {"tracing.overhead_frac",
         ratio(medianWall(traced), untraced_wall) - 1.0, "ratio"},
    };
}

void
printMetrics(const Metrics &metrics)
{
    for (const Metric &m : metrics)
        std::cout << "  " << std::left << std::setw(38) << m.name
                  << std::setprecision(6) << m.value << " " << m.unit
                  << "\n";
}

int
run(const Options &opts)
{
    // Generated input files live here for the run only.
    const std::string inputsDir =
        opts.outDir + "/inputs-" + std::to_string(::getpid());
    struct RemoveOnExit
    {
        const std::string &path;
        ~RemoveOnExit()
        {
            std::error_code ec;
            std::filesystem::remove_all(path, ec);
        }
    } removeInputs{inputsDir};
    std::unique_ptr<Workload> w =
        makeWorkload(opts.workload, opts.seed, opts.scale, inputsDir);
    if (!w) {
        std::cerr << "perfbench: unknown workload '" << opts.workload
                  << "'\n";
        usage();
        return 2;
    }
    const std::uint64_t seed = w->seedPinned ? 0 : opts.seed;
    if (w->seedPinned && opts.seed != 0)
        std::cout << "perfbench: " << w->name
                  << " runs seed 0 only (--seed " << opts.seed
                  << " ignored)\n";

    std::vector<double> calib;
    for (int k = 0; k < 3; ++k)
        calib.push_back(calibrationRefsPerSecond());
    const double calibration = median(calib);

    SpanLog log(w->name + "/seed" + std::to_string(seed));
    SpanLog *spans = opts.trace ? &log : nullptr;

    // Set-up, several times; the last set of inputs is measured.
    const int setups = opts.scale == Scale::Full ? 5 : 1;
    std::vector<double> setupS;
    for (int r = 0; r < setups; ++r) {
        ScopedSpan span(spans, "setup");
        const obs::Stopwatch clock;
        w->setUp(r == setups - 1);
        setupS.push_back(clock.seconds());
    }

    const std::vector<std::string> *pins =
        seed == 0 ? pinnedDigests(w->name, opts.scale) : nullptr;
    Checker checker(*w, pins);

    std::cout << "perfbench: " << w->name << " seed " << seed << ", "
              << w->jobs.size() << " point(s) on " << w->workers << " "
              << (w->processes ? "worker process(es)" : "worker(s)")
              << (pins ? ", pinned digests" : "") << "\n";

    Metrics metrics;
    std::vector<Rep> reps;
    if (!opts.trace) {
        reps = repeat(*w, opts.seconds, checker, nullptr);
        metrics = endToEnd(reps, median(setupS));
        std::cout << "  " << reps.size() << " repetition(s)\n";
        printMetrics(metrics);
        // Reported here but not in the result object: neither is
        // defined (nonzero) on every workload.
        Metrics extra = {{"failed_frac",
                          ratio(static_cast<double>(checker.failed),
                                static_cast<double>(checker.attempted)),
                          "ratio"}};
        if (w->jobs.front().sampling.enabled)
            extra.push_back(
                {"cpi_ci_rel", cpiCiRel(reps.front()), "ratio"});
        printMetrics(extra);
    } else {
        const std::vector<Rep> untraced =
            repeat(*w, opts.seconds / 2, checker, nullptr);
        reps = repeat(*w, opts.seconds / 2, checker, spans);
        metrics = sweepLayers(*w, reps, medianWall(untraced));
        const Metrics ladder = runLadder(*w, log, inputsDir);
        metrics.insert(metrics.end(), ladder.begin(), ladder.end());
        std::cout << "  " << untraced.size() << " untraced + "
                  << reps.size() << " traced repetition(s)\n";
        printMetrics(metrics);
    }

    JsonValue host = JsonValue::object();
    host.members.emplace_back(
        "nproc", JsonValue::number(static_cast<Count>(
                     std::thread::hardware_concurrency())));
    host.members.emplace_back(
        "workers", JsonValue::number(static_cast<Count>(w->workers)));
    host.members.emplace_back(
        "executor",
        JsonValue::string(w->processes ? "processes" : "threads"));
    host.members.emplace_back("build_type",
                              JsonValue::string(PERFBENCH_BUILD_TYPE));
    host.members.emplace_back("calibration_refs_per_s",
                              JsonValue::number(calibration));
    host.members.emplace_back(
        "machine_relative_refs_per_s",
        JsonValue::number(ratio(medianRate(reps), calibration)));
    std::cout << "host " << obs::writeJsonCompact(host) << "\n";


    JsonValue points = JsonValue::array();
    for (const auto &out : reps.front().outcomes) {
        JsonValue one = JsonValue::object();
        one.members.emplace_back(
            "config", JsonValue::string(out.result.configName));
        one.members.emplace_back("cpi",
                                 JsonValue::number(out.result.cpi()));
        one.members.emplace_back("digest",
                                 JsonValue::string(digestOf(out.result)));
        points.items.push_back(std::move(one));
    }
    JsonValue doc = JsonValue::object();
    doc.members.emplace_back("workload", JsonValue::string(w->name));
    doc.members.emplace_back("seed", JsonValue::number(seed));
    doc.members.emplace_back(
        "scale", JsonValue::string(opts.scale == Scale::Full ? "full"
                                                             : "smoke"));
    doc.members.emplace_back("trace",
                             JsonValue::number(Count{opts.trace}));
    doc.members.emplace_back("host", host);
    doc.members.emplace_back("metrics", metricsJson(metrics));
    doc.members.emplace_back("points", std::move(points));
    JsonValue walls = JsonValue::array();
    for (const Rep &rep : reps)
        walls.items.push_back(JsonValue::number(rep.stats.wallSeconds));
    doc.members.emplace_back("rep_wall_s", std::move(walls));
    JsonValue setupWalls = JsonValue::array();
    for (const double s : setupS)
        setupWalls.items.push_back(JsonValue::number(s));
    doc.members.emplace_back("setup_s", std::move(setupWalls));
    if (opts.trace)
        doc.members.emplace_back("spans", log.json());
    const std::string docPath =
        opts.outDir + "/" + w->name + "-seed" + std::to_string(seed) +
        (opts.trace ? "-trace" : "") +
        (opts.scale == Scale::Smoke ? "-smoke" : "") + ".json";
    std::string error;
    std::filesystem::create_directories(opts.outDir);
    if (!util::writeFileAtomicRetry(docPath, obs::writeJsonString(doc),
                                    &error))
        std::cerr << "perfbench: cannot write " << docPath << ": "
                  << error << "\n";

    // The JSON writer has no boolean, so the result line is spliced.
    std::cout << "{\"correct\":"
              << (checker.failed == 0 ? "true" : "false")
              << ",\"attempted\":" << checker.attempted
              << ",\"failed\":" << checker.failed << ",\"metrics\":"
              << obs::writeJsonCompact(metricsJson(metrics)) << "}"
              << std::endl;
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    if (!parseArgs(argc, argv, opts)) {
        usage();
        return 2;
    }
    try {
        return run(opts);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
}
