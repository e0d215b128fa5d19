/**
 * @file
 * benchspeed: the perf gates of the `perfsmoke` ctest label.
 *
 * Each mode runs the same work two ways and byte-compares every
 * point's full stats dump across them; any difference fails.  A mode
 * may also gate one rate, as a ratio of two rates timed in the same
 * run.  Timings go to stdout only: the repository's measurements come
 * from perfbench/.
 *
 * Default mode: the pinned Fig. 6 ladder (7 L2 sizes x 4
 * organisations) from fresh generators (Workload::fromSpecs, the
 * reference), then from the trace arena (the standard workload); the
 * arena must also have reused streams.  `--floor R` then times
 * warm-arena passes of the ladder on one worker, each after a
 * calibration drain (a single-thread synthetic-generator drain that
 * never enters the simulator), and fails unless the fastest pass
 * reaches R times the fastest drain's refs/s.
 *
 * `--mproc`: after one untimed warm pass, five thread-pool /
 * forked-worker pairs (same worker count, alternating which side
 * goes first); the fault-free ladder must neither respawn a worker
 * nor requeue a job.  `--overhead PCT` fails if the median
 * process-vs-thread wall overhead exceeds PCT.
 *
 * `--stream`: encodes `--grefs G` billion references (default 2.5,
 * the paper's regime) into v3 files, one per process, and simulates
 * one pinned configuration through StreamSource and from the arena,
 * two passes each plus one untimed cold arena pass.  `--ratio R`
 * fails if the fastest streamed refs/s is below R times the fastest
 * warm arena pass's.  The files live in a fresh directory under the
 * working directory, removed when the run returns or throws.
 *
 * `--smoke` shrinks every budget to CI scale.
 *
 * Usage: benchspeed [--smoke] [--floor R]
 *        benchspeed --mproc [--smoke] [--overhead PCT]
 *        benchspeed --stream [--smoke] [--grefs G] [--ratio R]
 */

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <system_error>
#include <vector>

#include "core/config.hh"
#include "core/stats_dump.hh"
#include "core/sweep.hh"
#include "core/workload.hh"
#include "proc/executor.hh"
#include "synth/suite.hh"
#include "trace/v3.hh"
#include "util/env.hh"
#include "util/logging.hh"

namespace
{

using namespace gaas;

/** The pinned ladder: Fig. 6's 28 configurations, at full budget
 *  or (smoke) CI scale.  Prints the run's banner. */
std::vector<core::SweepJob>
ladder(bool smoke, const std::string &mode)
{
    struct Org
    {
        const char *name;
        core::L2Org org;
        unsigned assoc;
        Cycles accessTime;
    };
    const Org orgs[] = {
        {"unified-1w", core::L2Org::Unified, 1, 6},
        {"unified-2w", core::L2Org::Unified, 2, 7},
        {"split-1w", core::L2Org::LogicalSplit, 1, 6},
        {"split-2w", core::L2Org::LogicalSplit, 2, 7},
    };
    const Count instructions = smoke ? 20'000 : 1'000'000;
    const Count warmup = smoke ? 5'000 : 500'000;
    const unsigned mp = smoke ? 4 : 8;

    std::vector<core::SweepJob> jobs;
    for (std::uint64_t size = 16 * 1024; size <= 1024 * 1024;
         size *= 2) {
        for (const Org &o : orgs) {
            core::SweepJob job;
            job.config = core::afterWritePolicy();
            job.config.name = "l2-" +
                              std::to_string(size / 1024) + "k-" +
                              o.name;
            job.config.l2Org = o.org;
            job.config.l2.cache.sizeWords = size;
            job.config.l2.cache.assoc = o.assoc;
            job.config.l2.accessTime = o.accessTime;
            job.mpLevel = mp;
            job.instructions = instructions;
            job.warmup = warmup;
            jobs.push_back(std::move(job));
        }
    }
    std::cout << "benchspeed" << mode << ": " << jobs.size()
              << "-point fig6 ladder, " << instructions
              << " instructions + " << warmup << " warmup, mp "
              << mp << ", " << core::sweepWorkers()
              << " worker(s)\n";
    return jobs;
}

/** One run: sweep telemetry plus every point's full stats dump. */
struct ModeRun
{
    core::SweepStats stats;
    std::vector<std::string> dumps;
};

/**
 * Run @p jobs across @p workers threads or, with @p processes,
 * forked worker processes (0 = core::sweepWorkers()).  A failed
 * point throws: every gate assumes the whole ladder ran.
 */
ModeRun
runMode(const std::vector<core::SweepJob> &jobs, unsigned workers = 0,
        bool processes = false)
{
    ModeRun run;
    std::vector<core::SweepOutcome> outcomes;
    if (processes) {
        proc::MprocOptions opts;
        opts.workers = workers;
        outcomes = proc::runSweepMproc(jobs, opts, &run.stats);
    } else {
        outcomes = core::runSweepOutcomes(jobs, workers, &run.stats);
    }
    for (const auto &out : outcomes) {
        if (out.status == core::PointStatus::Failed)
            gaas_fatal("point '", out.result.configName,
                       "' failed: ", out.error);
        std::ostringstream os;
        core::dumpStats(out.result, os);
        run.dumps.push_back(os.str());
    }
    return run;
}

/** Byte-compare two runs of @p jobs point by point, naming every
 *  point that differs; @return true if all match. */
bool
sameDumps(const ModeRun &a, const ModeRun &b,
          const std::vector<core::SweepJob> &jobs,
          const std::string &sides)
{
    bool same = true;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (a.dumps[i] != b.dumps[i]) {
            std::cerr << "benchspeed: FAIL: point " << i << " ('"
                      << jobs[i].config.name << "') differs between "
                      << sides << "\n";
            same = false;
        }
    }
    return same;
}

/**
 * The machine yardstick: drain one pinned single-thread synthetic
 * benchmark (suite entry 0, 2M instructions) and return its refs/s.
 * It runs the trace generator only, never the simulator, so a
 * simulator slowdown moves a ladder pass but not the drain.
 */
double
calibrationRefsPerSecond()
{
    synth::BenchmarkSpec spec = synth::defaultSuite()[0];
    spec.simInstructions = 2'000'000;
    auto src = synth::makeBenchmark(spec);
    constexpr std::size_t kBatch = 1u << 14;
    std::vector<trace::MemRef> buf(kBatch);
    std::uint64_t n = 0;
    const auto start = std::chrono::steady_clock::now();
    for (;;) {
        const std::size_t got = src->nextBatch(buf.data(), kBatch);
        n += got;
        if (got < kBatch)
            break;
    }
    const double secs =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start)
            .count();
    return secs > 0.0 ? static_cast<double>(n) / secs : 0.0;
}

/** Calibration-drain / one-worker-pass pairs --floor times. */
constexpr int kFloorPairs = 5;

/** The default mode: fresh generators vs the arena, then the
 *  --floor gate if set.  Returns the process exit code. */
int
runLadderBench(bool smoke, double floor)
{
    const auto jobs = ladder(smoke, "");

    // The reference side builds every point's workload from fresh
    // generators, so it never touches the arena.  It runs first:
    // the arena map is process-global and never evicted, so the
    // arena run that follows starts cold and pays its own generation.
    std::vector<core::SweepJob> fresh = jobs;
    for (core::SweepJob &job : fresh) {
        const unsigned mp = job.mpLevel;
        job.workload = [mp] {
            return core::Workload::fromSpecs(synth::workloadSpecs(mp));
        };
    }
    const ModeRun gen = runMode(fresh);
    std::cout << "  generators: " << gen.stats.wallSeconds
              << " s wall, " << gen.stats.refsPerSecond()
              << " refs/s\n";
    const ModeRun on = runMode(jobs);
    std::cout << "  arena:      " << on.stats.wallSeconds
              << " s wall, " << on.stats.refsPerSecond() << " refs/s, "
              << on.stats.arenaStreamsGenerated << " streams gen / "
              << on.stats.arenaStreamsReused << " reused\n";

    int rc =
        sameDumps(gen, on, jobs, "fresh generators and the arena") ? 0
                                                                   : 1;
    if (on.stats.arenaStreamsReused == 0) {
        std::cerr << "benchspeed: FAIL: the arena run reused no "
                     "streams (arena path not exercised)\n";
        rc = 1;
    }
    if (floor <= 0.0)
        return rc;

    // The hot-path gate.  Host noise only ever slows a run, so it
    // divides the fastest of the one-worker passes by the fastest of
    // the drains interleaved with them.
    double bestDrain = 0.0;
    double bestPass = 0.0;
    for (int k = 0; k < kFloorPairs; ++k) {
        const double drain = calibrationRefsPerSecond();
        const ModeRun pass = runMode(jobs, 1);
        const double rate = pass.stats.refsPerSecond();
        std::cout << "  floor pair " << k << ": drain " << drain
                  << " refs/s, one-worker pass " << rate
                  << " refs/s\n";
        if (!sameDumps(on, pass, jobs,
                       "the arena run and a one-worker pass"))
            rc = 1;
        bestDrain = std::max(bestDrain, drain);
        bestPass = std::max(bestPass, rate);
    }
    const double ratio = bestDrain > 0.0 ? bestPass / bestDrain : 0.0;
    std::cout << "  fastest one-worker pass / fastest drain = " << ratio
              << " (floor " << floor << ")\n";
    if (ratio < floor) {
        std::cerr << "benchspeed: FAIL: one-worker ladder rate is "
                  << ratio << " of the calibration drain, below the "
                  << "floor " << floor << "\n";
        rc = 1;
    }
    return rc;
}

/** Thread/process pairs the --mproc mode times. */
constexpr int kMprocPairs = 5;

/** Median of @p values (mean of the middle two when even). */
double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 ? values[mid]
                             : (values[mid - 1] + values[mid]) / 2.0;
}

/** The --mproc mode: thread pool vs forked worker processes.
 *  Returns the process exit code. */
int
runMprocBench(bool smoke, double maxOverheadPct)
{
    const auto jobs = ladder(smoke, " --mproc");

    // An untimed warmup pass materializes every arena stream (and
    // faults in the code paths), so both timed modes below replay
    // the same warm streams and the overhead number isolates the
    // process machinery (fork, pipes, result re-encoding) -- which
    // is exactly what the overhead gate is about.
    (void)runMode(jobs);

    // One ~0.1 s pair is at the mercy of host noise, so time
    // kMprocPairs thread/process pairs, alternating which side runs
    // first, byte-compare every pair, and gate the median overhead.
    int rc = 0;
    std::vector<double> overheads;
    for (int p = 0; p < kMprocPairs; ++p) {
        const bool threadsFirst = p % 2 == 0;
        ModeRun threads, procs;
        if (threadsFirst) {
            threads = runMode(jobs);
            procs = runMode(jobs, 0, true);
        } else {
            procs = runMode(jobs, 0, true);
            threads = runMode(jobs);
        }
        const double threadWall = threads.stats.wallSeconds;
        const double overheadPct =
            threadWall > 0.0
                ? (procs.stats.wallSeconds - threadWall) /
                      threadWall * 100.0
                : 0.0;
        std::cout << "  pair " << p << " ("
                  << (threadsFirst ? "threads" : "processes")
                  << " first): threads " << threadWall
                  << " s, processes " << procs.stats.wallSeconds
                  << " s, overhead " << overheadPct << " %\n";

        if (!procs.stats.mproc) {
            std::cerr << "benchspeed: FAIL: the process run did not "
                         "use the multi-process executor\n";
            rc = 1;
        }
        if (procs.stats.workerRespawns != 0 ||
            procs.stats.requeuedJobs != 0) {
            std::cerr << "benchspeed: FAIL: fault-free ladder "
                         "respawned "
                      << procs.stats.workerRespawns
                      << " worker(s) / requeued "
                      << procs.stats.requeuedJobs << " job(s)\n";
            rc = 1;
        }
        if (!sameDumps(threads, procs, jobs,
                       "threads and processes in pair " +
                           std::to_string(p)))
            rc = 1;
        overheads.push_back(overheadPct);
    }

    const double overheadPct = median(overheads);
    std::cout << "  median overhead: " << overheadPct << " %\n";
    if (maxOverheadPct > 0.0 && overheadPct > maxOverheadPct) {
        std::cerr << "benchspeed: FAIL: median multi-process overhead "
                  << overheadPct << " % exceeds the "
                  << maxOverheadPct << " % budget\n";
        rc = 1;
    }
    return rc;
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

/** A fresh mkdtemp directory under the working directory, removed
 *  with its contents when this object is destroyed. */
class ScratchDir
{
  public:
    ScratchDir()
    {
        char name[] = "benchspeed-stream-XXXXXX";
        if (!::mkdtemp(name))
            gaas_fatal("cannot create a scratch directory for the "
                       "trace files: ",
                       std::generic_category().message(errno));
        dir = name;
    }
    ~ScratchDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(dir, ec);
    }
    ScratchDir(const ScratchDir &) = delete;
    ScratchDir &operator=(const ScratchDir &) = delete;

    const std::string &path() const { return dir; }

  private:
    std::string dir;
};

/** Streamed / warm-arena pass pairs the --stream mode times. */
constexpr int kStreamPairs = 2;

/** The --stream mode: StreamSource vs arena replay of v3 files.
 *  Returns the process exit code. */
int
runStreamBench(bool smoke, double grefs, double ratioFloor)
{
    // One file per process of the multiprogramming workload.  File
    // sizes follow the scheduler's instruction shares
    // (synth::instructionShares, as Workload::standard's refHint)
    // with 10% slack, so most files last the whole run without
    // wrapping -- though wrapping would be bit-identical too
    // (LoopSource).
    const unsigned files = smoke ? 2 : 8;
    const double targetRefs = smoke ? 4.0e6 : grefs * 1e9;
    auto specs = synth::workloadSpecs(files);
    const std::vector<double> shares = synth::instructionShares(specs);

    double minRpi = 10.0;
    for (const auto &s : specs)
        minRpi = std::min(minRpi, 1.0 + s.loadFrac + s.storeFrac);
    // Simulation budget sized so the measured run consumes at least
    // targetRefs references even if every instruction landed in the
    // lowest-refs-per-instruction process (2% margin on top).
    const Count totalInstr =
        static_cast<Count>(targetRefs / minRpi * 1.02);

    std::cout << "benchspeed --stream: " << files
              << " trace file(s), target "
              << static_cast<std::uint64_t>(targetRefs)
              << " references, " << totalInstr
              << " simulated instructions\n";

    const ScratchDir dir;
    std::vector<std::string> paths;
    for (unsigned i = 0; i < files; ++i) {
        synth::BenchmarkSpec spec = specs[i];
        spec.simInstructions = static_cast<Count>(
            shares[i] * static_cast<double>(totalInstr) * 1.1);
        const std::string path =
            dir.path() + "/" + std::to_string(i) + ".v3";
        auto src = synth::makeBenchmark(spec);
        trace::TraceV3Writer writer(path);
        writer.writeAll(*src);
        writer.close();
        // An unpackable file streams through the MemRef decode and
        // the ingest packer instead of decodeBlockPacked, so the
        // ratio would not gate the direct decode path that synth
        // traces (and pixie-style traces) take.
        if (!trace::v3FileInfo(path).packable()) {
            std::cerr << "benchspeed: FAIL: synth-written v3 file "
                      << path << " is not packable\n";
            return 1;
        }
        paths.push_back(path);
    }

    // One pinned fig6 configuration over the trace files.  Streamed
    // and warm-arena passes alternate, kStreamPairs of each, and the
    // gate divides the fastest of each side, since host noise only
    // ever slows a run.  The first pass streams before anything is
    // in the arena, so the RSS high-water mark printed after it is
    // the bounded-memory pipeline's; the cold arena pass after it
    // decodes the files into the arena and is not timed.
    core::SweepJob job;
    job.config = core::afterWritePolicy();
    job.config.name = "l2-256k-unified-1w";
    job.config.l2Org = core::L2Org::Unified;
    job.config.l2.cache.sizeWords = 256 * 1024;
    job.config.l2.cache.assoc = 1;
    job.config.l2.accessTime = 6;
    job.instructions = totalInstr;
    job.warmup = 0;
    job.traceFiles = paths;

    int rc = 0;
    ModeRun first;
    auto pass = [&](bool streaming, const char *label) {
        job.traceStreaming = streaming;
        ModeRun run = runMode({job});
        const double rate = run.stats.refsPerSecond();
        std::cout << "  " << label << ": " << run.stats.wallSeconds
                  << " s wall, " << rate << " refs/s\n";
        if (first.dumps.empty())
            first = std::move(run);
        else if (!sameDumps(first, run, {job},
                            std::string("the first stream pass and ") +
                                label))
            rc = 1;
        return rate;
    };
    double bestStream = 0.0;
    double bestWarm = 0.0;
    for (int k = 0; k < kStreamPairs; ++k) {
        bestStream = std::max(bestStream, pass(true, "stream    "));
        if (k == 0) {
            std::cout << "  peak RSS after streaming: " << peakRssKb()
                      << " KiB\n";
            (void)pass(false, "arena cold");
        }
        bestWarm = std::max(bestWarm, pass(false, "arena warm"));
    }

    const auto streamRefs = static_cast<double>(first.stats.references);
    if (!smoke && streamRefs < targetRefs) {
        std::cerr << "benchspeed: FAIL: streamed run consumed "
                  << streamRefs << " references, below the "
                  << targetRefs << " target\n";
        rc = 1;
    }
    const double ratio = bestWarm > 0.0 ? bestStream / bestWarm : 0.0;
    std::cout << "  fastest stream / fastest warm arena pass = " << ratio
              << "\n";
    if (ratioFloor > 0.0 && ratio < ratioFloor) {
        std::cerr << "benchspeed: FAIL: streaming/arena ratio "
                  << ratio << " is below the floor " << ratioFloor
                  << "\n";
        rc = 1;
    }
    return rc;
}

/** Strict flag value in (0, @p max]; anything else exits 2 naming
 *  the flag. */
double
flagValue(const std::string &flag, const char *text,
          double max = HUGE_VAL)
{
    const auto v = parseDouble(text);
    if (!v || !(*v > 0.0 && *v <= max)) {
        std::cerr << "benchspeed: bad value '" << text << "' for "
                  << flag << "\n";
        std::exit(2);
    }
    return *v;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    bool mproc = false;
    bool stream = false;
    double floor = 0.0;
    double overheadPct = 0.0;
    double grefs = 0.0;
    double ratioFloor = 0.0;
    bool bad = false;
    for (int i = 1; i < argc && !bad; ++i) {
        const std::string arg = argv[i];
        if (arg == "--smoke") {
            smoke = true;
        } else if (arg == "--mproc") {
            mproc = true;
        } else if (arg == "--stream") {
            stream = true;
        } else if (i + 1 >= argc) {
            bad = true;
        } else if (arg == "--floor") {
            floor = flagValue(arg, argv[++i]);
        } else if (arg == "--overhead") {
            overheadPct = flagValue(arg, argv[++i]);
        } else if (arg == "--grefs") {
            grefs = flagValue(arg, argv[++i]);
        } else if (arg == "--ratio") {
            ratioFloor = flagValue(arg, argv[++i], 1.0);
        } else {
            bad = true;
        }
    }
    // Every gate flag belongs to one mode; elsewhere it would be
    // silently ignored.
    if (bad || (mproc && stream) ||
        (floor > 0.0 && (mproc || stream)) ||
        (overheadPct > 0.0 && !mproc) ||
        ((grefs > 0.0 || ratioFloor > 0.0) && !stream)) {
        std::cerr << "usage: benchspeed [--smoke] [--floor R]\n"
                     "       benchspeed --mproc [--smoke] "
                     "[--overhead PCT]\n"
                     "       benchspeed --stream [--smoke] "
                     "[--grefs G] [--ratio R]\n";
        return 2;
    }

    // Whatever escapes -- a failed point, a trace-file error -- is
    // caught here, so --stream's scratch directory is unwound and
    // removed on that path too.
    try {
        if (mproc)
            return runMprocBench(smoke, overheadPct);
        if (stream)
            return runStreamBench(smoke, grefs > 0.0 ? grefs : 2.5,
                                  ratioFloor);
        return runLadderBench(smoke, floor);
    } catch (const std::exception &err) {
        std::cerr << "benchspeed: " << err.what() << "\n";
        return 1;
    }
}
