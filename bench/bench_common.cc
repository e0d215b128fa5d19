#include "bench_common.hh"

#include <cctype>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <iomanip>
#include <limits>
#include <optional>
#include <iostream>
#include <sstream>

#include "core/journal.hh"
#include "core/stats_dump.hh"
#include "obs/json.hh"
#include "proc/executor.hh"
#include "util/env.hh"
#include "util/fault.hh"
#include "util/file_io.hh"
#include "util/logging.hh"

namespace gaas::bench
{

namespace
{

/** Shared command-line state (set once by init()). */
struct Options
{
    bool progress = false;
    bool sample = false;
    std::string statsJsonDir;
    std::string resumeDir;

    /** --mproc N given (overrides GAAS_BENCH_MPROC). */
    bool mprocSet = false;
    unsigned mproc = 0;

    /** statsJsonDir failed its init() probe: dumps are off and Ok
     *  points are downgraded to Degraded. */
    bool statsDirBroken = false;
};

Options options;

/** Finished points so far, process-wide (JSON filename prefix). */
std::size_t pointCounter = 0;

/** Finished sweeps so far, process-wide (sweep-NNN.json prefix). */
std::size_t sweepCounter = 0;

/** Failed points so far, process-wide (drives exitCode()). */
std::size_t failedPoints = 0;

/** Of those, points a SIGTERM/SIGINT drain cancelled before they
 *  started (exit 3). */
std::size_t cancelledPoints = 0;

std::string
csvDir()
{
    const char *dir = std::getenv("GAAS_BENCH_CSV_DIR");
    return dir && *dir ? dir : "bench_out";
}

[[noreturn]] void
usage(const char *prog, int exit_code)
{
    (exit_code == 0 ? std::cout : std::cerr)
        << "usage: " << prog
        << " [--progress] [--stats-json DIR] [--resume DIR]"
        << " [--sample] [--mproc N]\n"
        << "  --progress        stderr line per finished point\n"
        << "  --stats-json DIR  one JSON stats dump per point\n"
        << "  --resume DIR      journal points into DIR and skip\n"
        << "                    points an earlier run completed\n"
        << "  --sample          sampled simulation: each point\n"
        << "                    measures systematic intervals and\n"
        << "                    reports CPI with a 95% confidence\n"
        << "                    interval (GAAS_BENCH_SAMPLE_* knobs)\n"
        << "  --mproc N         run sweeps across N forked worker\n"
        << "                    processes instead of threads: a\n"
        << "                    crashed or hung worker costs one\n"
        << "                    requeue, not the run (0 disables;\n"
        << "                    GAAS_MPROC_* supervision knobs)\n";
    std::exit(exit_code);
}

/** Config names become filename stems; keep them path-safe. */
std::string
sanitizeName(const std::string &name)
{
    std::string out = name;
    for (char &c : out) {
        const unsigned char u = static_cast<unsigned char>(c);
        if (!std::isalnum(u) && c != '-' && c != '_' && c != '.')
            c = '-';
    }
    return out.empty() ? std::string("unnamed") : out;
}

/** First line of a (possibly multi-line) gaas_error message. */
std::string
firstLine(const std::string &text)
{
    const std::size_t nl = text.find('\n');
    return nl == std::string::npos ? text : text.substr(0, nl);
}

/**
 * Create-if-missing + probe-write the stats dump directory, once,
 * so a sweep never sprays one stderr line per point at a dead
 * filesystem.  Emits the single structured warning on failure.
 */
void
validateStatsDir()
{
    const std::string dir = statsJsonDir();
    if (dir.empty())
        return;

    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    std::string error;
    if (ec) {
        error = "cannot create " + dir + " (" + ec.message() + ")";
    } else if (!util::writeFileAtomic(dir + "/.probe", "", &error)) {
        // error already set by the probe write
    } else {
        std::remove((dir + "/.probe").c_str());
        return;
    }
    options.statsDirBroken = true;
    warn("stats dumps disabled [stats-io]: ", error,
         "; simulation continues, points will be marked degraded");
}

/**
 * SIGTERM/SIGINT: request a graceful drain.  The handler body is a
 * lone lock-free atomic store (async-signal-safe); the sweep engine
 * fails not-yet-started points with the stable `cancelled` code,
 * lets in-flight ones finish and journal, and the figure still
 * emits its (partial) CSVs before main() returns exitCode() == 3.
 */
extern "C" void
cancelSignalHandler(int)
{
    core::requestSweepCancel();
}

} // namespace

void
init(int argc, char **argv)
{
    const char *prog = argc > 0 ? argv[0] : "bench";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help") {
            usage(prog, 0);
        } else if (arg == "--progress") {
            options.progress = true;
        } else if (arg == "--sample") {
            options.sample = true;
        } else if (arg == "--stats-json") {
            if (i + 1 >= argc) {
                std::cerr << prog << ": --stats-json needs a "
                          << "directory argument\n";
                usage(prog, 2);
            }
            options.statsJsonDir = argv[++i];
        } else if (arg == "--resume") {
            if (i + 1 >= argc) {
                std::cerr << prog << ": --resume needs a "
                          << "directory argument\n";
                usage(prog, 2);
            }
            options.resumeDir = argv[++i];
        } else if (arg == "--mproc") {
            if (i + 1 >= argc) {
                std::cerr << prog
                          << ": --mproc needs a worker count\n";
                usage(prog, 2);
            }
            const std::optional<std::uint64_t> parsed =
                parseU64(argv[++i]);
            if (!parsed ||
                *parsed > std::numeric_limits<unsigned>::max()) {
                std::cerr << prog << ": --mproc: '" << argv[i]
                          << "' is not a valid worker count\n";
                usage(prog, 2);
            }
            options.mprocSet = true;
            options.mproc = static_cast<unsigned>(*parsed);
        } else {
            std::cerr << prog << ": unknown argument '" << arg
                      << "'\n";
            usage(prog, 2);
        }
    }
    std::signal(SIGTERM, cancelSignalHandler);
    std::signal(SIGINT, cancelSignalHandler);
    validateStatsDir();
}

unsigned
mprocWorkerCount()
{
    return options.mprocSet ? options.mproc : proc::mprocWorkers();
}

bool
progressEnabled()
{
    if (options.progress)
        return true;
    const char *env = std::getenv("GAAS_BENCH_PROGRESS");
    return env && *env && std::string_view(env) != "0";
}

std::string
statsJsonDir()
{
    if (!options.statsJsonDir.empty())
        return options.statsJsonDir;
    const char *env = std::getenv("GAAS_BENCH_STATS_DIR");
    return env && *env ? env : "";
}

std::string
resumeDir()
{
    if (!options.resumeDir.empty())
        return options.resumeDir;
    const char *env = std::getenv("GAAS_BENCH_RESUME");
    return env && *env ? env : "";
}

Cycles
watchdogBudget()
{
    return envU64("GAAS_BENCH_WATCHDOG", 0);
}

core::SamplingConfig
samplingPlan()
{
    core::SamplingConfig plan;
    if (!options.sample) {
        const char *env = std::getenv("GAAS_BENCH_SAMPLE");
        if (!env || !*env || std::string_view(env) == "0")
            return plan; // disabled: full-detail simulation
    }
    plan.enabled = true;
    plan.measureInstructions = envU64("GAAS_BENCH_SAMPLE_MEASURE",
                                      plan.measureInstructions);
    plan.headInstructions =
        envU64("GAAS_BENCH_SAMPLE_HEAD", plan.headInstructions);
    plan.warmInstructions =
        envU64("GAAS_BENCH_SAMPLE_WARM", plan.warmInstructions);
    plan.minIntervals =
        envU64("GAAS_BENCH_SAMPLE_MIN", plan.minIntervals);
    plan.maxIntervals =
        envU64("GAAS_BENCH_SAMPLE_MAX", plan.maxIntervals);
    plan.targetRelHalfWidth = envDouble("GAAS_BENCH_SAMPLE_TARGET",
                                        plan.targetRelHalfWidth);
    plan.warmingBiasRel =
        envDouble("GAAS_BENCH_SAMPLE_BIAS", plan.warmingBiasRel);
    return plan;
}

int
exitCode()
{
    // A signal that lands after the last point was dispatched
    // cancels nothing: the run is complete and exits as usual.
    if (cancelledPoints > 0)
        return 3; // graceful SIGTERM/SIGINT drain
    return failedPoints > 0 ? 1 : 0;
}

void
notePoint(core::SweepOutcome &outcome)
{
    // Test hook: simulate SIGKILL mid-sweep (no destructors, no
    // flushes) to prove the journal's per-record durability.
    if (fault::shouldFail("bench-kill"))
        std::_Exit(9);

    const std::size_t point = pointCounter++;
    const core::SimResult &result = outcome.result;

    if (outcome.status == core::PointStatus::Failed) {
        ++failedPoints;
        if (outcome.errorCode == ErrorCode::Cancelled)
            ++cancelledPoints;
        warn("point ", point, " (", result.configName, ") failed [",
             errorCodeName(outcome.errorCode),
             "]: ", firstLine(outcome.error));
        const std::string dir = statsJsonDir();
        if (!dir.empty() && !options.statsDirBroken) {
            obs::JsonValue doc = obs::JsonValue::object();
            doc.members.emplace_back(
                "config", obs::JsonValue::string(result.configName));
            doc.members.emplace_back(
                "status", obs::JsonValue::string("failed"));
            doc.members.emplace_back(
                "code", obs::JsonValue::string(
                            errorCodeName(outcome.errorCode)));
            doc.members.emplace_back(
                "error", obs::JsonValue::string(outcome.error));
            std::ostringstream name;
            name << std::setw(3) << std::setfill('0') << point << '-'
                 << sanitizeName(result.configName) << ".failed.json";
            std::string error;
            if (!util::writeFileAtomicRetry(
                    dir + "/" + name.str(), obs::writeJsonString(doc),
                    &error))
                warn("failure record: ", error);
        }
        return;
    }

    if (progressEnabled()) {
        std::ostringstream line;
        line << "[point " << std::setw(3) << std::setfill('0')
             << point << std::setfill(' ') << ' '
             << result.configName << ": cpi " << std::fixed
             << std::setprecision(4) << result.cpi();
        if (result.sampling.enabled()) {
            line << " (sampled " << result.sampling.cpiMean
                 << " +/- " << result.sampling.cpiHalfWidth << ", "
                 << result.sampling.intervals << " intervals)";
        }
        if (outcome.reused) {
            line << ", reused from journal";
        } else {
            line << ", sim " << std::setprecision(2)
                 << outcome.stats.simSeconds << " s, build "
                 << outcome.stats.buildSeconds << " s, queue "
                 << outcome.stats.queueWaitSeconds << " s, worker "
                 << outcome.stats.worker;
        }
        line << "]\n";
        std::cerr << line.str();
    }

    const std::string dir = statsJsonDir();
    if (!dir.empty()) {
        std::ostringstream name;
        name << std::setw(3) << std::setfill('0') << point << '-'
             << sanitizeName(result.configName) << ".json";
        const bool written =
            !options.statsDirBroken &&
            core::dumpStatsJsonFile(result, dir + "/" + name.str());
        if (!written && outcome.status == core::PointStatus::Ok)
            outcome.status = core::PointStatus::Degraded;
    }
}

std::string
cell(const core::SweepOutcome &outcome, double value, int precision)
{
    if (outcome.status == core::PointStatus::Failed) {
        return std::string("failed:") +
               errorCodeName(outcome.errorCode);
    }
    std::ostringstream os;
    os << std::fixed << std::setprecision(precision) << value;
    return os.str();
}

Count
instructionBudget()
{
    return envU64("GAAS_BENCH_INSTRUCTIONS", 4'000'000);
}

unsigned
mpLevel()
{
    return static_cast<unsigned>(envU64("GAAS_BENCH_MP", 8));
}

Count
warmupBudget()
{
    return envU64("GAAS_BENCH_WARMUP", instructionBudget() / 2);
}

std::size_t
Sweep::add(const core::SystemConfig &config)
{
    return add(config, mpLevel());
}

std::size_t
Sweep::add(const core::SystemConfig &config, unsigned mp_level)
{
    return add(config, mp_level, instructionBudget(), warmupBudget());
}

std::size_t
Sweep::addScaled(const core::SystemConfig &config, unsigned factor)
{
    return add(config, mpLevel(), instructionBudget() * factor,
               warmupBudget() * factor);
}

std::size_t
Sweep::add(const core::SystemConfig &config, unsigned mp_level,
           Count instructions, Count warmup)
{
    core::SweepJob job;
    job.config = config;
    job.mpLevel = mp_level;
    job.instructions = instructions;
    job.warmup = warmup;
    job.watchdogCycles = watchdogBudget();
    job.sampling = samplingPlan();
    jobs.push_back(std::move(job));
    return jobs.size() - 1;
}

namespace
{

/**
 * Write `<statsJsonDir()>/sweep-NNN.json`: the sweep-level telemetry
 * (wall clock, dispositions, arena activity) next to the per-point
 * dumps.  Timings and arena hit counts are host-dependent, so resume
 * comparisons must exclude these files (tests diff with
 * `-x 'sweep-*.json'`).  A failed write only warns -- the sweep's
 * simulation results are untouched.
 */
void
dumpSweepStats(const core::SweepStats &stats)
{
    const std::string dir = statsJsonDir();
    if (dir.empty() || options.statsDirBroken)
        return;
    const std::size_t sweep = sweepCounter++;

    auto num = [](double v) { return obs::JsonValue::number(v); };
    obs::JsonValue doc = obs::JsonValue::object();
    doc.members.emplace_back(
        "jobs", num(static_cast<double>(stats.jobs)));
    doc.members.emplace_back(
        "workers", num(static_cast<double>(stats.workers)));
    doc.members.emplace_back("wall_seconds",
                             num(stats.wallSeconds));
    doc.members.emplace_back(
        "references", num(static_cast<double>(stats.references)));
    doc.members.emplace_back("refs_per_second",
                             num(stats.refsPerSecond()));
    doc.members.emplace_back(
        "ok_points", num(static_cast<double>(stats.okPoints)));
    doc.members.emplace_back(
        "failed_points",
        num(static_cast<double>(stats.failedPoints)));
    doc.members.emplace_back(
        "degraded_points",
        num(static_cast<double>(stats.degradedPoints)));
    doc.members.emplace_back(
        "reused_points",
        num(static_cast<double>(stats.reusedPoints)));
    doc.members.emplace_back("mproc",
                             num(stats.mproc ? 1.0 : 0.0));
    doc.members.emplace_back(
        "worker_respawns",
        num(static_cast<double>(stats.workerRespawns)));
    doc.members.emplace_back(
        "requeued_jobs",
        num(static_cast<double>(stats.requeuedJobs)));

    obs::JsonValue arena = obs::JsonValue::object();
    arena.members.emplace_back(
        "streams_generated",
        num(static_cast<double>(stats.arenaStreamsGenerated)));
    arena.members.emplace_back(
        "streams_reused",
        num(static_cast<double>(stats.arenaStreamsReused)));
    arena.members.emplace_back(
        "refs_generated",
        num(static_cast<double>(stats.arenaRefsGenerated)));
    arena.members.emplace_back("gen_seconds",
                               num(stats.arenaGenSeconds));
    arena.members.emplace_back(
        "bytes", num(static_cast<double>(stats.arenaBytes)));
    doc.members.emplace_back("arena", std::move(arena));

    std::ostringstream name;
    name << "sweep-" << std::setw(3) << std::setfill('0') << sweep
         << ".json";
    std::string error;
    if (!util::writeFileAtomicRetry(dir + "/" + name.str(),
                                    obs::writeJsonString(doc),
                                    &error))
        warn("sweep stats dump: ", error);
}

} // namespace

std::vector<core::SweepOutcome>
Sweep::run()
{
    core::RunJournal journal;
    core::RunJournal *journal_ptr = nullptr;
    const std::string dir = resumeDir();
    if (!dir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(dir, ec);
        std::string error;
        bool opened = false;
        try {
            opened = journal.open(dir + "/sweep_journal.jsonl",
                                  &error);
        } catch (const SimError &e) {
            // Another live process holds this resume directory
            // (flock).  Two writers would interleave journal
            // records; refuse loudly with a distinct exit code
            // instead of corrupting a resumable run.
            warn("resume refused [", errorCodeName(e.code()),
                 "]: ", firstLine(e.what()));
            std::exit(4);
        }
        if (opened) {
            journal_ptr = &journal;
            if (journal.loadedRecords() > 0) {
                std::cout << "[resume: " << journal.loadedRecords()
                          << " journaled point(s) in " << dir
                          << "]\n";
            }
        } else {
            warn("resume disabled [stats-io]: ", error);
        }
    }

    core::SweepStats stats;
    const core::SweepProgress note =
        [](std::size_t, core::SweepOutcome &outcome) {
            notePoint(outcome);
        };
    const unsigned mproc = mprocWorkerCount();
    std::vector<core::SweepOutcome> outcomes;
    if (mproc > 0) {
        proc::MprocOptions opts = proc::MprocOptions::fromEnv();
        opts.workers = mproc;
        outcomes = proc::runSweepMproc(jobs, opts, &stats, note,
                                       journal_ptr);
    } else {
        outcomes = core::runSweepOutcomes(jobs, 0, &stats, note,
                                          journal_ptr);
    }
    jobs.clear();
    std::cout << "[sweep: " << stats.jobs << " configs on "
              << stats.workers
              << (stats.mproc ? " worker process(es), "
                              : " worker(s), ")
              << std::fixed
              << std::setprecision(2) << stats.wallSeconds
              << " s wall, " << std::setprecision(0)
              << stats.refsPerSecond() << " refs/s aggregate; "
              << stats.okPoints << " ok, " << stats.failedPoints
              << " failed, " << stats.degradedPoints
              << " degraded, " << stats.reusedPoints << " reused";
    if (stats.mproc) {
        std::cout << "; " << stats.workerRespawns << " respawn(s), "
                  << stats.requeuedJobs << " requeue(s)";
    }
    if (stats.arenaStreamsGenerated + stats.arenaStreamsReused > 0) {
        std::cout << "; arena " << stats.arenaStreamsGenerated
                  << " gen / " << stats.arenaStreamsReused
                  << " reused, " << std::setprecision(1)
                  << static_cast<double>(stats.arenaBytes) /
                         (1024.0 * 1024.0)
                  << " MB, " << std::setprecision(2)
                  << stats.arenaGenSeconds << " s gen";
    }
    std::cout << "]\n" << std::defaultfloat << '\n';
    dumpSweepStats(stats);
    return outcomes;
}

void
emit(const stats::Table &table, const std::string &name)
{
    table.print(std::cout);
    // writeCsv creates the parent directory itself; a failed write
    // must be loud on stdout (not just a suppressible warn) -- the
    // CSVs are the figures' product, and a silently missing one
    // reads as "nothing changed" to any diff-based consumer.
    const std::string path = csvDir() + "/" + name + ".csv";
    if (table.writeCsv(path))
        std::cout << "[csv: " << path << "]\n";
    else
        std::cout << "[csv FAILED: " << path << "]\n";
    std::cout << '\n';
}

void
banner(const std::string &figure, const std::string &caption)
{
    std::cout << "=== " << figure << ": " << caption << " ===\n"
              << "workload: MP level " << mpLevel() << ", "
              << instructionBudget() << " instructions per point, "
              << core::sweepWorkers() << " sweep worker(s)\n\n";
}

} // namespace gaas::bench
