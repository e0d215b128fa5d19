#include "workloads.hh"

#include <algorithm>
#include <exception>
#include <filesystem>
#include <thread>

#include "core/config.hh"
#include "proc/executor.hh"
#include "synth/suite.hh"
#include "trace/compose.hh"
#include "trace/v3.hh"

namespace perfbench
{

using namespace gaas;

namespace
{

/** splitmix64 finalizer: a well-mixed 64-bit seed from any input. */
std::uint64_t
mixSeed(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Workload::standard's per-process reference estimate (same 30%
 *  slack), so prewarmed streams need no growth in the timed part. */
std::size_t
refHint(const std::vector<synth::BenchmarkSpec> &specs, std::size_t i,
        Count total_instr)
{
    double invSum = 0.0;
    for (const auto &s : specs)
        invSum += 1.0 / s.baseCpi;
    const auto &spec = specs[i];
    const double share = (1.0 / spec.baseCpi) / invSum;
    const double instr = share * static_cast<double>(total_instr);
    return static_cast<std::size_t>(
        instr * (1.0 + spec.loadFrac + spec.storeFrac) * 1.3);
}

/** Workload::standard's arena key for process @p i. */
std::string
streamKey(const synth::BenchmarkSpec &spec, unsigned mp, std::size_t i)
{
    return synth::specDigest(spec) + ":" + std::to_string(mp) + ":" +
           std::to_string(i);
}

/** Run @p body(i) for i in [0, n) on one thread each; rethrow the
 *  first failure after every thread joined. */
template <class Body>
void
parallelFor(std::size_t n, Body body)
{
    std::vector<std::exception_ptr> errors(n);
    std::vector<std::thread> threads;
    threads.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        threads.emplace_back([&, i] {
            try {
                body(i);
            } catch (...) {
                errors[i] = std::current_exception();
            }
        });
    }
    for (auto &t : threads)
        t.join();
    for (auto &e : errors) {
        if (e)
            std::rethrow_exception(e);
    }
}

/** Fig. 6's organisation axis: point i has organisation i % 4. */
struct Org
{
    const char *name;
    core::L2Org org;
    unsigned assoc;
    Cycles accessTime;
};

constexpr Org kOrgs[] = {
    {"unified-1w", core::L2Org::Unified, 1, 6},
    {"unified-2w", core::L2Org::Unified, 2, 7},
    {"split-1w", core::L2Org::LogicalSplit, 1, 6},
    {"split-2w", core::L2Org::LogicalSplit, 2, 7},
};

core::SystemConfig
ladderPoint(std::uint64_t size_words, const Org &org)
{
    core::SystemConfig cfg = core::afterWritePolicy();
    cfg.name = "l2-" + std::to_string(size_words / 1024) + "k-" +
               org.name;
    cfg.l2Org = org.org;
    cfg.l2.cache.sizeWords = size_words;
    cfg.l2.cache.assoc = org.assoc;
    cfg.l2.accessTime = org.accessTime;
    return cfg;
}

/** The 28-point Fig. 6 ladder: 16 KW..1 MW x 4 organisations. */
std::vector<core::SweepJob>
fig6Jobs(Count instructions, Count warmup, unsigned mp)
{
    std::vector<core::SweepJob> jobs;
    for (std::uint64_t size = 16 * 1024; size <= 1024 * 1024;
         size *= 2) {
        for (const Org &org : kOrgs) {
            core::SweepJob job;
            job.config = ladderPoint(size, org);
            job.mpLevel = mp;
            job.instructions = instructions;
            job.warmup = warmup;
            jobs.push_back(std::move(job));
        }
    }
    return jobs;
}

/** The largest-L2 direct-mapped unified point: its tag array is far
 *  beyond the host caches. */
core::SystemConfig
largestL2Point()
{
    return ladderPoint(1024 * 1024, kOrgs[0]);
}

struct Policy
{
    const char *name;
    core::WritePolicy policy;
};

/** Names follow the golden harness (fig5-invalidate-6cy, ...). */
constexpr Policy kPolicies[] = {
    {"write-back", core::WritePolicy::WriteBack},
    {"invalidate", core::WritePolicy::WriteMissInvalidate},
    {"write-only", core::WritePolicy::WriteOnly},
    {"subblock", core::WritePolicy::SubblockPlacement},
};

core::SystemConfig
writePolicyPoint(const Policy &policy, Cycles access)
{
    core::SystemConfig cfg =
        core::withWritePolicy(core::baseline(), policy.policy);
    cfg.l2.accessTime = access;
    cfg.name = std::string("fig5-") + policy.name + "-" +
               std::to_string(access) + "cy";
    return cfg;
}

/** Fig. 5 in shape: 5 L2 access times x 4 write policies. */
std::vector<core::SweepJob>
writePolicyJobs(Count instructions, Count warmup, unsigned mp)
{
    std::vector<core::SweepJob> jobs;
    for (const Cycles access : {2u, 4u, 6u, 8u, 10u}) {
        for (const Policy &policy : kPolicies) {
            core::SweepJob job;
            job.config = writePolicyPoint(policy, access);
            job.mpLevel = mp;
            job.instructions = instructions;
            job.warmup = warmup;
            jobs.push_back(std::move(job));
        }
    }
    return jobs;
}

unsigned
defaultWorkers()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return std::clamp(hw, 1u, kMaxWorkers);
}

/** A workload whose jobs replay ArenaInputs through custom
 *  builders. */
std::unique_ptr<Workload>
arenaWorkload(std::string name, std::vector<core::SweepJob> jobs,
              std::shared_ptr<ArenaInputs> inputs)
{
    auto w = std::make_unique<Workload>();
    w->name = std::move(name);
    w->workers = defaultWorkers();
    for (auto &job : jobs)
        job.workload = [inputs] { return inputs->workload(); };
    w->jobs = std::move(jobs);
    w->arenaInputs = std::move(inputs);
    return w;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "fig6-ladder", "write-policy", "trace-stream",
        "sampled-ladder"};
    return names;
}

std::vector<synth::BenchmarkSpec>
seededSpecs(unsigned mp, std::uint64_t seed)
{
    std::vector<synth::BenchmarkSpec> specs = synth::workloadSpecs(mp);
    if (seed != 0) {
        const std::uint64_t salt = mixSeed(seed);
        for (auto &spec : specs)
            spec.seed = mixSeed(spec.seed ^ salt);
    }
    return specs;
}

ArenaInputs::ArenaInputs(std::vector<synth::BenchmarkSpec> specs,
                         unsigned mp, Count instr_hint, bool global)
    : specList(std::move(specs)), mpLevel(mp), instrHint(instr_hint),
      useGlobal(global)
{}

void
ArenaInputs::rebuild(bool final)
{
    arena = nullptr;
    own.reset();
    if (useGlobal && final) {
        arena = &trace::TraceArena::global();
    } else {
        own = std::make_unique<trace::TraceArena>();
        arena = own.get();
    }
    parallelFor(specList.size(), [this](std::size_t i) {
        const synth::BenchmarkSpec &spec = specList[i];
        const std::size_t bound =
            2 * static_cast<std::size_t>(spec.simInstructions);
        arena
            ->acquire(streamKey(spec, mpLevel, i), bound, 0,
                      [spec] { return synth::makeBenchmark(spec); })
            ->ensure(instrHint == kWholePass
                         ? bound
                         : refHint(specList, i, instrHint));
    });
}

core::Workload
ArenaInputs::workload() const
{
    core::Workload wl;
    for (std::size_t i = 0; i < specList.size(); ++i) {
        const synth::BenchmarkSpec &spec = specList[i];
        trace::ArenaStream *stream = arena->acquire(
            streamKey(spec, mpLevel, i),
            2 * static_cast<std::size_t>(spec.simInstructions), 0,
            [spec] { return synth::makeBenchmark(spec); });
        wl.add(std::make_unique<trace::LoopSource>(
                   std::make_unique<trace::ArenaSource>(
                       stream, spec.name + "[arena]")),
               spec.baseCpi, spec.name);
    }
    return wl;
}

TraceFileInputs::TraceFileInputs(
    std::vector<synth::BenchmarkSpec> specs, std::string dir,
    double target_refs)
    : specList(std::move(specs))
{
    // Files follow the scheduler's instruction shares (1/baseCpi)
    // with 10% slack, and the budget covers target_refs even if
    // every instruction landed in the lowest-refs-per-instruction
    // process -- the sizing of the streaming demonstration run.
    double invSum = 0.0;
    double minRpi = 10.0;
    for (const auto &s : specList) {
        invSum += 1.0 / s.baseCpi;
        minRpi = std::min(minRpi, 1.0 + s.loadFrac + s.storeFrac);
    }
    totalInstr = static_cast<Count>(target_refs / minRpi * 1.02);
    for (std::size_t i = 0; i < specList.size(); ++i) {
        auto &spec = specList[i];
        const double share = (1.0 / spec.baseCpi) / invSum;
        spec.simInstructions = static_cast<Count>(
            share * static_cast<double>(totalInstr) * 1.1);
        files.push_back(dir + "/trace-" + std::to_string(i) + ".v3");
    }
    std::filesystem::create_directories(dir);
}

TraceFileInputs::~TraceFileInputs()
{
    for (const std::string &path : files) {
        std::error_code ec;
        std::filesystem::remove(path, ec);
    }
}

void
TraceFileInputs::rebuild()
{
    parallelFor(files.size(), [this](std::size_t i) {
        auto src = synth::makeBenchmark(specList[i]);
        trace::TraceV3Writer writer(files[i]);
        writer.writeAll(*src);
        writer.close();
    });
    for (const std::string &path : files)
        (void)trace::v3FileInfo(path); // validates header + seek table
}

void
Workload::setUp(bool final)
{
    if (arenaInputs)
        arenaInputs->rebuild(final);
    else
        fileInputs->rebuild();
}

std::size_t
Workload::arenaBytes() const
{
    return arenaInputs ? arenaInputs->bytes() : 0;
}

std::vector<std::string>
Workload::traceFiles() const
{
    return fileInputs ? fileInputs->paths() : std::vector<std::string>{};
}

const std::vector<synth::BenchmarkSpec> &
Workload::specs() const
{
    return arenaInputs ? arenaInputs->specs() : fileInputs->specs();
}

core::Workload
Workload::ladderWorkload() const
{
    return arenaInputs
               ? arenaInputs->workload()
               : core::Workload::fromTraceFiles(fileInputs->paths(), true);
}

Rep
Workload::run() const
{
    Rep rep;
    if (processes) {
        proc::MprocOptions opts;
        opts.workers = workers;
        rep.outcomes = proc::runSweepMproc(jobs, opts, &rep.stats);
    } else {
        rep.outcomes = core::runSweepOutcomes(jobs, workers, &rep.stats);
    }
    return rep;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed, Scale scale,
             const std::string &scratch_dir)
{
    const bool full = scale == Scale::Full;
    // Smoke budgets are the golden harness's (200k + 100k at mp 8),
    // so seed-0 smoke dumps can be checked against tests/golden.
    const Count smokeInstr = 200'000;
    const Count smokeWarm = 100'000;

    if (name == "fig6-ladder") {
        // Fig. 6's own budget: Sweep::addScaled(cfg, 4) over the
        // 4M + 2M instruction default.
        const Count instr = full ? 16'000'000 : smokeInstr;
        const Count warm = full ? 8'000'000 : smokeWarm;
        auto inputs = std::make_shared<ArenaInputs>(
            seededSpecs(8, seed), 8, instr + warm, false);
        auto w = arenaWorkload(name, fig6Jobs(instr, warm, 8), inputs);
        w->ladderConfig = largestL2Point();
        w->ladderWarmup = full ? 2'000'000 : 50'000;
        w->ladderInstructions = full ? 4'000'000 : 50'000;
        return w;
    }
    if (name == "write-policy") {
        // Fig. 5's budget: the 4M + 2M instruction default.
        const Count instr = full ? 4'000'000 : smokeInstr;
        const Count warm = full ? 2'000'000 : smokeWarm;
        auto inputs = std::make_shared<ArenaInputs>(
            seededSpecs(8, seed), 8, instr + warm, false);
        auto w = arenaWorkload(name, writePolicyJobs(instr, warm, 8),
                               inputs);
        w->processes = true;
        w->ladderConfig = writePolicyPoint(kPolicies[2], 6);
        w->ladderWarmup = full ? 2'000'000 : 50'000;
        w->ladderInstructions = full ? 4'000'000 : 50'000;
        return w;
    }
    if (name == "trace-stream") {
        auto inputs = std::make_shared<TraceFileInputs>(
            seededSpecs(8, seed), scratch_dir + "/trace-stream",
            full ? 48e6 : 2e6);
        core::SweepJob job;
        job.config = ladderPoint(256 * 1024, kOrgs[0]);
        job.instructions = inputs->instructions();
        job.traceFiles = inputs->paths();
        job.traceStreaming = true;

        auto w = std::make_unique<Workload>();
        w->name = name;
        w->workers = 1;
        w->jobs = {job};
        w->fileInputs = std::move(inputs);
        w->ladderConfig = job.config;
        w->ladderWarmup = full ? 1'000'000 : 50'000;
        w->ladderInstructions = full ? 4'000'000 : 50'000;
        return w;
    }
    if (name == "sampled-ladder") {
        // core::runSampled builds its own standard workload, so the
        // seed cannot reach it: this workload always runs seed 0,
        // prewarmed into the global arena the production path reads.
        const Count instr = full ? 16'000'000 : smokeInstr;
        const Count warm = full ? 8'000'000 : 20'000;
        const unsigned mp = full ? 8 : 4;
        core::SamplingConfig plan;
        plan.enabled = true;
        if (!full) {
            plan.measureInstructions = 2'000;
            plan.headInstructions = 4'000;
            plan.warmInstructions = 6'000;
            plan.minIntervals = 4;
            plan.maxIntervals = 8;
        }
        // Whole passes: fast-forward seeks need every stream's pass
        // end published before timing starts (see CATALOGUE.md,
        // "Known issues").
        auto inputs = std::make_shared<ArenaInputs>(
            seededSpecs(mp, 0), mp, ArenaInputs::kWholePass, true);
        auto jobs = fig6Jobs(instr, warm, mp);
        for (auto &job : jobs)
            job.sampling = plan;

        // No custom builders: a job with one would run full detail.
        auto w = std::make_unique<Workload>();
        w->name = name;
        w->seedPinned = true;
        w->workers = defaultWorkers();
        w->jobs = std::move(jobs);
        w->arenaInputs = std::move(inputs);
        w->ladderConfig = largestL2Point();
        w->ladderWarmup = full ? 2'000'000 : 50'000;
        w->ladderInstructions = full ? 4'000'000 : 50'000;
        return w;
    }
    return nullptr;
}

} // namespace perfbench
