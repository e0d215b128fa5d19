#include "layers.hh"

#include <filesystem>

#include "cache/tag_store.hh"
#include "core/cache_system.hh"
#include "core/simulator.hh"
#include "mem/write_buffer.hh"
#include "mmu/mmu.hh"
#include "synth/benchmark.hh"
#include "trace/arena.hh"
#include "trace/compose.hh"
#include "trace/packed.hh"
#include "trace/stream.hh"
#include "trace/v3.hh"
#include "util/error.hh"

namespace perfbench
{

using namespace gaas;
namespace packed = trace::packed;

namespace
{

/** Timed passes per step; each step reports the median. */
constexpr int kPasses = 5;

/** References per source call: the simulator's refill batch. */
constexpr std::size_t kBatch = 256;

/** Fast-forward / skip gap per process, in references. */
constexpr std::size_t kGap = std::size_t{1} << 16;

/** Keeps the timed loops' results observable. */
volatile std::uint64_t g_sink = 0;

/** Median seconds of kPasses calls of @p body after one untimed
 *  call (which lets caches, TLBs and lazy state settle). */
template <class Body>
double
timedMedian(Body body)
{
    body();
    std::vector<double> secs;
    for (int i = 0; i < kPasses; ++i) {
        const obs::Stopwatch clock;
        body();
        secs.push_back(clock.seconds());
    }
    return median(secs);
}

double
nsPer(double seconds, double count)
{
    return count > 0.0 ? seconds * 1e9 / count : 0.0;
}

/** The captured stream: packed words in consumption order, with the
 *  process each word belongs to. */
struct Capture
{
    std::vector<std::uint32_t> words;
    std::vector<Pid> pids;
    std::size_t processes = 0;
    bool packable = true;

    std::vector<std::vector<trace::MemRef>>
    perProcess() const
    {
        std::vector<std::vector<trace::MemRef>> out(processes);
        for (std::size_t i = 0; i < words.size(); ++i)
            out[pids[i]].push_back(packed::unpack(words[i]));
        return out;
    }
};

/** Pass-through source that appends what the simulator pulls while
 *  recording is on (refill batches, in consumption order). */
class RecordingSource final : public trace::TraceSource
{
  public:
    RecordingSource(std::unique_ptr<trace::TraceSource> inner, Pid pid,
                    Capture &cap, const bool &on)
        : inner(std::move(inner)), pid(pid), cap(cap), on(on)
    {}

    bool
    next(trace::MemRef &ref) override
    {
        if (!inner->next(ref))
            return false;
        record(&ref, 1);
        return true;
    }

    std::size_t
    nextBatch(trace::MemRef *out, std::size_t n) override
    {
        const std::size_t got = inner->nextBatch(out, n);
        record(out, got);
        return got;
    }

    std::size_t
    nextBatchPacked(std::uint32_t *out, std::size_t n) override
    {
        const std::size_t got = inner->nextBatchPacked(out, n);
        if (got != kNoPacked && on) {
            cap.words.insert(cap.words.end(), out, out + got);
            cap.pids.insert(cap.pids.end(), got, pid);
        }
        return got;
    }

    std::size_t skip(std::size_t n) override { return inner->skip(n); }
    void reset() override { inner->reset(); }
    std::string name() const override { return inner->name(); }

  private:
    void
    record(const trace::MemRef *refs, std::size_t n)
    {
        if (!on)
            return;
        for (std::size_t i = 0; i < n; ++i) {
            if (!packed::packable(refs[i])) {
                cap.packable = false;
                continue;
            }
            cap.words.push_back(packed::pack(refs[i]));
            cap.pids.push_back(pid);
        }
    }

    std::unique_ptr<trace::TraceSource> inner;
    Pid pid;
    Capture &cap;
    const bool &on;
};

/** Simulate the ladder point through its warmup, then record the
 *  next ladderInstructions' references. */
Capture
capture(const Workload &w)
{
    Capture cap;
    bool on = false;
    core::Workload inner = w.ladderWorkload();
    core::Workload recorded;
    for (core::Process &p : inner.take()) {
        recorded.add(std::make_unique<RecordingSource>(
                         std::move(p.source), p.pid, cap, on),
                     p.baseCpi, p.name);
    }
    cap.processes = recorded.size();
    core::Simulator sim(w.ladderConfig, std::move(recorded));
    sim.run(w.ladderWarmup, 0);
    on = true;
    sim.run(w.ladderInstructions, 0);
    if (!cap.packable || cap.words.empty())
        gaas_error(ErrorCode::Internal,
                   "layer ladder: the captured stream is empty or not "
                   "packable");
    return cap;
}

template <class Src>
std::uint64_t
drainPacked(Src &src)
{
    std::uint32_t buf[kBatch];
    std::uint64_t n = 0;
    std::uint64_t x = 0;
    for (;;) {
        const std::size_t got = src.nextBatchPacked(buf, kBatch);
        if (got == trace::TraceSource::kNoPacked)
            gaas_error(ErrorCode::Internal,
                       "layer ladder: source has no packed path");
        n += got;
        if (got > 0)
            x ^= buf[0];
        if (got < kBatch)
            break;
    }
    g_sink = x;
    return n;
}

/** Tag probe as a cache would make it: touch on a hit, allocate on a
 *  miss.  @return true on a hit. */
bool
probe(cache::TagStore &store, Addr paddr)
{
    const cache::TagStore::LineIndex idx = store.lookup(paddr);
    if (idx != cache::TagStore::npos) {
        store.touchIdx(idx);
        return true;
    }
    cache::Eviction evicted;
    store.allocateIdx(paddr, evicted);
    return false;
}

/** One pass of the captured stream through the CacheSystem's access
 *  path @p Spec, advancing @p now by each access's cycles. */
template <class Spec>
void
accessPass(core::CacheSystem &sys, const Capture &cap, Cycles &now)
{
    for (std::size_t i = 0; i < cap.words.size(); ++i) {
        const std::uint32_t w = cap.words[i];
        const Pid pid = cap.pids[i];
        const Addr a = packed::addrOf(w);
        switch (packed::kindOf(w)) {
          case trace::RefKind::Inst:
            now += 1 + sys.ifetchT<Spec>(now, pid, a);
            break;
          case trace::RefKind::Load:
            now += sys.loadT<Spec>(now, pid, a);
            break;
          case trace::RefKind::Store:
            now += sys.storeT<Spec>(now, pid, a, packed::flagOf(w));
            break;
        }
    }
}

using AccessPass = void (*)(core::CacheSystem &, const Capture &,
                            Cycles &);

template <bool Dm>
AccessPass
accessPassFor(core::WritePolicy policy)
{
    using core::FastAccessSpec;
    using core::WritePolicy;
    switch (policy) {
      case WritePolicy::WriteBack:
        return accessPass<FastAccessSpec<Dm, WritePolicy::WriteBack>>;
      case WritePolicy::WriteMissInvalidate:
        return accessPass<
            FastAccessSpec<Dm, WritePolicy::WriteMissInvalidate>>;
      case WritePolicy::WriteOnly:
        return accessPass<FastAccessSpec<Dm, WritePolicy::WriteOnly>>;
      case WritePolicy::SubblockPlacement:
        return accessPass<
            FastAccessSpec<Dm, WritePolicy::SubblockPlacement>>;
    }
    return accessPass<core::GenericAccessSpec>;
}

/** The access spec Simulator selects for @p cfg: specialized when
 *  both L1s share one geometry class, generic otherwise. */
AccessPass
pickAccessPass(const core::SystemConfig &cfg)
{
    const bool dm = cfg.l1i.assoc == 1 && cfg.l1d.assoc == 1;
    const bool sa = cfg.l1i.assoc > 1 && cfg.l1d.assoc > 1;
    if (dm)
        return accessPassFor<true>(cfg.writePolicy);
    if (sa)
        return accessPassFor<false>(cfg.writePolicy);
    return accessPass<core::GenericAccessSpec>;
}

/** The write buffer CacheSystem builds for @p cfg. */
mem::WriteBufferConfig
writeBufferConfig(const core::SystemConfig &cfg)
{
    mem::WriteBufferConfig wb;
    wb.depth = cfg.wbDepth;
    wb.entryWords = cfg.wbEntryWords;
    wb.drainCycles = cfg.l2DataSide().accessTime;
    wb.streamOverlap =
        std::min<Cycles>(cfg.wbStreamOverlap, wb.drainCycles - 1);
    return wb;
}

} // namespace

Metrics
runLadder(const Workload &w, SpanLog &log, const std::string &scratch_dir)
{
    ScopedSpan ladderSpan(&log, "ladder");
    const core::SystemConfig &cfg = w.ladderConfig;

    Capture cap;
    {
        ScopedSpan span(&log, "ladder.capture");
        cap = capture(w);
    }
    const std::size_t refs = cap.words.size();
    const auto perProcess = cap.perProcess();

    // Replay: the captured per-process streams in a private arena.
    double replayS = 0.0, skipS = 0.0, skippedRefs = 0.0;
    {
        trace::TraceArena arena;
        std::vector<trace::ArenaStream *> streams;
        for (std::size_t p = 0; p < perProcess.size(); ++p) {
            const auto &refsOf = perProcess[p];
            if (refsOf.empty())
                continue;
            streams.push_back(arena.acquire(
                "capture:" + std::to_string(p), refsOf.size(),
                refsOf.size(), [refsOf] {
                    return std::make_unique<trace::VectorSource>(
                        "capture", refsOf);
                }));
        }
        {
            ScopedSpan span(&log, "layer.trace.replay");
            replayS = timedMedian([&] {
                for (trace::ArenaStream *s : streams) {
                    trace::ArenaSource src(s, "replay");
                    drainPacked(src);
                }
            });
        }

        // Skip: LoopSource seeks over the same arena streams, the
        // fast-forward path of sampled simulation.
        ScopedSpan span(&log, "layer.trace.skip");
        std::vector<std::unique_ptr<trace::LoopSource>> loops;
        for (trace::ArenaStream *s : streams)
            loops.push_back(std::make_unique<trace::LoopSource>(
                std::make_unique<trace::ArenaSource>(s, "skip")));
        constexpr int kSkips = 256;
        skipS = timedMedian([&] {
            for (auto &loop : loops) {
                for (int k = 0; k < kSkips; ++k)
                    loop->skip(kGap);
            }
        });
        skippedRefs = static_cast<double>(kSkips) * kGap *
                      static_cast<double>(loops.size());
    }

    // Encode / decode: the same streams as v3 files.
    double encodeS = 0.0, decodeS = 0.0, bufferBytes = 0.0;
    {
        const std::string dir = scratch_dir + "/ladder";
        std::filesystem::create_directories(dir);
        std::vector<std::string> paths;
        std::vector<std::unique_ptr<trace::VectorSource>> sources;
        for (std::size_t p = 0; p < perProcess.size(); ++p) {
            if (perProcess[p].empty())
                continue;
            paths.push_back(dir + "/capture-" + std::to_string(p) +
                            ".v3");
            sources.push_back(std::make_unique<trace::VectorSource>(
                "capture", perProcess[p]));
        }
        {
            ScopedSpan span(&log, "layer.trace.encode");
            encodeS = timedMedian([&] {
                for (std::size_t i = 0; i < paths.size(); ++i) {
                    sources[i]->reset();
                    trace::TraceV3Writer writer(paths[i]);
                    writer.writeAll(*sources[i]);
                    writer.close();
                }
            });
        }
        // The workload's one streaming ceiling, split across its
        // streams as Workload::fromTraceFiles does.
        const std::vector<std::string> files = w.traceFiles();
        const std::vector<std::string> &streamed =
            files.empty() ? paths : files;
        trace::StreamOptions options;
        options.memoryBudgetBytes =
            (trace::kStreamBudgetDefaultMb << 20) / streamed.size();
        {
            ScopedSpan span(&log, "layer.trace.decode");
            trace::StreamOptions captureOptions;
            captureOptions.memoryBudgetBytes =
                (trace::kStreamBudgetDefaultMb << 20) / paths.size();
            decodeS = timedMedian([&] {
                for (const std::string &path : paths) {
                    trace::StreamSource src(path, captureOptions);
                    drainPacked(src);
                }
            });
        }
        for (const std::string &path : streamed)
            bufferBytes += static_cast<double>(
                trace::StreamSource(path, options).bufferBytes());
    }

    // Synth: the workload's own generators, drained in batches.
    double genS = 0.0, genRefs = 0.0;
    {
        ScopedSpan span(&log, "layer.synth.gen");
        std::vector<std::unique_ptr<trace::TraceSource>> gens;
        for (const auto &spec : w.specs())
            gens.push_back(synth::makeBenchmark(spec));
        const std::size_t perGen =
            std::max(refs / gens.size(), kBatch);
        std::vector<trace::MemRef> buf(kBatch);
        genS = timedMedian([&] {
            for (auto &gen : gens) {
                for (std::size_t done = 0; done < perGen;) {
                    const std::size_t got =
                        gen->nextBatch(buf.data(), kBatch);
                    if (got < kBatch)
                        gen->reset();
                    done += got;
                }
            }
            g_sink = buf[0].addr;
        });
        genRefs = static_cast<double>(perGen * gens.size());
    }

    // The stream split by side.  The I- and D-side TLBs and L1s are
    // separate objects, so each side's sub-stream keeps its exact
    // access order while the kernels below run without a
    // per-reference kind branch.
    struct Side
    {
        std::vector<std::size_t> at; //!< position in the capture
        std::vector<Pid> pids;
        std::vector<Addr> vaddr;
        std::vector<Addr> paddr;
    };
    Side inst, data;
    for (std::size_t i = 0; i < refs; ++i) {
        Side &side = packed::isInst(cap.words[i]) ? inst : data;
        side.at.push_back(i);
        side.pids.push_back(cap.pids[i]);
        side.vaddr.push_back(packed::addrOf(cap.words[i]));
    }
    inst.paddr.resize(inst.at.size());
    data.paddr.resize(data.at.size());

    // MMU over the virtual stream.
    double mmuS = 0.0;
    {
        ScopedSpan span(&log, "layer.mmu.translate");
        mmu::Mmu unit(cfg.mmu);
        mmuS = timedMedian([&] {
            for (std::size_t j = 0; j < inst.at.size(); ++j)
                inst.paddr[j] =
                    unit.translateInst(inst.pids[j], inst.vaddr[j]).paddr;
            for (std::size_t j = 0; j < data.at.size(); ++j)
                data.paddr[j] =
                    unit.translateData(data.pids[j], data.vaddr[j]).paddr;
        });
    }
    std::vector<Addr> paddr(refs);
    for (const Side *side : {&inst, &data}) {
        for (std::size_t j = 0; j < side->at.size(); ++j)
            paddr[side->at[j]] = side->paddr[j];
    }

    // L1 tags over the physical stream; its misses feed L2.
    std::vector<std::uint8_t> l1Miss(refs);
    double l1S = 0.0;
    {
        ScopedSpan span(&log, "layer.cache.l1");
        cache::TagStore l1i(cfg.l1i, "L1-I");
        cache::TagStore l1d(cfg.l1d, "L1-D");
        auto pass = [&](cache::TagStore &store, const Side &side) {
            std::uint64_t hits = 0;
            for (std::size_t j = 0; j < side.at.size(); ++j) {
                const bool hit = probe(store, side.paddr[j]);
                l1Miss[side.at[j]] = !hit;
                hits += hit;
            }
            return hits;
        };
        l1S = timedMedian(
            [&] { g_sink = pass(l1i, inst) + pass(l1d, data); });
    }

    // L2 tags over the L1 miss stream, per L2 array in miss order.
    double l2S = 0.0;
    std::size_t l2Probes = 0;
    {
        ScopedSpan span(&log, "layer.cache.l2");
        std::vector<cache::TagStore> stores;
        switch (cfg.l2Org) {
          case core::L2Org::Unified:
            stores.emplace_back(cfg.l2.cache, "L2");
            break;
          case core::L2Org::LogicalSplit: {
            cache::CacheConfig half = cfg.l2.cache;
            half.sizeWords /= 2;
            stores.emplace_back(half, "L2-I(half)");
            stores.emplace_back(half, "L2-D(half)");
            break;
          }
          case core::L2Org::PhysicalSplit:
            stores.emplace_back(cfg.l2i.cache, "L2-I");
            stores.emplace_back(cfg.l2d.cache, "L2-D");
            break;
        }
        std::vector<std::vector<Addr>> missStreams(stores.size());
        for (std::size_t i = 0; i < refs; ++i) {
            if (!l1Miss[i])
                continue;
            const std::size_t s =
                stores.size() == 1 || packed::isInst(cap.words[i]) ? 0
                                                                   : 1;
            missStreams[s].push_back(paddr[i]);
            ++l2Probes;
        }
        l2S = timedMedian([&] {
            std::uint64_t hits = 0;
            for (std::size_t s = 0; s < stores.size(); ++s) {
                for (const Addr a : missStreams[s])
                    hits += probe(stores[s], a);
            }
            g_sink = hits;
        });
    }

    // Write buffer: a push per store and a full drain per L1-D read
    // miss, with two cycles per instruction between them.
    double wbS = 0.0;
    std::size_t wbOps = 0;
    {
        ScopedSpan span(&log, "layer.mem.write_buffer");
        struct WbOp
        {
            Addr addr;
            Cycles gap;
            bool push;
        };
        std::vector<WbOp> ops;
        Cycles gap = 0;
        for (std::size_t i = 0; i < refs; ++i) {
            switch (packed::kindOf(cap.words[i])) {
              case trace::RefKind::Inst:
                gap += 2;
                break;
              case trace::RefKind::Store:
                ops.push_back({paddr[i], gap, true});
                gap = 0;
                break;
              case trace::RefKind::Load:
                if (l1Miss[i]) {
                    ops.push_back({paddr[i], gap, false});
                    gap = 0;
                }
                break;
            }
        }
        wbOps = ops.size();
        mem::WriteBuffer wb(writeBufferConfig(cfg));
        Cycles now = 0;
        wbS = timedMedian([&] {
            for (const WbOp &op : ops) {
                now += op.gap;
                now += op.push ? wb.push(now, op.addr) : wb.drainAll(now);
            }
        });
    }

    // The whole memory side on the virtual stream.
    double accessS = 0.0;
    {
        ScopedSpan span(&log, "layer.core.access");
        core::CacheSystem sys(cfg);
        const AccessPass pass = pickAccessPass(cfg);
        Cycles now = 0;
        accessS = timedMedian([&] { pass(sys, cap, now); });
    }

    // The simulator itself, and its sampling hooks, on the same point.
    std::vector<double> simNs, warmNs, ffNs;
    {
        ScopedSpan span(&log, "layer.core.simulator");
        core::Workload wl = w.ladderWorkload();
        const std::size_t procs = wl.size();
        core::Simulator sim(cfg, std::move(wl));
        sim.run(w.ladderWarmup, 0);
        const Count n = w.ladderInstructions;
        for (int k = 0; k < kPasses; ++k) {
            sim.resetMeasurement();
            const obs::Stopwatch clock;
            const core::SimResult r = sim.run(n, 0);
            simNs.push_back(nsPer(clock.seconds(),
                                  static_cast<double>(r.references())));
        }
        for (int k = 0; k < kPasses; ++k) {
            const obs::Stopwatch clock;
            sim.runWarm(n);
            warmNs.push_back(
                nsPer(clock.seconds(), static_cast<double>(n)));
        }
        for (int k = 0; k < kPasses; ++k) {
            const obs::Stopwatch clock;
            sim.fastForward(std::vector<Count>(procs, kGap));
            ffNs.push_back(nsPer(clock.seconds(),
                                 static_cast<double>(kGap * procs)));
        }
    }

    const double n = static_cast<double>(refs);
    const double replayNs = nsPer(replayS, n);
    const double decodeNs = nsPer(decodeS, n);
    const double mmuNs = nsPer(mmuS, n);
    const double l1Ns = nsPer(l1S, n);
    const double l2PerRef = nsPer(l2S, n);
    const double wbPerRef = nsPer(wbS, n);
    const double accessNs = nsPer(accessS, n);
    const double simNsPerRef = median(simNs);

    return {
        {"trace.replay_ns_per_ref", replayNs, "ns/ref"},
        {"trace.decode_ns_per_ref", decodeNs, "ns/ref"},
        {"trace.skip_ns_per_ref", nsPer(skipS, skippedRefs), "ns/ref"},
        {"trace.encode_ns_per_ref", nsPer(encodeS, n), "ns/ref"},
        {"trace.stream_buffer_mib", bufferBytes / (1 << 20), "MiB"},
        {"synth.gen_ns_per_ref", nsPer(genS, genRefs), "ns/ref"},
        {"mmu.translate_ns", mmuNs, "ns"},
        {"cache.l1_probe_ns", l1Ns, "ns"},
        {"cache.l2_probe_ns",
         nsPer(l2S, static_cast<double>(l2Probes)), "ns"},
        {"mem.wb_push_ns", nsPer(wbS, static_cast<double>(wbOps)),
         "ns"},
        {"core.access_ns_per_ref", accessNs, "ns/ref"},
        {"core.sim_ns_per_ref", simNsPerRef, "ns/ref"},
        {"core.sched_ns_per_ref", simNsPerRef - accessNs - replayNs,
         "ns/ref"},
        {"sampling.warm_ns_per_instr", median(warmNs), "ns/instr"},
        {"sampling.ff_ns_per_ref", median(ffNs), "ns/ref"},
        {"layers.unattributed_ns_per_ref",
         accessNs - mmuNs - l1Ns - l2PerRef - wbPerRef, "ns/ref"},
    };
}

} // namespace perfbench
