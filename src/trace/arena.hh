/**
 * @file
 * TraceArena: a process-wide, immutable, thread-safe cache of
 * materialized reference streams.
 *
 * The paper replays the *same* trace tape against dozens of cache
 * configurations; a design-space sweep here should do the same
 * instead of re-running the synthetic generators inside every job.
 * The arena is that shared tape rack: the first job that needs N
 * references of a stream generates and publishes them once, every
 * other job replays a zero-copy view.
 *
 * Storage is the packed 4-byte reference word (trace/packed.hh),
 * filled through the generator's nextBatchPacked -- so every record
 * passes the ingest packer -- in fixed-size blocks whose pointer
 * table is sized up front from the stream's pass bound, so
 * published data never moves:
 *
 *  - readers are lock-free: they acquire-load the published length
 *    and walk contiguous memory (ArenaStream::readPacked);
 *  - growth is serialized per stream under a mutex and publishes by
 *    a release-store of the new length after the blocks are written
 *    (grow-on-demand with geometric high-water-mark chunks).
 *
 * Correctness contract: a stream's materialized content is exactly
 * the record sequence its generator would produce, so replay through
 * an ArenaSource is bit-identical to running the generator fresh.
 */

#ifndef GAAS_TRACE_ARENA_HH
#define GAAS_TRACE_ARENA_HH

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "trace/source.hh"

namespace gaas::trace
{

/** Arena activity counters of one thread (TraceArena::threadTally). */
struct ArenaTally
{
    /** Streams this scope materialized first (cache misses). */
    std::uint64_t streamsGenerated = 0;

    /** Stream acquisitions that found an existing entry (hits). */
    std::uint64_t streamsReused = 0;

    /** References generated and published. */
    std::uint64_t refsGenerated = 0;

    /** Host seconds spent inside generators (growth included). */
    double genSeconds = 0.0;
};

/**
 * One materialized reference stream: a single generator pass, packed
 * and published incrementally.  Created and owned by TraceArena;
 * consumers hold a raw pointer (entries are never evicted).
 */
class ArenaStream
{
  public:
    /**
     * @param key            the arena key (diagnostics)
     * @param pass_ref_bound exact upper bound on the records one
     *        generator pass can produce (2 * simInstructions for a
     *        SyntheticBenchmark: one Inst plus at most one data
     *        record per instruction); sizes the block table
     * @param factory        builds the generator, deferred to the
     *        first growth so stream creation is cheap under the
     *        arena map lock
     */
    ArenaStream(std::string key, std::size_t pass_ref_bound,
                std::function<std::unique_ptr<TraceSource>()> factory);
    ~ArenaStream();

    ArenaStream(const ArenaStream &) = delete;
    ArenaStream &operator=(const ArenaStream &) = delete;

    /**
     * Materialize at least min(@p want, pass length) references.
     * Returns immediately when they are already published; otherwise
     * takes the growth mutex and generates at least a geometric
     * chunk (so tight read loops do not ping the mutex per batch).
     * A generator error propagates, and so does every later growth.
     */
    void ensure(std::size_t want);

    /**
     * Copy up to @p n packed words (trace/packed.hh) starting at
     * @p pos into @p out, growing the stream on demand.  Returns
     * fewer than @p n only at the true end of the generator's pass.
     */
    std::size_t readPacked(std::size_t pos, std::uint32_t *out,
                           std::size_t n);

    /** References published so far (high-water mark). */
    std::size_t publishedRefs() const
    {
        return published.load(std::memory_order_acquire);
    }

    /** Pass length once the generator exhausted, else 0. */
    std::size_t passRefs() const;

    /** Bytes of packed block storage allocated so far. */
    std::size_t bytes() const;

    const std::string &key() const { return streamKey; }

  private:
    /** Packed references per block (1 MiB of 4-byte records). */
    static constexpr std::size_t kBlockRefs = std::size_t{1} << 18;

    /** Smallest growth chunk, so short runs do not generate one
     *  simulator batch per mutex acquisition. */
    static constexpr std::size_t kMinChunk = std::size_t{1} << 16;

    const std::string streamKey;
    const std::size_t passRefBound;
    const std::size_t blockCount;

    /** Block pointer table, fixed size; slots are written once under
     *  the growth mutex and read lock-free (the release-store of
     *  `published` orders them for readers). */
    std::vector<std::atomic<std::uint32_t *>> blocks;

    std::atomic<std::size_t> published{0};

    /** Pass length; SIZE_MAX until the generator exhausts.  Stored
     *  after `published`, so a reader that sees it also sees every
     *  record of the pass published. */
    std::atomic<std::size_t> passLen;

    std::atomic<std::size_t> allocatedBytes{0};

    /** @name Writer state (growMutex) */
    ///@{
    std::mutex growMutex;
    std::function<std::unique_ptr<TraceSource>()> factory;
    std::unique_ptr<TraceSource> generator;
    bool generatorMade = false;
    bool done = false;
    std::size_t total = 0; //!< writer's mirror of `published`
    /** The error a growth threw (a bad record, a corrupt file);
     *  every later growth rethrows it. */
    std::exception_ptr failure;
    ///@}
};

/**
 * The stream cache itself.  One global instance backs
 * core::Workload::standard; tests may build their own.
 */
class TraceArena
{
  public:
    TraceArena() = default;
    TraceArena(const TraceArena &) = delete;
    TraceArena &operator=(const TraceArena &) = delete;

    /** The process-wide arena. */
    static TraceArena &global();

    /**
     * Get or create the stream for @p key.  On creation @p ref_hint
     * references are materialized up front (clamped to the pass
     * bound); 0 defers all generation to first read.  The returned
     * pointer stays valid for the arena's lifetime.
     */
    ArenaStream *acquire(
        const std::string &key, std::size_t pass_ref_bound,
        std::size_t ref_hint,
        std::function<std::unique_ptr<TraceSource>()> factory);

    /** Total packed bytes across all streams. */
    std::size_t totalBytes() const;

    /**
     * @name Per-thread tally
     * The arena accumulates its counters into a thread-local slice,
     * so the sweep engine can attribute generation work to the job
     * that performed it.  resetThreadTally() zeroes the calling
     * thread's slice; threadTally() reads it.
     */
    ///@{
    static ArenaTally threadTally();
    static void resetThreadTally();
    ///@}

  private:
    mutable std::mutex mapMutex;
    std::unordered_map<std::string, std::unique_ptr<ArenaStream>>
        streams;
};

/**
 * A zero-copy replay view of one ArenaStream: a TraceSource that
 * walks the published records, growing the stream on demand, and
 * exhausts exactly where the generator's pass ends (wrap it in a
 * LoopSource for the standard looping workload, like any other
 * finite source).
 */
class ArenaSource : public TraceSource
{
  public:
    ArenaSource(ArenaStream *stream, std::string name);

    /** Unpacks one word: MemRef reads are for tests and tools. */
    bool next(MemRef &ref) override;
    std::size_t nextBatchPacked(std::uint32_t *out,
                                std::size_t n) override;

    /** True seek: materialize through the target position (the block
     *  table is immutable, so no records are copied) and advance the
     *  cursor, clamped to the pass end. */
    std::size_t skip(std::size_t n) override;

    void reset() override { pos = 0; }
    std::string name() const override { return label; }

  private:
    ArenaStream *stream;
    std::string label;
    std::size_t pos = 0;
};

} // namespace gaas::trace

#endif // GAAS_TRACE_ARENA_HH
