/**
 * @file
 * The TraceSource interface: a resettable stream of MemRef records.
 *
 * The paper's "file descriptor multiplexor" mapped each benchmark's
 * pixie output to one input descriptor of the cache simulator; here
 * each benchmark (synthetic model or trace file) is one TraceSource
 * and the workload layer multiplexes among them.
 *
 * Sources produce lossless MemRefs (next, nextBatch) for the file
 * tools.  The simulator reads only packed words (nextBatchPacked),
 * which the base class makes with packed::canonical().
 */

#ifndef GAAS_TRACE_SOURCE_HH
#define GAAS_TRACE_SOURCE_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "trace/memref.hh"
#include "trace/packed.hh"

namespace gaas::trace
{

/** An abstract, resettable stream of memory references. */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /**
     * Produce the next reference.
     *
     * @param ref filled in on success
     * @retval true a record was produced
     * @retval false the trace is exhausted (ref is unchanged)
     */
    virtual bool next(MemRef &ref) = 0;

    /**
     * Produce up to @p n references into @p out.
     *
     * Exists so hot consumers (the Simulator's per-process refill
     * buffer) pay one virtual call per batch instead of one per
     * reference.  The records produced must be exactly the records n
     * calls to next() would have produced; overriders (the synthetic
     * generator, the compose adapters) only change the dispatch cost,
     * never the stream.
     *
     * @return the number of records produced; less than @p n only
     *         when the trace is exhausted
     */
    virtual std::size_t
    nextBatch(MemRef *out, std::size_t n)
    {
        std::size_t produced = 0;
        while (produced < n && next(out[produced]))
            ++produced;
        return produced;
    }

    /** No source returns this from nextBatchPacked().  It stays only
     *  because perfbench's layer ladder still compares against it,
     *  and goes when that check does. */
    static constexpr std::size_t kNoPacked = ~std::size_t{0};

    /**
     * The simulator's input: produce up to @p n records as packed
     * 4-byte words (trace/packed.hh) -- the records nextBatch()
     * would produce, each passed through packed::canonical().  This
     * base version pulls nextBatch() in fixed chunks and packs them;
     * sources with packed storage override it to copy words.
     *
     * @return the number of words produced; less than @p n only when
     *         the trace is exhausted
     * @throws SimError(TraceIO) on a record the packer rejects
     */
    virtual std::size_t
    nextBatchPacked(std::uint32_t *out, std::size_t n)
    {
        MemRef scratch[256];
        std::size_t done = 0;
        while (done < n) {
            const std::size_t want =
                std::min(n - done, std::size(scratch));
            const std::size_t got = nextBatch(scratch, want);
            for (std::size_t i = 0; i < got; ++i)
                out[done + i] = packed::canonical(scratch[i], *this);
            done += got;
            if (got < want)
                break;
        }
        return done;
    }

    /**
     * Discard the next @p n records, as if next() were called @p n
     * times and the results thrown away.  Sources with random-access
     * storage (the arena view, the compose adapters over it)
     * override this to seek instead of generate, which is what makes
     * sampled simulation's fast-forward between measurement
     * intervals cheap.
     *
     * @return the number of records skipped; less than @p n only
     *         when the trace is exhausted
     */
    virtual std::size_t
    skip(std::size_t n)
    {
        MemRef scratch[64];
        std::size_t done = 0;
        while (done < n) {
            const std::size_t want = std::min(n - done, std::size_t{64});
            const std::size_t got = nextBatch(scratch, want);
            done += got;
            if (got < want)
                break;
        }
        return done;
    }

    /** Restart the stream from its beginning (deterministically). */
    virtual void reset() = 0;

    /** A short name for diagnostics and reports. */
    virtual std::string name() const = 0;
};

/**
 * An in-memory trace, mainly for unit tests and for capturing short
 * generator outputs for inspection.
 */
class VectorSource : public TraceSource
{
  public:
    VectorSource(std::string name, std::vector<MemRef> refs)
        : label(std::move(name)), records(std::move(refs))
    {}

    bool
    next(MemRef &ref) override
    {
        if (pos >= records.size())
            return false;
        ref = records[pos++];
        return true;
    }

    std::size_t
    nextBatch(MemRef *out, std::size_t n) override
    {
        const std::size_t take = std::min(n, records.size() - pos);
        std::copy_n(records.begin() + static_cast<std::ptrdiff_t>(pos),
                    take, out);
        pos += take;
        return take;
    }

    std::size_t
    skip(std::size_t n) override
    {
        const std::size_t take = std::min(n, records.size() - pos);
        pos += take;
        return take;
    }

    void reset() override { pos = 0; }

    std::string name() const override { return label; }

    const std::vector<MemRef> &refs() const { return records; }

  private:
    std::string label;
    std::vector<MemRef> records;
    std::size_t pos = 0;
};

/** Drain up to @p limit records from @p src into a vector. */
std::vector<MemRef> collect(TraceSource &src, std::size_t limit);

} // namespace gaas::trace

#endif // GAAS_TRACE_SOURCE_HH
