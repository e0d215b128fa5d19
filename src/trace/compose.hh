/**
 * @file
 * Composable adapters over TraceSource: looping and reference-mix
 * accounting.
 */

#ifndef GAAS_TRACE_COMPOSE_HH
#define GAAS_TRACE_COMPOSE_HH

#include <memory>

#include "trace/source.hh"

namespace gaas::trace
{

/**
 * Restart the underlying source whenever it is exhausted, so a finite
 * trace can fill an arbitrarily long simulation (the scaled-down
 * analogue of the paper's restart-the-next-benchmark rule).
 *
 * next() only returns false if the inner source is empty even after a
 * reset, which guards against infinite loops on empty traces.
 */
class LoopSource : public TraceSource
{
  public:
    explicit LoopSource(std::unique_ptr<TraceSource> inner);

    bool next(MemRef &ref) override;
    std::size_t nextBatch(MemRef *out, std::size_t n) override;
    std::size_t nextBatchPacked(std::uint32_t *out,
                                std::size_t n) override;

    /**
     * Seek forward @p n records, wrapping as needed: a skip past the
     * inner stream's end lands at (position + n) % length, exactly
     * where n discarded next() calls would land.  Once the pass
     * length is known (learned at the first wrap) whole passes cost
     * one reset() instead of a re-generate, so interval seeking over
     * an arena view is O(passes), not O(records).
     *
     * Wrap accounting: a skip that reaches the pass end with a known
     * length wraps eagerly (lands at offset 0, wraps() already
     * bumped), while the read paths wrap lazily on the next record;
     * the produced stream is identical either way and wraps() agrees
     * again after the next read.
     */
    std::size_t skip(std::size_t n) override;

    void reset() override;
    std::string name() const override;

    /** How many times the inner trace has been restarted. */
    std::uint64_t wraps() const { return wrapCount; }

  private:
    /** Learn the pass length, reset the inner source and count the
     *  wrap (called when the inner source reports exhaustion). */
    void noteWrap();

    std::unique_ptr<TraceSource> inner;
    std::uint64_t wrapCount = 0;
    /** Records consumed from the inner source since its last reset. */
    std::size_t innerPos = 0;
    /** Inner pass length, learned at the first wrap (0 = unknown). */
    std::size_t innerLen = 0;
};

/** Reference-mix counters gathered by MixSource (Table 1 columns). */
struct RefMix
{
    Count instructions = 0;
    Count loads = 0;
    Count stores = 0;
    Count syscalls = 0;
    Count partialWordStores = 0;

    Count total() const { return instructions + loads + stores; }

    /** Loads as a fraction of instructions (Table 1 "% of inst."). */
    double loadFraction() const;

    /** Stores as a fraction of instructions. */
    double storeFraction() const;
};

/** Pass-through adapter that tallies the reference mix. */
class MixSource : public TraceSource
{
  public:
    explicit MixSource(std::unique_ptr<TraceSource> inner);

    bool next(MemRef &ref) override;
    std::size_t nextBatch(MemRef *out, std::size_t n) override;
    void reset() override;
    std::string name() const override;

    const RefMix &mix() const { return counts; }

  private:
    std::unique_ptr<TraceSource> inner;
    RefMix counts;
};

} // namespace gaas::trace

#endif // GAAS_TRACE_COMPOSE_HH
