/**
 * @file
 * StreamSource: bounded-memory streaming replay of a v3 trace file.
 *
 * A dedicated reader thread prefetches and decodes the *next* blocks
 * of the file into a small ring of slots while the simulator's hot
 * loop consumes the current one, so multi-billion-reference traces
 * -- the paper's 2.5 G-ref pixie regime -- replay without ever
 * materializing in RAM.  Slots hold blocks of packed words
 * (trace/packed.hh), handed over through nextBatchPacked as the
 * arena's are.  A packable file decodes straight to words; any other
 * decodes each block to MemRef scratch and packs it with
 * packed::canonical().
 *
 * Memory model: three slots -- the block the consumer drains, the
 * next one, ready, and the one the reader decodes.  The consumer
 * takes one block at a time and the reader decodes faster than the
 * simulator consumes, so more slots would only hold idle blocks.
 * With two, the reader could start the block the consumer needs
 * next only once the consumer frees a slot, so any delay in
 * scheduling the reader would stall the simulator.  The reader
 * reads and checks a block's payload before its slot frees, so only
 * the decode waits for the consumer.  A slot is one block of words
 * plus one compressed payload, and an unpackable file adds one block
 * of MemRef scratch: 3 x (256 KiB + the file's largest payload) for
 * a default-block packable file.  The byte ceiling --
 * StreamOptions::memoryBudgetBytes, defaulting to the
 * GAAS_TRACE_STREAM_MB environment knob (64 MiB when unset) -- is a
 * cap, never a target: one with room for only two slots gets two,
 * and one too small for two is a TraceIO error naming the minimum,
 * never a silent overrun.  Peak RSS is therefore independent of
 * trace length and, once the ceiling has room for three slots, of
 * the ceiling.
 *
 * Ordering/consistency: production runs strictly ahead of
 * consumption in block order; skip()/reset() move the cursor in
 * O(1) (seek table) and re-aim the producer, discarding any
 * prefetched blocks the jump invalidated.  All slot handoffs are
 * mutex+condvar protected (TSan-clean); the consumer copies out of
 * a slot only while it is marked full, and the producer writes one
 * only while it is free.
 *
 * The stream's words are bit-identical to the packed reads of a
 * TraceV3Reader over the same file, and -- for a file written from
 * a synth generator -- to the arena replay of that generator, which
 * the stream-vs-arena golden tests pin.
 */

#ifndef GAAS_TRACE_STREAM_HH
#define GAAS_TRACE_STREAM_HH

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "trace/v3.hh"
#include "util/error.hh"

namespace gaas::trace
{

/** Environment knob: streaming memory ceiling in MiB. */
inline constexpr const char *kStreamBudgetEnv =
    "GAAS_TRACE_STREAM_MB";

/** Default streaming memory ceiling when the env is unset (MiB). */
inline constexpr std::uint64_t kStreamBudgetDefaultMb = 64;

/**
 * The ceiling GAAS_TRACE_STREAM_MB sets, in bytes: the default when
 * unset.  A malformed value, or one whose byte count does not fit a
 * size_t, warns once, naming the knob, and gives the default too.
 */
std::size_t streamBudgetBytes();

struct StreamOptions
{
    /**
     * Cap on the stream's buffer bytes; 0 means streamBudgetBytes()
     * (GAAS_TRACE_STREAM_MB MiB, default 64).  The stream holds three
     * slots, or two if the cap has room for no more; a cap too small
     * for two is an error.  Workloads with several streams split one
     * cap across them (Workload::fromTraceFiles).
     */
    std::size_t memoryBudgetBytes = 0;
};

class StreamSource : public TraceSource
{
  public:
    explicit StreamSource(const std::string &path,
                          StreamOptions options = {});

    StreamSource(const StreamSource &) = delete;
    StreamSource &operator=(const StreamSource &) = delete;

    ~StreamSource() override;

    /** Unpacks one word: MemRef reads are for tests and tools. */
    bool next(MemRef &ref) override;
    std::size_t nextBatchPacked(std::uint32_t *out,
                                std::size_t n) override;
    std::size_t skip(std::size_t n) override;
    void reset() override;
    std::string name() const override;

    std::uint64_t recordCount() const { return file.recordCount(); }

    /** Total buffer bytes the slots and the decode scratch may hold
     *  (<= the ceiling). */
    std::size_t bufferBytes() const { return ringBytes; }

    /** Decoded blocks held: 3, or 2 under a ceiling with room for no
     *  more. */
    std::size_t slotCount() const { return slots.size(); }

    /** Blocks the reader thread decoded so far (telemetry). */
    std::uint64_t blocksDecoded() const;

  private:
    struct Slot
    {
        std::vector<unsigned char> payload;
        std::vector<std::uint32_t> words;
        std::uint64_t block = 0;
        std::uint32_t records = 0;
        bool full = false;
    };

    void readerLoop();

    /** Re-aim the producer at @p block, discarding prefetches. */
    void reseek(std::uint64_t block);

    /** Block until slot for @p block is full (or the reader died). */
    Slot &acquire(std::uint64_t block);

    /** Hand the held slot back to the producer. */
    void release();

    /** Make the slot holding pos's block held; false at EOF. */
    void ensureHeld();

    V3File file;
    std::size_t ringBytes = 0;

    // Consumer-thread-only state.
    std::uint64_t pos = 0;       //!< global record cursor
    bool holding = false;        //!< a slot is held for heldBlock
    std::uint64_t heldBlock = 0;
    std::uint64_t nextSeq = 0;   //!< next block in production order
    Slot *held = nullptr;

    // Shared state, guarded by m.
    mutable std::mutex m;
    std::condition_variable cv;
    std::vector<Slot> slots;
    std::uint64_t produceBlock = 0;
    std::uint64_t generation = 0;
    std::uint64_t decoded = 0;
    bool stopping = false;
    bool failed = false;
    ErrorCode errorCode = ErrorCode::TraceIO;
    std::string errorText;

    std::thread reader;
};

} // namespace gaas::trace

#endif // GAAS_TRACE_STREAM_HH
