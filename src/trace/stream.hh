/**
 * @file
 * Bounded-memory streaming replay of v3 trace files: one BlockStore
 * of decoded blocks shared by all of a workload's streams, and one
 * StreamSource per stream, a cursor over it (DESIGN.md §12).
 *
 * The paper multiplexes one pixie trace per benchmark round robin
 * into one simulator (Section 3), so one stream is read at a time.
 * The store keeps fixed slots, each one decoded block of packed
 * words (trace/packed.hh) keyed by (stream, block).  Every stream's
 * window is its cursor block and the next, so a process switched
 * back in finds the block it stopped in and the one after decoded.
 * A consumer pins a slot while it copies out of it; unpinned slots
 * are reclaimed by clock (second chance), cheapest class first:
 * empty, outside every window, inside one.  A seek or a wrap just
 * asks for another key.
 *
 * A pool of min(streams, max(1, hardware threads - 1)) decoder
 * threads fills the windows, the read stream's first, into empty or
 * unwanted slots only, each decode holding one of as many decode
 * buffers (a block's payload, plus MemRef scratch for an unpackable
 * file).  A consumer whose block no decoder has started decodes it
 * on its own thread instead of sleeping.
 *
 * Sizing is by need, not by ceiling: two slots per stream, never
 * more than the files have blocks, and one buffer per decoder.  The
 * ceiling -- the cap given, else GAAS_TRACE_STREAM_MB (64 MiB when
 * unset), for the whole store -- only caps that: a store that does
 * not fit gets fewer decoders and slots, whose windows' blocks are
 * then reclaimed and decoded again, and a ceiling below two slots
 * and one buffer is a TraceIO error naming that minimum.  A
 * standalone StreamSource owns a one-stream store: two slots and
 * one decoder.
 *
 * The words a stream yields are bit-identical to the packed reads of
 * a TraceV3Reader over the same file, and -- for a file written from
 * a synth generator -- to the arena replay of that generator, which
 * the stream-vs-arena golden tests pin.
 */

#ifndef GAAS_TRACE_STREAM_HH
#define GAAS_TRACE_STREAM_HH

#include <condition_variable>
#include <cstdint>
#include <memory>
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
     * (GAAS_TRACE_STREAM_MB MiB, default 64).  A standalone stream
     * holds two decoded blocks, and a cap too small for them is an
     * error.
     */
    std::size_t memoryBudgetBytes = 0;
};

/**
 * The decoded blocks and decoders of a set of v3 trace files, one
 * stream per file (see the file comment).  Thread-safe; streams are
 * read through StreamSource.
 */
class BlockStore
{
  public:
    /**
     * Open one stream per file of @p paths and size the store for
     * them under @p cap_bytes (0: streamBudgetBytes()).  Throws
     * SimError(TraceIO) for a file V3File rejects, and for a cap
     * below the store's minimum, naming the minimum.
     */
    explicit BlockStore(const std::vector<std::string> &paths,
                        std::size_t cap_bytes = 0);

    BlockStore(const BlockStore &) = delete;
    BlockStore &operator=(const BlockStore &) = delete;

    /** Stops and joins every decoder. */
    ~BlockStore();

    const V3File &
    file(std::size_t stream) const
    {
        return *streams[stream].file;
    }

    /** The stream's name in messages: its path + "[stream]". */
    const std::string &
    name(std::size_t stream) const
    {
        return streams[stream].name;
    }

    /** Decoded blocks the store holds at most. */
    std::size_t slotCount() const { return slots.size(); }

    /** Bytes the slots and decode buffers may hold (<= the
     *  ceiling). */
    std::size_t bufferBytes() const { return bytes; }

    /** Blocks decoded so far, by decoders and consumers (telemetry). */
    std::uint64_t blocksDecoded() const;

    /** A pinned block: its slot is not reclaimed while this lives. */
    class Pin
    {
      public:
        Pin(const Pin &) = delete;
        Pin &operator=(const Pin &) = delete;
        ~Pin();

        const std::uint32_t *words() const { return words_; }
        std::uint32_t records() const { return records_; }

      private:
        friend class BlockStore;
        Pin(BlockStore &store, std::size_t slot);

        BlockStore &store;
        std::size_t slot;
        const std::uint32_t *words_;
        std::uint32_t records_;
    };

    /**
     * Pin block @p block of stream @p stream, which becomes that
     * stream's cursor and the read stream.  Waits while a decoder
     * decodes the block, and decodes it on this thread if no one has
     * started it.  Throws the block's SimError if it fails to read or
     * decode; other blocks and streams are unaffected.
     */
    Pin pin(std::size_t stream, std::uint64_t block);

  private:
    enum class SlotState : unsigned char
    {
        Empty,
        Decoding,
        Ready,
        Failed,
    };

    struct Slot
    {
        std::unique_ptr<std::uint32_t[]> words;
        std::size_t stream = 0; //!< key, with block (not Empty)
        std::uint64_t block = 0;
        std::uint32_t records = 0;
        SlotState state = SlotState::Empty;
        unsigned pins = 0;
        bool referenced = false; //!< the clock's second-chance bit
        ErrorCode errorCode = ErrorCode::TraceIO; //!< Failed only
        std::string error;
    };

    struct Stream
    {
        std::unique_ptr<V3File> file;
        std::string name;
        std::uint64_t cursor = 0;  //!< block pinned last
        std::size_t lastSlot = 0;  //!< where it was: pin's first guess
    };

    /** One decode's working memory. */
    struct Buffer
    {
        std::vector<unsigned char> payload;
        std::vector<MemRef> scratch; //!< unpackable files only
        bool busy = false;
    };

    void decoderLoop();

    /**
     * The decoders' next job: set @p stream and @p block and return
     * the slot to decode it into, or slots.size() if there is none
     * now.
     */
    std::size_t nextJob(std::size_t &stream, std::uint64_t &block);

    /** The slot holding (or decoding) @p block of @p stream, or
     *  slots.size(). */
    std::size_t find(std::size_t stream, std::uint64_t block) const;

    /** A buffer no decode holds, or nullptr. */
    Buffer *idleBuffer();

    /** Reclaim class of a slot; lower goes first. */
    int claimOf(const Slot &slot) const;

    /** An unpinned, settled slot to reclaim, no dearer than class
     *  @p worst, picked by the clock; slots.size() if there is none. */
    std::size_t victim(int worst);

    /** Decode @p block of @p stream into slot @p i with @p buffer;
     *  called and returns with @p lock held, drops it meanwhile. */
    void decode(std::unique_lock<std::mutex> &lock, Buffer &buffer,
                std::size_t i, std::size_t stream,
                std::uint64_t block);

    void unpin(std::size_t slot);

    void stop();

    std::vector<Stream> streams;
    std::vector<Slot> slots;
    std::vector<Buffer> buffers;
    std::size_t bytes = 0;

    // Guarded by m (Slot::words contents: by the slot's state).
    mutable std::mutex m;
    std::condition_variable work;  //!< decoders wait here
    std::condition_variable ready; //!< consumers wait here
    std::size_t active = 0; //!< the read stream: the one pinned last
    std::size_t hand = 0;
    std::uint64_t decoded = 0;
    unsigned waiting = 0; //!< consumers waiting for a slot to unpin
    bool stopping = false;

    std::vector<std::thread> decoders;
};

/** One stream of a BlockStore as a TraceSource. */
class StreamSource : public TraceSource
{
  public:
    /** Stream @p path through a store of its own (tools, tests). */
    explicit StreamSource(const std::string &path,
                          StreamOptions options = {});

    /** Stream @p stream of a shared @p store. */
    StreamSource(std::shared_ptr<BlockStore> store, std::size_t stream);

    StreamSource(const StreamSource &) = delete;
    StreamSource &operator=(const StreamSource &) = delete;

    /** Unpacks one word: MemRef reads are for tests and tools. */
    bool next(MemRef &ref) override;
    std::size_t nextBatchPacked(std::uint32_t *out,
                                std::size_t n) override;
    std::size_t skip(std::size_t n) override;
    void reset() override;
    std::string name() const override;

    std::uint64_t recordCount() const { return file.recordCount(); }

    /** The store's buffer bytes (<= the ceiling). */
    std::size_t bufferBytes() const { return store->bufferBytes(); }

    /** The store's decoded-block slots: 2 for a standalone stream. */
    std::size_t slotCount() const { return store->slotCount(); }

    /** Blocks the store decoded so far (telemetry). */
    std::uint64_t blocksDecoded() const
    {
        return store->blocksDecoded();
    }

  private:
    std::shared_ptr<BlockStore> store;
    std::size_t stream;
    const V3File &file;
    std::uint64_t pos = 0; //!< global record cursor
};

} // namespace gaas::trace

#endif // GAAS_TRACE_STREAM_HH
