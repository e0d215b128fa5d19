#include "stream.hh"

#include <algorithm>
#include <exception>
#include <limits>

#include "trace/packed.hh"
#include "util/env.hh"
#include "util/logging.hh"

namespace gaas::trace
{

namespace
{

/**
 * Blocks each stream keeps from its cursor on: the block it is in
 * and the next, so a stream switched back in near the end of its
 * block does not wait for the next one.  With one block, perfbench
 * trace-stream's simulator spent about 4% of its run waiting for
 * such blocks on a 4-vCPU VM.
 */
constexpr std::uint64_t kWindow = 2;

/** Reclaim classes, cheapest first (BlockStore::claimOf). */
enum Claim : int
{
    kEmpty,
    kUnwanted,
    kWanted,
};

} // namespace

std::size_t
streamBudgetBytes()
{
    const std::uint64_t mb =
        envU64(kStreamBudgetEnv, kStreamBudgetDefaultMb);
    if (mb <= std::numeric_limits<std::size_t>::max() >> 20)
        return static_cast<std::size_t>(mb) << 20;
    warn("ignoring ", kStreamBudgetEnv, "=", mb,
         " (its byte count does not fit a size_t)");
    return static_cast<std::size_t>(kStreamBudgetDefaultMb) << 20;
}

BlockStore::BlockStore(const std::vector<std::string> &paths,
                       std::size_t cap_bytes)
{
    if (paths.empty())
        gaas_fatal("a block store needs at least one trace file");
    const std::size_t cap =
        cap_bytes ? cap_bytes : streamBudgetBytes();

    // A slot holds the largest block of any file; a decode buffer
    // the largest payload, plus a block of MemRef scratch if any
    // file must be decoded through the ingest packer.
    std::size_t blockRecords = 0;
    std::size_t payloadBytes = 0;
    bool unpackable = false;
    std::uint64_t blocks = 0;
    streams.reserve(paths.size());
    for (const std::string &path : paths) {
        Stream &st = streams.emplace_back();
        st.file = std::make_unique<V3File>(path);
        st.name = path + "[stream]";
        const V3File &file = *st.file;
        if (file.blockCount() > 0)
            blockRecords = std::max<std::size_t>(blockRecords,
                                                 file.blockRecords(0));
        payloadBytes = std::max(payloadBytes, file.maxPayloadBytes());
        unpackable = unpackable || !file.packable();
        blocks += file.blockCount();
    }
    const std::size_t slotBytes = blockRecords * sizeof(std::uint32_t);
    const std::size_t bufferBytes =
        payloadBytes + (unpackable ? blockRecords * sizeof(MemRef) : 0);
    const std::size_t minBytes = 2 * slotBytes + bufferBytes;
    if (cap < minBytes) {
        const std::string what =
            paths.size() == 1
                ? paths.front()
                : std::to_string(paths.size()) + " trace files";
        gaas_error(ErrorCode::TraceIO, "streaming ", what,
                   " needs at least ", minBytes, " bytes (",
                   (minBytes + (1u << 20) - 1) >> 20,
                   " MiB: 2 decoded blocks of ", slotBytes,
                   " bytes and a decode buffer of ", bufferBytes,
                   " bytes) but the ceiling (", kStreamBudgetEnv,
                   " or the caller's cap) allows only ", cap,
                   " bytes");
    }

    // Decoders as the host has spare threads, no more than streams,
    // and no more than leave room for two slots.
    const unsigned hw = std::thread::hardware_concurrency();
    std::size_t decoderCount =
        std::min<std::size_t>(paths.size(), hw > 2 ? hw - 1 : 1);
    if (bufferBytes > 0)
        decoderCount = std::min(decoderCount,
                                (cap - 2 * slotBytes) / bufferBytes);

    // Slots: every stream's window, but never more than the files
    // have blocks, nor more than fit beside the decode buffers.
    std::uint64_t want = paths.size() * kWindow;
    want = std::min(want, std::max<std::uint64_t>(2, blocks));
    if (slotBytes > 0)
        want = std::min<std::uint64_t>(
            want, (cap - decoderCount * bufferBytes) / slotBytes);
    const auto slotCount = static_cast<std::size_t>(want);

    slots.resize(slotCount);
    for (Slot &slot : slots)
        slot.words =
            std::make_unique_for_overwrite<std::uint32_t[]>(blockRecords);
    buffers.resize(decoderCount);
    for (Buffer &buffer : buffers) {
        buffer.payload.reserve(payloadBytes);
        if (unpackable)
            buffer.scratch.reserve(blockRecords);
    }
    bytes = slotCount * slotBytes + decoderCount * bufferBytes;

    try {
        for (std::size_t i = 0; i < decoderCount; ++i)
            decoders.emplace_back([this] { decoderLoop(); });
    } catch (...) {
        stop();
        throw;
    }
}

BlockStore::~BlockStore()
{
    stop();
}

void
BlockStore::stop()
{
    {
        std::lock_guard<std::mutex> lock(m);
        stopping = true;
    }
    work.notify_all();
    for (std::thread &decoder : decoders)
        decoder.join();
    decoders.clear();
}

std::uint64_t
BlockStore::blocksDecoded() const
{
    std::lock_guard<std::mutex> lock(m);
    return decoded;
}

std::size_t
BlockStore::find(std::size_t stream, std::uint64_t block) const
{
    for (std::size_t i = 0; i < slots.size(); ++i) {
        const Slot &slot = slots[i];
        if (slot.state != SlotState::Empty && slot.stream == stream &&
            slot.block == block)
            return i;
    }
    return slots.size();
}

BlockStore::Buffer *
BlockStore::idleBuffer()
{
    for (Buffer &buffer : buffers) {
        if (!buffer.busy)
            return &buffer;
    }
    return nullptr;
}

int
BlockStore::claimOf(const Slot &slot) const
{
    if (slot.state == SlotState::Empty)
        return kEmpty;
    const std::uint64_t cursor = streams[slot.stream].cursor;
    if (slot.block < cursor || slot.block - cursor >= kWindow)
        return kUnwanted;
    return kWanted;
}

std::size_t
BlockStore::victim(int worst)
{
    auto settled = [](const Slot &slot) {
        return slot.pins == 0 && slot.state != SlotState::Decoding;
    };
    int best = worst + 1;
    for (const Slot &slot : slots) {
        if (settled(slot))
            best = std::min(best, claimOf(slot));
    }
    if (best > worst)
        return slots.size();
    // Clock over that class: a referenced slot loses its bit and is
    // passed over once, so the second sweep at the latest finds one.
    for (;;) {
        const std::size_t i = hand;
        hand = (hand + 1) % slots.size();
        Slot &slot = slots[i];
        if (!settled(slot) || claimOf(slot) != best)
            continue;
        if (slot.referenced) {
            slot.referenced = false;
            continue;
        }
        return i;
    }
}

void
BlockStore::decode(std::unique_lock<std::mutex> &lock, Buffer &buffer,
                   std::size_t i, std::size_t stream,
                   std::uint64_t block)
{
    // Claim the slot and the buffer under the lock, then work
    // without it: no one reads a Decoding slot's words or a busy
    // buffer, and the files and names never change.
    Slot &slot = slots[i];
    slot.stream = stream;
    slot.block = block;
    slot.state = SlotState::Decoding;
    slot.referenced = true;
    buffer.busy = true;
    lock.unlock();

    const Stream &st = streams[stream];
    const V3File &file = *st.file;
    const std::uint32_t records = file.blockRecords(block);
    bool failed = false;
    ErrorCode code = ErrorCode::TraceIO;
    std::string error;
    try {
        file.readBlock(block, buffer.payload);
        const v3::BlockContext ctx{&file.path(), block,
                                   file.payloadOffset(block)};
        if (file.packable()) {
            v3::decodeBlockPacked(buffer.payload.data(),
                                  buffer.payload.size(), records,
                                  slot.words.get(), ctx);
        } else {
            buffer.scratch.resize(records);
            v3::decodeBlock(buffer.payload.data(),
                            buffer.payload.size(), records,
                            buffer.scratch.data(), ctx);
            for (std::uint32_t r = 0; r < records; ++r)
                slot.words[r] =
                    packed::canonical(buffer.scratch[r], st.name);
        }
    } catch (const SimError &err) {
        failed = true;
        code = err.code();
        error = err.what();
    } catch (const std::exception &err) {
        // FatalError and the like: a decoder thread must not die of
        // it, so the stream's consumer rethrows it as TraceIO.
        failed = true;
        error = err.what();
    }

    lock.lock();
    buffer.busy = false;
    slot.records = records;
    slot.state = failed ? SlotState::Failed : SlotState::Ready;
    slot.errorCode = code;
    slot.error = std::move(error);
    ++decoded;
    ready.notify_all();
    work.notify_one(); // a buffer is free, a slot may have settled
}

std::size_t
BlockStore::nextJob(std::size_t &stream, std::uint64_t &block)
{
    // Every stream's window, the read stream's first and then those
    // the round robin reads after it, into a slot no window wants:
    // this fills every stream's first blocks before the simulator
    // reaches them and refills a window a consumer's miss took.
    for (std::size_t k = 0; k < streams.size(); ++k) {
        stream = (active + k) % streams.size();
        const Stream &st = streams[stream];
        const std::uint64_t end =
            std::min(st.cursor + kWindow, st.file->blockCount());
        for (block = st.cursor; block < end; ++block) {
            if (find(stream, block) == slots.size())
                return victim(kUnwanted);
        }
    }
    return slots.size();
}

void
BlockStore::decoderLoop()
{
    // A job waits for a pin, which moves a window, or for the end of
    // a decode, which frees a buffer and settles a slot.  An unpin
    // moves no window, so only consumers wait for one.
    std::unique_lock<std::mutex> lock(m);
    while (!stopping) {
        std::size_t stream = 0;
        std::uint64_t block = 0;
        Buffer *buffer = idleBuffer();
        const std::size_t i =
            buffer ? nextJob(stream, block) : slots.size();
        if (i < slots.size())
            decode(lock, *buffer, i, stream, block);
        else
            work.wait(lock);
    }
}

BlockStore::Pin
BlockStore::pin(std::size_t stream, std::uint64_t block)
{
    std::unique_lock<std::mutex> lock(m);
    Stream &st = streams[stream];
    if (active != stream || st.cursor != block) {
        // The read stream or its window moved: wake a decoder,
        // outside the lock so it does not block on it at once.  One
        // is enough: a decoder that finishes a block looks for the
        // next job itself.
        active = stream;
        st.cursor = block;
        lock.unlock();
        work.notify_one();
        lock.lock();
    }
    for (;;) {
        std::size_t i = st.lastSlot;
        const Slot &guess = slots[i];
        if (guess.state == SlotState::Empty || guess.stream != stream ||
            guess.block != block)
            i = find(stream, block);
        if (i < slots.size()) {
            Slot &slot = slots[i];
            if (slot.state == SlotState::Ready) {
                ++slot.pins;
                slot.referenced = true;
                st.lastSlot = i;
                return Pin(*this, i);
            }
            if (slot.state == SlotState::Failed)
                throw SimError(slot.errorCode, slot.error);
            ready.wait(lock); // a decoder has started it
            continue;
        }
        // No one has started it: decode it here rather than sleep.
        // Without a free buffer, wait for a decode to end; without a
        // slot to reclaim, for one to unpin or settle.
        Buffer *buffer = idleBuffer();
        if (!buffer) {
            ready.wait(lock);
            continue;
        }
        i = victim(kWanted);
        if (i == slots.size()) {
            ++waiting;
            ready.wait(lock);
            --waiting;
            continue;
        }
        decode(lock, *buffer, i, stream, block);
    }
}

void
BlockStore::unpin(std::size_t i)
{
    std::lock_guard<std::mutex> lock(m);
    if (--slots[i].pins == 0 && waiting != 0)
        ready.notify_all();
}

BlockStore::Pin::Pin(BlockStore &store_, std::size_t slot_)
    : store(store_), slot(slot_),
      words_(store_.slots[slot_].words.get()),
      records_(store_.slots[slot_].records)
{
}

BlockStore::Pin::~Pin()
{
    store.unpin(slot);
}

StreamSource::StreamSource(const std::string &path,
                           StreamOptions options)
    : StreamSource(std::make_shared<BlockStore>(
                       std::vector<std::string>{path},
                       options.memoryBudgetBytes),
                   0)
{
}

StreamSource::StreamSource(std::shared_ptr<BlockStore> store_,
                           std::size_t stream_)
    : store(std::move(store_)), stream(stream_),
      file(store->file(stream_))
{
}

bool
StreamSource::next(MemRef &ref)
{
    std::uint32_t word = 0;
    if (nextBatchPacked(&word, 1) == 0)
        return false;
    ref = packed::unpack(word);
    return true;
}

std::size_t
StreamSource::nextBatchPacked(std::uint32_t *out, std::size_t n)
{
    std::size_t produced = 0;
    const std::uint64_t total = file.recordCount();
    while (produced < n && pos < total) {
        const std::uint64_t b = pos / file.blockRefs();
        const BlockStore::Pin block = store->pin(stream, b);
        const auto offset =
            static_cast<std::size_t>(pos - file.firstRecordOf(b));
        const std::size_t take =
            std::min(n - produced, block.records() - offset);
        std::copy_n(block.words() + offset, take, out + produced);
        pos += take;
        produced += take;
    }
    return produced;
}

std::size_t
StreamSource::skip(std::size_t n)
{
    const auto take = static_cast<std::size_t>(
        std::min<std::uint64_t>(n, file.recordCount() - pos));
    pos += take;
    return take;
}

void
StreamSource::reset()
{
    pos = 0;
}

std::string
StreamSource::name() const
{
    return store->name(stream);
}

} // namespace gaas::trace
