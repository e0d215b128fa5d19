#include "stream.hh"

#include <algorithm>
#include <limits>

#include "trace/packed.hh"
#include "util/env.hh"
#include "util/logging.hh"

namespace gaas::trace
{

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

StreamSource::StreamSource(const std::string &path,
                           StreamOptions options)
    : file(path)
{
    const std::size_t budget = options.memoryBudgetBytes
                                   ? options.memoryBudgetBytes
                                   : streamBudgetBytes();

    // One slot holds one compressed payload plus one block of words.
    // The payload capacity comes from the seek table (largest block
    // in this file), the word side from the fixed per-block record
    // population; an unpackable file adds one block of MemRef
    // scratch for the reader.
    const auto blockRefs = static_cast<std::size_t>(file.blockRefs());
    const std::size_t slotBytes =
        file.maxPayloadBytes() + blockRefs * sizeof(std::uint32_t);
    const std::size_t scratchBytes =
        file.packable() ? 0 : blockRefs * sizeof(MemRef);
    const std::size_t minBytes = 2 * slotBytes + scratchBytes;
    if (budget < minBytes) {
        gaas_error(ErrorCode::TraceIO, "streaming ", path,
                   " needs at least ", (minBytes >> 20) + 1,
                   " MiB (2 slots of ", slotBytes, " bytes",
                   scratchBytes ? " plus a decode buffer" : "",
                   ") but the ceiling (", kStreamBudgetEnv,
                   " or the workload's per-stream share) allows "
                   "only ", budget, " bytes");
    }
    // The block being drained, the next one, ready, and the one the
    // reader decodes: the third slot lets a late-scheduled reader
    // fall a block behind before the consumer waits.  A ceiling with
    // room for two only gets two.
    const std::size_t count =
        budget - scratchBytes >= 3 * slotBytes ? 3 : 2;
    slots.resize(count);
    ringBytes = count * slotBytes + scratchBytes;
    for (Slot &slot : slots) {
        slot.payload.reserve(file.maxPayloadBytes());
        slot.words.reserve(blockRefs);
    }

    reader = std::thread([this] { readerLoop(); });
}

StreamSource::~StreamSource()
{
    {
        std::lock_guard<std::mutex> lock(m);
        stopping = true;
    }
    cv.notify_all();
    if (reader.joinable())
        reader.join();
}

void
StreamSource::readerLoop()
{
    const std::uint64_t blockCount = file.blockCount();
    std::vector<MemRef> scratch; // unpackable files only
    std::unique_lock<std::mutex> lock(m);
    for (;;) {
        cv.wait(lock, [&] {
            return stopping || failed || produceBlock < blockCount;
        });
        if (stopping || failed)
            return;
        const std::uint64_t b = produceBlock;
        const std::uint64_t g = generation;
        Slot &slot = slots[b % slots.size()];
        try {
            // Only this thread touches payloads, so it reads and
            // checks the block while the consumer may still drain
            // the slot's words, and only the decode waits for the
            // slot: a late reader then owes the consumer one decode,
            // not a read, a checksum and a decode.
            lock.unlock();
            file.readBlock(b, slot.payload);
            lock.lock();
            cv.wait(lock, [&] {
                return stopping || failed || generation != g ||
                       !slot.full;
            });
            if (stopping || failed)
                return;
            if (generation != g)
                continue; // a seek re-aimed production
            // The slot is free (full == false): the producer owns its
            // words until it republishes them under the lock below.
            lock.unlock();
            const std::uint32_t records = file.blockRecords(b);
            const v3::BlockContext ctx{&file.path(), b,
                                       file.payloadOffset(b)};
            slot.words.resize(records);
            if (file.packable()) {
                v3::decodeBlockPacked(slot.payload.data(),
                                      slot.payload.size(), records,
                                      slot.words.data(), ctx);
            } else {
                scratch.resize(records);
                v3::decodeBlock(slot.payload.data(),
                                slot.payload.size(), records,
                                scratch.data(), ctx);
                for (std::uint32_t i = 0; i < records; ++i)
                    slot.words[i] = packed::canonical(scratch[i], *this);
            }
            slot.records = records;
            lock.lock();
        } catch (const SimError &err) {
            if (!lock.owns_lock())
                lock.lock();
            failed = true;
            errorCode = err.code();
            errorText = err.what();
            cv.notify_all();
            continue;
        } catch (const FatalError &err) {
            if (!lock.owns_lock())
                lock.lock();
            failed = true;
            errorCode = ErrorCode::TraceIO;
            errorText = err.what();
            cv.notify_all();
            continue;
        }
        if (generation == g) {
            slot.block = b;
            slot.full = true;
            produceBlock = b + 1;
            ++decoded;
            cv.notify_all();
        }
        // On a generation change the decode raced a seek: drop it
        // and let the loop re-read the new production cursor.
    }
}

void
StreamSource::reseek(std::uint64_t block)
{
    {
        std::lock_guard<std::mutex> lock(m);
        ++generation;
        for (Slot &slot : slots)
            slot.full = false;
        produceBlock = block;
    }
    cv.notify_all();
    nextSeq = block;
    holding = false;
    held = nullptr;
}

StreamSource::Slot &
StreamSource::acquire(std::uint64_t block)
{
    const std::size_t count = slots.size();
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [&] {
        return failed || (slots[block % count].full &&
                          slots[block % count].block == block);
    });
    if (failed)
        throw SimError(errorCode, errorText);
    return slots[block % count];
}

void
StreamSource::release()
{
    if (!holding)
        return;
    {
        std::lock_guard<std::mutex> lock(m);
        held->full = false;
    }
    cv.notify_all();
    holding = false;
    held = nullptr;
    nextSeq = heldBlock + 1;
}

void
StreamSource::ensureHeld()
{
    const std::uint64_t b = pos / file.blockRefs();
    if (holding) {
        if (heldBlock == b)
            return;
        release();
    }
    if (b != nextSeq)
        reseek(b);
    held = &acquire(b);
    heldBlock = b;
    holding = true;
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
        ensureHeld();
        const auto offset = static_cast<std::size_t>(
            pos - file.firstRecordOf(heldBlock));
        const std::size_t take =
            std::min(n - produced, held->records - offset);
        std::copy_n(held->words.begin() +
                        static_cast<std::ptrdiff_t>(offset),
                    take, out + produced);
        pos += take;
        produced += take;
        if (offset + take == held->records)
            release();
    }
    return produced;
}

std::size_t
StreamSource::skip(std::size_t n)
{
    const std::uint64_t total = file.recordCount();
    const auto take = static_cast<std::size_t>(
        std::min<std::uint64_t>(n, total - pos));
    pos += take;
    if (holding &&
        pos / file.blockRefs() != heldBlock)
        release();
    return take;
}

void
StreamSource::reset()
{
    pos = 0;
    if (holding && heldBlock != 0)
        release();
}

std::string
StreamSource::name() const
{
    return file.path() + "[stream]";
}

std::uint64_t
StreamSource::blocksDecoded() const
{
    std::lock_guard<std::mutex> lock(m);
    return decoded;
}

} // namespace gaas::trace
