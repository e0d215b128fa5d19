#include "arena.hh"

#include "trace/packed.hh"

#include <algorithm>
#include <chrono>
#include <limits>

#include "util/error.hh"
#include "util/logging.hh"

namespace gaas::trace
{

namespace
{

constexpr std::size_t kUnknownPassLen =
    std::numeric_limits<std::size_t>::max();

thread_local ArenaTally threadTallySlice;

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

} // namespace

ArenaStream::ArenaStream(
    std::string key, std::size_t pass_ref_bound,
    std::function<std::unique_ptr<TraceSource>()> factory_)
    : streamKey(std::move(key)), passRefBound(pass_ref_bound),
      blockCount(pass_ref_bound / kBlockRefs + 1),
      blocks(blockCount), passLen(kUnknownPassLen),
      factory(std::move(factory_))
{
    if (passRefBound == 0)
        gaas_fatal("ArenaStream requires a nonzero pass bound");
    if (!factory)
        gaas_fatal("ArenaStream requires a generator factory");
}

ArenaStream::~ArenaStream()
{
    for (auto &slot : blocks)
        delete[] slot.load(std::memory_order_relaxed);
}

std::size_t
ArenaStream::passRefs() const
{
    const std::size_t len = passLen.load(std::memory_order_acquire);
    return len == kUnknownPassLen ? 0 : len;
}

std::size_t
ArenaStream::bytes() const
{
    return allocatedBytes.load(std::memory_order_relaxed);
}

void
ArenaStream::ensure(std::size_t want)
{
    want = std::min(want, passRefBound);
    if (published.load(std::memory_order_acquire) >= want)
        return;
    if (passLen.load(std::memory_order_acquire) != kUnknownPassLen)
        return;

    std::lock_guard<std::mutex> lock(growMutex);
    if (failure)
        std::rethrow_exception(failure);
    if (done || total >= want)
        return;

    const auto start = std::chrono::steady_clock::now();
    if (!generatorMade) {
        generator = factory();
        generatorMade = true;
        if (!generator)
            gaas_fatal("ArenaStream factory returned null for '",
                       streamKey, "'");
    }

    // Geometric high-water-mark growth: generate at least a doubling
    // (floored at kMinChunk) so a consumer reading batch-by-batch
    // amortizes the mutex and the generator's loop preamble.
    const std::size_t target = std::min(
        std::max({want, total * 2, kMinChunk}), passRefBound);

    // The generator packs straight into the blocks, one block run
    // per pull; nothing past `published` is visible to readers yet.
    const std::size_t before = total;
    try {
        while (total < target) {
            const std::size_t block = total / kBlockRefs;
            std::uint32_t *data =
                blocks[block].load(std::memory_order_relaxed);
            if (!data) {
                data = new std::uint32_t[kBlockRefs];
                blocks[block].store(data, std::memory_order_relaxed);
                allocatedBytes.fetch_add(
                    kBlockRefs * sizeof(std::uint32_t),
                    std::memory_order_relaxed);
            }
            const std::size_t off = total % kBlockRefs;
            const std::size_t ask =
                std::min(kBlockRefs - off, target - total);
            const std::size_t got =
                generator->nextBatchPacked(data + off, ask);
            total += got;
            if (got < ask) {
                // The generator's pass ended: drop the generator
                // (replays come from the blocks).
                generator.reset();
                done = true;
                break;
            }
        }
        if (!done && total >= passRefBound) {
            // Landed exactly on the bound: probe for the pass end so
            // a reader at the bound cannot spin on an unknown pass
            // length.
            std::uint32_t probe = 0;
            if (generator->nextBatchPacked(&probe, 1) != 0) {
                gaas_error(ErrorCode::Internal, "trace arena stream '",
                           streamKey, "' exceeded its pass bound of ",
                           passRefBound, " references");
            }
            generator.reset();
            done = true;
        }
    } catch (...) {
        // A failed pull may have consumed records it never
        // returned, so the rest of the pass can no longer be
        // trusted: every later growth rethrows the same error.
        failure = std::current_exception();
        throw;
    }
    // Publish the records before freezing the pass length: a caller
    // that sees the length returns from ensure() without the lock,
    // and then relies on `published` covering the whole pass.
    published.store(total, std::memory_order_release);
    if (done)
        passLen.store(total, std::memory_order_release);

    threadTallySlice.refsGenerated += total - before;
    threadTallySlice.genSeconds += secondsSince(start);
}

std::size_t
ArenaStream::readPacked(std::size_t pos, std::uint32_t *out,
                        std::size_t n)
{
    std::size_t produced = 0;
    while (produced < n) {
        const std::size_t pub =
            published.load(std::memory_order_acquire);
        if (pos < pub) {
            std::size_t take = std::min(n - produced, pub - pos);
            while (take > 0) {
                const std::size_t block = pos / kBlockRefs;
                const std::size_t off = pos % kBlockRefs;
                const std::size_t run =
                    std::min(take, kBlockRefs - off);
                const std::uint32_t *data =
                    blocks[block].load(std::memory_order_relaxed);
                std::copy_n(data + off, run, out + produced);
                produced += run;
                pos += run;
                take -= run;
            }
            continue;
        }
        // pos == pub: either the pass is over or the stream must
        // grow.  ensure() guarantees progress: on return either the
        // published length or the pass length has advanced past pos.
        if (passLen.load(std::memory_order_acquire) == pub)
            break;
        ensure(pos + (n - produced));
    }
    return produced;
}

TraceArena &
TraceArena::global()
{
    static TraceArena arena;
    return arena;
}

ArenaStream *
TraceArena::acquire(
    const std::string &key, std::size_t pass_ref_bound,
    std::size_t ref_hint,
    std::function<std::unique_ptr<TraceSource>()> factory)
{
    ArenaStream *stream = nullptr;
    bool created = false;
    {
        std::lock_guard<std::mutex> lock(mapMutex);
        auto it = streams.find(key);
        if (it == streams.end()) {
            it = streams
                     .emplace(key, std::make_unique<ArenaStream>(
                                       key, pass_ref_bound,
                                       std::move(factory)))
                     .first;
            created = true;
        }
        stream = it->second.get();
    }
    if (created)
        ++threadTallySlice.streamsGenerated;
    else
        ++threadTallySlice.streamsReused;
    if (ref_hint > 0)
        stream->ensure(ref_hint);
    return stream;
}

std::size_t
TraceArena::totalBytes() const
{
    std::lock_guard<std::mutex> lock(mapMutex);
    std::size_t bytes = 0;
    for (const auto &entry : streams)
        bytes += entry.second->bytes();
    return bytes;
}

ArenaTally
TraceArena::threadTally()
{
    return threadTallySlice;
}

void
TraceArena::resetThreadTally()
{
    threadTallySlice = ArenaTally{};
}

ArenaSource::ArenaSource(ArenaStream *stream_, std::string name_)
    : stream(stream_), label(std::move(name_))
{
    if (!stream)
        gaas_fatal("ArenaSource requires a stream");
}

bool
ArenaSource::next(MemRef &ref)
{
    std::uint32_t word = 0;
    if (nextBatchPacked(&word, 1) == 0)
        return false;
    ref = packed::unpack(word);
    return true;
}

std::size_t
ArenaSource::nextBatchPacked(std::uint32_t *out, std::size_t n)
{
    const std::size_t got = stream->readPacked(pos, out, n);
    pos += got;
    return got;
}

std::size_t
ArenaSource::skip(std::size_t n)
{
    // One ensure() suffices: on return the stream is published
    // through min(target, pass length), so the clamp below is final.
    const std::size_t max = std::numeric_limits<std::size_t>::max();
    stream->ensure(n > max - pos ? max : pos + n);
    const std::size_t pub = stream->publishedRefs();
    const std::size_t take = pos < pub ? std::min(n, pub - pos) : 0;
    pos += take;
    return take;
}

} // namespace gaas::trace
