#include "compose.hh"

#include <ios>

#include "trace/packed.hh"
#include "util/error.hh"
#include "util/logging.hh"

namespace gaas::trace
{

const char *
refKindName(RefKind kind)
{
    switch (kind) {
      case RefKind::Inst:
        return "inst";
      case RefKind::Load:
        return "load";
      case RefKind::Store:
        return "store";
    }
    return "unknown";
}

void
packed::rejectAddress(const MemRef &ref, const std::string &name)
{
    gaas_error(ErrorCode::TraceIO, "trace ", name, ": ",
               refKindName(ref.kind), " at address 0x", std::hex,
               ref.addr,
               " is at or above 2^31; the simulator replays "
               "user-mode addresses below 2^31 only");
}

void
packed::rejectAddress(const MemRef &ref, const TraceSource &source)
{
    rejectAddress(ref, source.name());
}

std::vector<MemRef>
collect(TraceSource &src, std::size_t limit)
{
    std::vector<MemRef> out;
    out.reserve(limit);
    MemRef ref;
    while (out.size() < limit && src.next(ref))
        out.push_back(ref);
    return out;
}

LoopSource::LoopSource(std::unique_ptr<TraceSource> inner_)
    : inner(std::move(inner_))
{
    if (!inner)
        gaas_fatal("LoopSource requires an inner source");
}

void
LoopSource::noteWrap()
{
    // The inner source just reported exhaustion, so the records
    // consumed since its last reset are one full pass: learn the
    // length (skip() needs it for whole-pass arithmetic) and wrap.
    if (innerPos > 0)
        innerLen = innerPos;
    innerPos = 0;
    inner->reset();
    ++wrapCount;
}

bool
LoopSource::next(MemRef &ref)
{
    if (inner->next(ref)) {
        ++innerPos;
        return true;
    }
    noteWrap();
    if (!inner->next(ref))
        return false;
    ++innerPos;
    return true;
}

std::size_t
LoopSource::nextBatch(MemRef *out, std::size_t n)
{
    std::size_t produced = 0;
    while (produced < n) {
        const std::size_t head =
            inner->nextBatch(out + produced, n - produced);
        produced += head;
        innerPos += head;
        if (produced == n)
            break;
        // Inner exhausted mid-batch: wrap, exactly as next() would,
        // then keep filling in batches -- the refill can itself hit
        // the end (short inner trace, large n), so loop.
        noteWrap();
        const std::size_t got =
            inner->nextBatch(out + produced, n - produced);
        if (got == 0)
            break; // empty even after a reset: give up, as next()
        produced += got;
        innerPos += got;
    }
    return produced;
}

std::size_t
LoopSource::nextBatchPacked(std::uint32_t *out, std::size_t n)
{
    std::size_t produced = inner->nextBatchPacked(out, n);
    innerPos += produced;
    // Wrap exactly as nextBatch() does.
    while (produced < n) {
        noteWrap();
        const std::size_t got =
            inner->nextBatchPacked(out + produced, n - produced);
        if (got == 0)
            break; // empty even after a reset: give up, as next()
        produced += got;
        innerPos += got;
    }
    return produced;
}

std::size_t
LoopSource::skip(std::size_t n)
{
    std::size_t remaining = n;
    while (remaining > 0) {
        if (innerLen > 0 && remaining >= innerLen - innerPos) {
            // Known pass length and the skip reaches the pass end:
            // whole passes reduce to modular arithmetic plus one
            // reset -- no records are generated or copied.
            remaining -= innerLen - innerPos;
            wrapCount += 1 + remaining / innerLen;
            remaining %= innerLen;
            inner->reset();
            innerPos = 0;
            if (remaining == 0)
                break;
        }
        const std::size_t got = inner->skip(remaining);
        innerPos += got;
        remaining -= got;
        if (remaining == 0)
            break;
        // Inner exhausted before the length was known (or the inner
        // stream shrank): learn/relearn the pass length and wrap.
        if (innerPos == 0)
            break; // empty even after a reset: give up, as next()
        noteWrap();
    }
    return n - remaining;
}

void
LoopSource::reset()
{
    inner->reset();
    wrapCount = 0;
    innerPos = 0;
    // innerLen survives: the inner stream restarts deterministically,
    // so a learned pass length stays valid across resets.
}

std::string
LoopSource::name() const
{
    return inner->name() + "[loop]";
}

double
RefMix::loadFraction() const
{
    return instructions ? static_cast<double>(loads) /
                              static_cast<double>(instructions)
                        : 0.0;
}

double
RefMix::storeFraction() const
{
    return instructions ? static_cast<double>(stores) /
                              static_cast<double>(instructions)
                        : 0.0;
}

MixSource::MixSource(std::unique_ptr<TraceSource> inner_)
    : inner(std::move(inner_))
{
    if (!inner)
        gaas_fatal("MixSource requires an inner source");
}

namespace
{

void
tallyRef(RefMix &counts, const MemRef &ref)
{
    switch (ref.kind) {
      case RefKind::Inst:
        ++counts.instructions;
        if (ref.syscall)
            ++counts.syscalls;
        break;
      case RefKind::Load:
        ++counts.loads;
        break;
      case RefKind::Store:
        ++counts.stores;
        if (ref.partialWord)
            ++counts.partialWordStores;
        break;
    }
}

} // namespace

bool
MixSource::next(MemRef &ref)
{
    if (!inner->next(ref))
        return false;
    tallyRef(counts, ref);
    return true;
}

std::size_t
MixSource::nextBatch(MemRef *out, std::size_t n)
{
    const std::size_t got = inner->nextBatch(out, n);
    for (std::size_t i = 0; i < got; ++i)
        tallyRef(counts, out[i]);
    return got;
}

void
MixSource::reset()
{
    inner->reset();
    counts = RefMix{};
}

std::string
MixSource::name() const
{
    return inner->name();
}

} // namespace gaas::trace
