/**
 * @file
 * The packed 4-byte reference word: the only record the simulator
 * reads (TraceSource::nextBatchPacked) and the storage format of the
 * trace arena (trace/arena.hh).
 *
 * Layout, 4 bytes per record:
 *
 *   bits [31:3]  word index (byte address >> 2)
 *   bits [2:1]   RefKind
 *   bit  [0]     syscall (Inst) / partialWord (Store)
 *
 * The paper's pixie traces are user-mode MIPS references, word
 * granular and below 2^31, so the word index fits the 29 bits.  The
 * flag bit is shared: syscall only means something on Inst records
 * and partialWord only on Store records.
 *
 * canonical() is the one ingest point for records bound for the
 * simulator.  It word-aligns the address and drops a flag on the
 * wrong kind, neither of which reaches timing (DESIGN.md §4), and
 * rejects an address at or above 2^31.  File readers and writers
 * stay lossless; packable() says whether canonical() keeps a record
 * unchanged.
 *
 * The field extractors exist so the hot simulate loop can decode a
 * packed word straight into registers.
 */

#ifndef GAAS_TRACE_PACKED_HH
#define GAAS_TRACE_PACKED_HH

#include <cstdint>
#include <string>

#include "trace/memref.hh"

namespace gaas::trace
{

class TraceSource;

namespace packed
{

/** @return true if @p ref fits the packed layout losslessly. */
inline bool
packable(const MemRef &ref)
{
    return (ref.addr & 3) == 0 && (ref.addr >> 31) == 0 &&
           (!ref.syscall || ref.isInst()) &&
           (!ref.partialWord || ref.isStore());
}

/** Pack @p ref (the caller has checked packable()). */
inline std::uint32_t
pack(const MemRef &ref)
{
    const bool flag = ref.syscall || ref.partialWord;
    return static_cast<std::uint32_t>(ref.addr >> 2) << 3 |
           static_cast<std::uint32_t>(ref.kind) << 1 |
           static_cast<std::uint32_t>(flag);
}

/** Throw SimError(TraceIO) for @p ref, whose address is at or above
 *  2^31, naming the trace @p name and the address. */
[[noreturn]] void rejectAddress(const MemRef &ref,
                                const std::string &name);

/** rejectAddress naming @p source by its name(). */
[[noreturn]] void rejectAddress(const MemRef &ref,
                                const TraceSource &source);

/**
 * The ingest packer: @p ref as the simulator sees it (see file
 * comment).  @p source only names the trace in the error: a
 * TraceSource, or the name itself where no source object is at
 * hand (the streaming block store's decoders).
 */
template <class Source>
inline std::uint32_t
canonical(const MemRef &ref, const Source &source)
{
    if ((ref.addr >> 31) != 0) [[unlikely]]
        rejectAddress(ref, source);
    MemRef clean = ref;
    clean.syscall = ref.syscall && ref.isInst();
    clean.partialWord = ref.partialWord && ref.isStore();
    return pack(clean);
}

/** @name Field extractors */
///@{
inline Addr
addrOf(std::uint32_t word)
{
    return static_cast<Addr>(word >> 3) << 2;
}

inline RefKind
kindOf(std::uint32_t word)
{
    return static_cast<RefKind>((word >> 1) & 3u);
}

inline bool flagOf(std::uint32_t word) { return (word & 1u) != 0; }

inline bool isInst(std::uint32_t word)
{
    return kindOf(word) == RefKind::Inst;
}

inline bool isLoad(std::uint32_t word)
{
    return kindOf(word) == RefKind::Load;
}

inline bool isStore(std::uint32_t word)
{
    return kindOf(word) == RefKind::Store;
}
///@}

/** Unpack @p word into a full MemRef. */
inline MemRef
unpack(std::uint32_t word)
{
    MemRef ref;
    ref.addr = addrOf(word);
    ref.kind = kindOf(word);
    const bool flag = flagOf(word);
    ref.syscall = flag && ref.kind == RefKind::Inst;
    ref.partialWord = flag && ref.kind == RefKind::Store;
    return ref;
}

} // namespace packed
} // namespace gaas::trace

#endif // GAAS_TRACE_PACKED_HH
