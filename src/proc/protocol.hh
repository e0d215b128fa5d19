/**
 * @file
 * Wire protocol of the multi-process sweep executor.
 *
 * The supervisor and its worker children speak length-prefixed
 * frames over anonymous pipes: a 4-byte little-endian payload
 * length, then the payload, whose first byte is the frame type.
 *
 * Requests (supervisor -> worker):
 *   Job       u8 type, u32le flags, u64le job index.  The index is
 *             into the job vector the child inherited at fork time,
 *             so the job itself -- config, budgets, even a custom
 *             workload builder -- never needs to cross the pipe.
 *   Shutdown  u8 type.  The worker drains and _Exit(0)s.
 *
 * Responses (worker -> supervisor):
 *   Heartbeat u8 type.  Emitted on a timer by a worker-side thread;
 *             the supervisor SIGKILLs a worker whose last frame of
 *             any kind is older than its heartbeat deadline.
 *   Result    u8 type, u64le job index, then the SweepOutcome as
 *             compact JSON in core/result_io's outcome codec, job
 *             stats included -- the codec the resume journal stores
 *             -- so a result that crossed a process boundary is
 *             indistinguishable from one simulated in-process.
 *
 * Frames are small (a result is a few KiB) relative to the pipe
 * buffer, so worker writes never block against a live supervisor;
 * the supervisor side reads non-blocking through FrameSplitter,
 * which reassembles frames across short reads.
 */

#ifndef GAAS_PROC_PROTOCOL_HH
#define GAAS_PROC_PROTOCOL_HH

#include <cstdint>
#include <string>

#include "core/sweep.hh"

namespace gaas::proc
{

/** Frame type tags (first payload byte). */
enum class FrameType : unsigned char
{
    Job = 1,
    Shutdown = 2,
    Heartbeat = 3,
    Result = 4,
};

/** @name Job-request flags (fault injection, supervisor-counted) */
///@{
inline constexpr std::uint32_t kFlagKill = 1u << 0; //!< raise SIGKILL
inline constexpr std::uint32_t kFlagHang = 1u << 1; //!< mute + sleep
///@}

/** A decoded request frame. */
struct Request
{
    FrameType type = FrameType::Shutdown;
    std::uint32_t flags = 0;
    std::uint64_t job = 0;
};

/** Encode a Job request (payload only, no length prefix). */
std::string encodeJobRequest(std::uint64_t job, std::uint32_t flags);

/** Encode a Shutdown request. */
std::string encodeShutdown();

/** Encode a Heartbeat response. */
std::string encodeHeartbeat();

/**
 * Encode a Result response for @p job: the outcome's disposition,
 * error (if any), telemetry and -- for non-failed points -- the
 * bit-exact SimResult.
 */
std::string encodeResult(std::uint64_t job,
                         const core::SweepOutcome &outcome);

/**
 * Decode a request payload.  Throws SimError(Internal) on a
 * malformed or truncated frame -- a worker that cannot trust its
 * supervisor's bytes must die loudly, not guess.
 */
Request decodeRequest(std::string_view payload);

/**
 * Decode a response payload into @p job / @p outcome.
 *
 * @return the frame type; @p job and @p outcome are only written
 *         for FrameType::Result
 * @throws SimError on any malformed frame: Internal for bad
 *         framing, StatsIO for a Result whose JSON does not parse or
 *         decode (the supervisor treats the worker as lost)
 */
FrameType decodeResponse(std::string_view payload,
                         std::uint64_t &job,
                         core::SweepOutcome &outcome);

/**
 * Reassembles length-prefixed frames from an arbitrarily chunked
 * byte stream (the supervisor's non-blocking pipe reads).
 */
class FrameSplitter
{
  public:
    /** Append @p size raw bytes from the pipe. */
    void feed(const char *data, std::size_t size);

    /**
     * Pop the next complete frame's payload into @p payload.
     *
     * @return true if a full frame was available
     * @throws SimError(Internal) if the stream declares a frame
     *         larger than the sanity cap (a corrupt length prefix)
     */
    bool next(std::string &payload);

    /** Bytes buffered but not yet returned (torn tail). */
    std::size_t pendingBytes() const { return buffer.size() - used; }

  private:
    std::string buffer;
    std::size_t used = 0;
};

} // namespace gaas::proc

#endif // GAAS_PROC_PROTOCOL_HH
