#include "protocol.hh"

#include "core/result_io.hh"
#include "obs/json.hh"
#include "util/bitops.hh"
#include "util/error.hh"

namespace gaas::proc
{

namespace
{

/** Sanity cap on one frame: a result JSON is a few KiB; anything
 *  past this is a corrupt length prefix, not a real frame. */
constexpr std::size_t kMaxFramePayload = 16u * 1024 * 1024;

[[noreturn]] void
badFrame(const char *what)
{
    gaas_error(ErrorCode::Internal,
               "mproc protocol: malformed frame (", what, ")");
}

} // namespace

std::string
encodeJobRequest(std::uint64_t job, std::uint32_t flags)
{
    std::string out(1 + 4 + 8, '\0');
    out[0] = static_cast<char>(FrameType::Job);
    storeLE<std::uint32_t>(out.data() + 1, flags);
    storeLE<std::uint64_t>(out.data() + 5, job);
    return out;
}

std::string
encodeShutdown()
{
    return std::string(1, static_cast<char>(FrameType::Shutdown));
}

std::string
encodeHeartbeat()
{
    return std::string(1, static_cast<char>(FrameType::Heartbeat));
}

std::string
encodeResult(std::uint64_t job, const core::SweepOutcome &outcome)
{
    std::string out(1 + 8, '\0');
    out[0] = static_cast<char>(FrameType::Result);
    storeLE<std::uint64_t>(out.data() + 1, job);
    out += obs::writeJsonCompact(core::outcomeToJson(outcome, true));
    return out;
}

Request
decodeRequest(std::string_view payload)
{
    if (payload.empty())
        badFrame("empty request");
    Request req;
    switch (static_cast<FrameType>(
        static_cast<unsigned char>(payload[0]))) {
      case FrameType::Shutdown:
        req.type = FrameType::Shutdown;
        return req;
      case FrameType::Job:
        if (payload.size() != 1 + 4 + 8)
            badFrame("short job request");
        req.type = FrameType::Job;
        req.flags = loadLE<std::uint32_t>(payload.data() + 1);
        req.job = loadLE<std::uint64_t>(payload.data() + 5);
        return req;
      default:
        badFrame("unknown request type");
    }
}

FrameType
decodeResponse(std::string_view payload, std::uint64_t &job,
               core::SweepOutcome &outcome)
{
    if (payload.empty())
        badFrame("empty response");
    const auto type = static_cast<FrameType>(
        static_cast<unsigned char>(payload[0]));
    if (type == FrameType::Heartbeat)
        return type;
    if (type != FrameType::Result)
        badFrame("unknown response type");
    if (payload.size() < 1 + 8)
        badFrame("short result frame");
    job = loadLE<std::uint64_t>(payload.data() + 1);
    outcome = core::outcomeFromJson(obs::parseJson(payload.substr(1 + 8)),
                                    true);
    return type;
}

void
FrameSplitter::feed(const char *data, std::size_t size)
{
    // Compact once the consumed prefix dominates; keeps the buffer
    // O(one frame) over a long sweep.
    if (used > 0 && used >= buffer.size() / 2) {
        buffer.erase(0, used);
        used = 0;
    }
    buffer.append(data, size);
}

bool
FrameSplitter::next(std::string &payload)
{
    if (buffer.size() - used < 4)
        return false;
    const std::size_t len = loadLE<std::uint32_t>(buffer.data() + used);
    if (len > kMaxFramePayload)
        badFrame("oversized length prefix");
    if (buffer.size() - used < 4 + len)
        return false;
    payload.assign(buffer, used + 4, len);
    used += 4 + len;
    return true;
}

} // namespace gaas::proc
