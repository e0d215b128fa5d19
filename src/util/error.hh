/**
 * @file
 * The structured error model: every recoverable failure the library
 * reports carries a stable, machine-readable error code.
 *
 * SimError extends FatalError (so every existing `catch (const
 * FatalError &)` keeps working) with an ErrorCode that classifies the
 * failure: a bad configuration, trace-file I/O, stats/result-file
 * I/O, a watchdog trip, or an internal invariant.  The codes are
 * part of the public contract -- the sweep engine journals them, the
 * figure CSVs print them (`failed:<code>`), and the fuzz tests
 * assert that every rejection path produces one -- so their names
 * must stay stable across releases.
 *
 * Use `gaas_error(ErrorCode::X, ...)` where gaas_fatal was used
 * before; it formats the same way and additionally records the code.
 */

#ifndef GAAS_UTIL_ERROR_HH
#define GAAS_UTIL_ERROR_HH

#include <exception>
#include <string>

#include "util/logging.hh"

namespace gaas
{

/** Stable failure classification; see file comment. */
enum class ErrorCode
{
    Config,   //!< bad configuration text/values ("config")
    TraceIO,  //!< trace file open/read/write/format ("trace-io")
    StatsIO,  //!< stats/CSV/journal persistence ("stats-io")
    Watchdog, //!< zero-progress cycle budget exceeded ("watchdog")
    Internal, //!< unclassified or invariant failure ("internal")

    /** A multi-process sweep worker died (signal, crash, hang
     *  SIGKILLed by the supervisor) more times than the requeue
     *  budget allows; the point degrades to `failed:worker-lost`
     *  instead of aborting the ladder ("worker-lost"). */
    WorkerLost,

    /** The point was cancelled before it ran -- a SIGTERM/SIGINT
     *  drain marks every not-yet-started job with this code
     *  ("cancelled"). */
    Cancelled,

    /** A resource (the resume journal) is exclusively held by
     *  another live process ("locked"). */
    Locked,
};

/** The stable wire name of @p code (e.g. "trace-io"). */
const char *errorCodeName(ErrorCode code);

/**
 * Parse a wire name back to its code.
 *
 * @return true and set @p out on a known name, false otherwise
 */
bool parseErrorCode(const std::string &name, ErrorCode &out);

/** A FatalError carrying a stable ErrorCode; see file comment. */
class SimError : public FatalError
{
  public:
    SimError(ErrorCode code, std::string msg)
        : FatalError(std::move(msg)), errorCode(code)
    {
    }

    ErrorCode code() const noexcept { return errorCode; }

    /** The stable wire name of code(). */
    const char *codeName() const noexcept
    {
        return errorCodeName(errorCode);
    }

  private:
    ErrorCode errorCode;
};

/**
 * Run @p fn as a sweep point's fault fence does: @return true if it
 * returned, else false with @p code and @p message taken from what
 * it threw -- a SimError's own code, Internal for any other
 * exception.
 */
template <class Fn>
bool
captureError(Fn &&fn, ErrorCode &code, std::string &message)
{
    try {
        fn();
        return true;
    } catch (const SimError &e) {
        code = e.code();
        message = e.what();
    } catch (const std::exception &e) {
        code = ErrorCode::Internal;
        message = e.what();
    }
    return false;
}

namespace detail
{

[[noreturn]] void simErrorImpl(ErrorCode code, const char *file,
                               int line, const std::string &msg);

} // namespace detail

/** Throw a SimError with @p code, formatted like gaas_fatal. */
#define gaas_error(code, ...)                                            \
    ::gaas::detail::simErrorImpl(                                        \
        code, __FILE__, __LINE__,                                        \
        ::gaas::detail::formatParts(__VA_ARGS__))

} // namespace gaas

#endif // GAAS_UTIL_ERROR_HH
