/**
 * @file
 * Error-reporting helpers in the gem5 idiom.
 *
 * panic()  -- an internal invariant was violated (a bug in this
 *             library); aborts so a debugger or core dump can catch it.
 * fatal()  -- the simulation cannot continue because of a user error
 *             (bad configuration, invalid arguments); exits cleanly.
 * warn()   -- something is suspicious but the run can continue.
 */

#ifndef GAAS_UTIL_LOGGING_HH
#define GAAS_UTIL_LOGGING_HH

#include <sstream>
#include <string>
#include <string_view>

namespace gaas
{

namespace detail
{

/** Append the tail of a message built from stream-formattable parts. */
template <typename... Args>
std::string
formatParts(Args &&...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const std::string &msg);

} // namespace detail

/** Quiet all warn() output (used by tests and benches). */
void setLogQuiet(bool quiet);

/** @return true if warn() output is suppressed. */
bool logQuiet();

#define gaas_panic(...)                                                  \
    ::gaas::detail::panicImpl(__FILE__, __LINE__,                        \
                              ::gaas::detail::formatParts(__VA_ARGS__))

#define gaas_fatal(...)                                                  \
    ::gaas::detail::fatalImpl(__FILE__, __LINE__,                        \
                              ::gaas::detail::formatParts(__VA_ARGS__))

/** Report a recoverable anomaly to stderr (suppressed when quiet). */
template <typename... Args>
void
warn(Args &&...args)
{
    detail::warnImpl(detail::formatParts(std::forward<Args>(args)...));
}

/**
 * Exception carrying a fatal configuration error.
 *
 * fatal() throws this (rather than calling std::exit) so that library
 * users and the test suite can observe and recover from bad
 * configurations; the bench/example binaries let it propagate to
 * main() where it terminates the process with an error message.
 */
class FatalError : public std::exception
{
  public:
    explicit FatalError(std::string msg) : message(std::move(msg)) {}

    const char *
    what() const noexcept override
    {
        return message.c_str();
    }

  private:
    std::string message;
};

} // namespace gaas

#endif // GAAS_UTIL_LOGGING_HH
