#include "env.hh"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "util/logging.hh"

namespace gaas
{

std::optional<std::uint64_t>
parseU64(std::string_view text)
{
    if (text.empty())
        return std::nullopt;
    std::uint64_t value = 0;
    const char *begin = text.data();
    const char *end = begin + text.size();
    const auto res = std::from_chars(begin, end, value, 10);
    if (res.ec != std::errc{} || res.ptr != end)
        return std::nullopt;
    return value;
}

std::uint64_t
envU64(const char *name, std::uint64_t fallback, bool zero_ok)
{
    const char *value = std::getenv(name);
    if (!value || !*value)
        return fallback;
    if (const auto parsed = parseU64(value);
        parsed && (*parsed > 0 || zero_ok))
        return *parsed;
    warn("ignoring bad ", name, "=", value,
         zero_ok ? " (want a decimal integer)"
                 : " (want a positive decimal integer)");
    return fallback;
}

unsigned
envUnsigned(const char *name, unsigned fallback)
{
    const std::uint64_t value = envU64(name, fallback);
    if (value <= std::numeric_limits<unsigned>::max())
        return static_cast<unsigned>(value);
    warn("ignoring ", name, "=", value, " (does not fit an unsigned)");
    return fallback;
}

std::optional<double>
parseDouble(std::string_view text)
{
    if (text.empty())
        return std::nullopt;
    double value = 0.0;
    const char *begin = text.data();
    const char *end = begin + text.size();
    const auto res = std::from_chars(begin, end, value);
    if (res.ec != std::errc{} || res.ptr != end ||
        !std::isfinite(value))
        return std::nullopt;
    return value;
}

} // namespace gaas
