/**
 * @file
 * Strict environment-variable parsing shared by the sweep engine and
 * the bench harness.
 *
 * Every numeric knob (GAAS_BENCH_JOBS, GAAS_BENCH_INSTRUCTIONS, ...)
 * goes through the same rules: the whole value must parse as a
 * positive decimal integer -- trailing garbage ("4x"), overflow,
 * signs, whitespace and zero are all rejected with a loud warn() and
 * fall back to the caller's default.  The one exception is zero for
 * a knob that gives it a meaning (GAAS_BENCH_WARMUP=0: no warmup,
 * GAAS_BENCH_WATCHDOG=0: off).  A silently half-parsed knob (e.g.
 * "4x" read as 4) is worse than an ignored one.
 */

#ifndef GAAS_UTIL_ENV_HH
#define GAAS_UTIL_ENV_HH

#include <cstdint>
#include <optional>
#include <string_view>

namespace gaas
{

/**
 * Parse the whole of @p text as an unsigned decimal integer.
 *
 * @return nullopt if @p text is empty, has any non-digit character
 *         (including leading/trailing whitespace or a sign), or
 *         overflows uint64
 */
std::optional<std::uint64_t> parseU64(std::string_view text);

/**
 * Read environment variable @p name as a positive integer, or a
 * non-negative one when @p zero_ok.
 *
 * Unset or empty returns @p fallback silently; a present but
 * malformed or overflowing value, or a zero one unless @p zero_ok,
 * warns and returns @p fallback.
 */
std::uint64_t envU64(const char *name, std::uint64_t fallback,
                     bool zero_ok = false);

/**
 * envU64 for a knob held in an unsigned: a value past its range is
 * malformed too, so it warns and returns @p fallback rather than
 * wrapping.
 */
unsigned envUnsigned(const char *name, unsigned fallback);

/**
 * Parse the whole of @p text as a finite decimal double
 * (std::from_chars, fixed or scientific; no leading whitespace or
 * trailing garbage tolerated, same strictness as parseU64).
 */
std::optional<double> parseDouble(std::string_view text);

} // namespace gaas

#endif // GAAS_UTIL_ENV_HH
