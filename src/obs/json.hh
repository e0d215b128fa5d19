/**
 * @file
 * Minimal JSON document model, writer and parser for statistics
 * dumps.
 *
 * This is deliberately not a general-purpose JSON library: it
 * supports exactly the subset the observability layer emits --
 * objects with ordered members, flat arrays of numbers, strings,
 * numbers and null -- and it preserves both member order and the
 * exact numeric token text, so that parse(write(x)) re-emits
 * byte-identically.  The goldencheck `--json-roundtrip` mode uses
 * that property to lock the dump schema: any emitter change the
 * parser cannot reproduce fails the round-trip byte-compare.
 *
 * Key order is registration order (see obs/metrics.hh) and numbers
 * are written with std::to_chars shortest round-trip formatting, so
 * two dumps of the same run are byte-identical and two dumps of
 * different runs diff minimally.
 */

#ifndef GAAS_OBS_JSON_HH
#define GAAS_OBS_JSON_HH

#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.hh"
#include "util/types.hh"

namespace gaas::obs
{

/** One JSON value; a tree of these is a document. */
struct JsonValue
{
    enum class Type { Object, Array, String, Number, Null };

    Type type = Type::Object;

    /** Object members, in emission order. */
    std::vector<std::pair<std::string, JsonValue>> members;

    /** Array elements. */
    std::vector<JsonValue> items;

    /** String content (unescaped) or the raw number token. */
    std::string scalar;

    /** @name Construction helpers */
    ///@{
    static JsonValue object();
    static JsonValue array();
    static JsonValue string(std::string text);
    static JsonValue number(Count v);
    static JsonValue number(double v); //!< non-finite becomes null
    ///@}

    /** Member lookup (objects only); nullptr if absent. */
    const JsonValue *member(std::string_view key) const;
};

/** Shortest-round-trip decimal text for @p v (std::to_chars). */
std::string formatDouble(double v);

/**
 * Convert @p reg to a nested object: dotted names become object
 * paths (`l1d.read_misses` -> `{"l1d": {"read_misses": ...}}`),
 * opened in registration order.  A name that is both a leaf and a
 * prefix of another name is a schema error (FatalError).
 */
JsonValue toJson(const Registry &reg);

/**
 * Write @p v to @p os: objects multi-line with two-space indent,
 * arrays inline, trailing newline at top level.
 */
void writeJson(const JsonValue &v, std::ostream &os);

/** writeJson to a string. */
std::string writeJsonString(const JsonValue &v);

/**
 * Single-line, no-whitespace rendering of @p v (no trailing
 * newline): one journal record per line (core/journal.hh) needs the
 * whole document on one line so a torn tail is detectable.
 * parseJson reads it back exactly.
 */
std::string writeJsonCompact(const JsonValue &v);

/**
 * Parse @p text (throws SimError(StatsIO) with an offset on
 * malformed input, so a decoder that reads a document sees one
 * error type for bad syntax and bad content).  Number tokens are
 * kept verbatim, so re-emitting a parsed document reproduces this
 * library's own output byte-for-byte.
 */
JsonValue parseJson(std::string_view text);

} // namespace gaas::obs

#endif // GAAS_OBS_JSON_HH
