/**
 * @file
 * Text (de)serialization of SystemConfig: a simple `key = value`
 * format so design points can be saved, shared, and replayed from
 * the command line (see examples/design_space_explorer).
 */

#ifndef GAAS_CORE_CONFIG_IO_HH
#define GAAS_CORE_CONFIG_IO_HH

#include <iosfwd>
#include <string>

#include "core/config.hh"

namespace gaas::core
{

/** Write @p config as `key = value` lines. */
void saveConfig(const SystemConfig &config, std::ostream &os);

/** saveConfig to a file; throws FatalError on I/O failure. */
void saveConfigFile(const SystemConfig &config,
                    const std::string &path);

/**
 * Parse a configuration from `key = value` lines.
 *
 * Two-phase and order-independent: all pairs are collected first,
 * then applied in the one key table's order (the order saveConfig
 * writes), so the result never depends on the line order of the
 * file.  Policy defaults triggered by `write_policy` are applied
 * before any explicit `wb.*` override, wherever those lines appear.
 *
 * Numbers are unsigned decimals that fit the field: a sign, a base
 * prefix, trailing text or a value past the field's width is an
 * error, and a leading zero does not mean octal.  Unknown keys, bad
 * values, malformed lines, and duplicate keys are fatal
 * (ErrorCode::Config) with the offending line number and key (a
 * config file with a typo must not silently fall back to a
 * default).  Blank lines and lines starting with '#' are ignored.
 * Keys not present keep the baseline default.  The result is
 * validated.
 */
SystemConfig loadConfig(std::istream &is);

/** loadConfig from a file; throws FatalError if unreadable. */
SystemConfig loadConfigFile(const std::string &path);

} // namespace gaas::core

#endif // GAAS_CORE_CONFIG_IO_HH
