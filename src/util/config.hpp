/// \file config.hpp
/// \brief The ScenarioSpec text format: a minimal, dependency-free
///        `key.path = value` configuration syntax plus deterministic
///        value formatting.
///
/// Grammar (one entry per line):
///
///     # comment — '#' starts a comment anywhere on a line
///     link.carrier.center_frequency_hz = 3.5e9
///     energy.hp_sleep_when_idle        = true
///
/// Keys are dot-separated paths; values are scalars (double, int,
/// bool, uint64, or a bare enum word). Blank lines are skipped. The
/// parser is purely lexical: it yields ordered (key, value, line)
/// entries and leaves typing to the consumer (core/scenario_spec.hpp
/// binds entries to `core::Scenario` fields), so the same syntax also
/// drives sweep-plan files (corridor/sweep.hpp).
///
/// Formatting is the other half of the determinism contract: every
/// double is rendered by `format_double` (std::to_chars, shortest
/// form that round-trips exactly), so serialize -> parse -> serialize
/// is byte-stable and shard CSVs produced on different processes
/// compare byte-for-byte.
#pragma once

#include <charconv>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

namespace railcorr::util {

/// Error raised for any syntax, unknown-key, or malformed-value
/// problem in a spec document. The message carries the offending key
/// and 1-based line number when known.
class ConfigError : public std::runtime_error {
 public:
  explicit ConfigError(const std::string& what) : std::runtime_error(what) {}
};

/// One parsed `key = value` entry.
struct SpecEntry {
  std::string key;
  std::string value;
  /// 1-based source line; 0 for entries built programmatically.
  int line = 0;
};

/// Parse a spec document into ordered entries. Throws ConfigError on
/// lines that are neither blank, comment, nor `key = value`.
std::vector<SpecEntry> parse_spec(std::string_view text);

/// std::from_chars over the whole of `token`: true only when the token
/// is one value of T that fits, with no blank, no trailing byte, no
/// '+', and no '-' on an unsigned T. The decimal fields of the
/// program's files, worker progress lines, fault specs and flags are
/// read by this, or by std::from_chars itself where a cursor moves past
/// the number.
template <typename T>
bool parse_whole(std::string_view token, T& out) {
  const char* const end = token.data() + token.size();
  const auto [stop, ec] = std::from_chars(token.data(), end, out);
  return ec == std::errc{} && stop == end;
}

/// \name Typed value parsing
/// Each throws ConfigError naming the entry's key and line when the
/// value does not parse (or does not consume the whole token).
///@{
double parse_double(const SpecEntry& entry);
int parse_int(const SpecEntry& entry);
std::uint64_t parse_u64(const SpecEntry& entry);
/// Accepts `true` / `false` only.
bool parse_bool(const SpecEntry& entry);
///@}

/// \name Deterministic value formatting
/// The shortest decimal form that parses back to the identical bit
/// pattern (std::to_chars); the same function everywhere is what makes
/// spec and CSV output byte-stable across processes and shards.
///@{
std::string format_double(double value);
std::string format_int(int value);
std::string format_u64(std::uint64_t value);
std::string format_bool(bool value);
///@}

}  // namespace railcorr::util
