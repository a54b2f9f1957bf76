#include "util/config.hpp"

#include <charconv>

namespace railcorr::util {

namespace {

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' ||
                        s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

[[noreturn]] void raise_value_error(const SpecEntry& entry,
                                    const char* expected) {
  std::string msg = "malformed value for '" + entry.key + "'";
  if (entry.line > 0) msg += " (line " + std::to_string(entry.line) + ")";
  msg += ": expected " + std::string(expected) + ", got '" + entry.value + "'";
  throw ConfigError(msg);
}

}  // namespace

std::vector<SpecEntry> parse_spec(std::string_view text) {
  std::vector<SpecEntry> entries;
  int line_no = 0;
  while (!text.empty()) {
    ++line_no;
    const std::size_t eol = text.find('\n');
    std::string_view line =
        eol == std::string_view::npos ? text : text.substr(0, eol);
    text.remove_prefix(eol == std::string_view::npos ? text.size() : eol + 1);

    const std::size_t hash = line.find('#');
    if (hash != std::string_view::npos) line = line.substr(0, hash);
    line = trim(line);
    if (line.empty()) continue;

    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      throw ConfigError("spec line " + std::to_string(line_no) +
                        ": expected 'key = value', got '" + std::string(line) +
                        "'");
    }
    SpecEntry entry;
    entry.key = std::string(trim(line.substr(0, eq)));
    entry.value = std::string(trim(line.substr(eq + 1)));
    entry.line = line_no;
    if (entry.key.empty()) {
      throw ConfigError("spec line " + std::to_string(line_no) +
                        ": empty key before '='");
    }
    if (entry.value.empty()) {
      throw ConfigError("spec line " + std::to_string(line_no) +
                        ": empty value for '" + entry.key + "'");
    }
    entries.push_back(std::move(entry));
  }
  return entries;
}

double parse_double(const SpecEntry& entry) {
  double v = 0.0;
  if (!parse_whole(std::string_view(entry.value), v)) {
    raise_value_error(entry, "a number");
  }
  return v;
}

int parse_int(const SpecEntry& entry) {
  int v = 0;
  if (!parse_whole(std::string_view(entry.value), v)) {
    raise_value_error(entry, "an integer");
  }
  return v;
}

std::uint64_t parse_u64(const SpecEntry& entry) {
  std::uint64_t v = 0;
  if (!parse_whole(std::string_view(entry.value), v)) {
    raise_value_error(entry, "an unsigned integer");
  }
  return v;
}

bool parse_bool(const SpecEntry& entry) {
  if (entry.value == "true") return true;
  if (entry.value == "false") return false;
  raise_value_error(entry, "'true' or 'false'");
}

std::string format_double(double value) {
  char buf[32];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, result.ptr);
}

std::string format_int(int value) {
  return std::to_string(value);
}

std::string format_u64(std::uint64_t value) {
  return std::to_string(value);
}

std::string format_bool(bool value) {
  return value ? "true" : "false";
}

}  // namespace railcorr::util
