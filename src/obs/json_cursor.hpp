/// \file json_cursor.hpp
/// \brief The one strict JSON cursor under both telemetry readers: the
///        trace event lines of obs/trace.cpp, written without whitespace
///        between tokens, and the metrics document of obs/metrics.cpp,
///        which the renderer breaks across lines.
///
/// It reads exactly the subset the writers emit: literal punctuation,
/// unsigned or signed decimal integers, and double-quoted strings whose
/// only escapes are \" and \\. Each grammar picks at construction
/// whether whitespace may separate tokens, so each accepts exactly what
/// its writer produces and nothing looser.
#pragma once

#include <charconv>
#include <cstddef>
#include <string>
#include <string_view>
#include <system_error>

namespace railcorr::obs {

class JsonCursor {
 public:
  /// `skip_space`: skip ' ', '\n', '\t' and '\r' before every token and
  /// before the end-of-text check.
  JsonCursor(std::string_view text, bool skip_space)
      : s_(text), skip_space_(skip_space) {}

  bool eat(char c) {
    skip_space();
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }

  bool eat_lit(std::string_view lit) {
    skip_space();
    if (s_.substr(i_, lit.size()) == lit) {
      i_ += lit.size();
      return true;
    }
    return false;
  }

  /// A decimal T: at least one digit, a '-' only where T is signed, no
  /// '+', and a value that does not fit is refused, not wrapped.
  template <typename T>
  bool parse_int(T& out) {
    skip_space();
    const auto [stop, ec] =
        std::from_chars(s_.data() + i_, s_.data() + s_.size(), out);
    if (ec != std::errc{}) return false;
    i_ = static_cast<std::size_t>(stop - s_.data());
    return true;
  }

  /// A quoted string; unescapes \" and \\ (the only escapes the writers
  /// emit) and refuses any other escape or a raw control byte.
  bool parse_string(std::string& out) {
    if (!eat('"')) return false;
    out.clear();
    while (i_ < s_.size()) {
      const char c = s_[i_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (i_ >= s_.size()) return false;
        const char esc = s_[i_++];
        if (esc != '"' && esc != '\\') return false;
        out.push_back(esc);
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return false;
      } else {
        out.push_back(c);
      }
    }
    return false;
  }

  /// True at the end of the text.
  [[nodiscard]] bool done() {
    skip_space();
    return i_ == s_.size();
  }

 private:
  void skip_space() {
    while (skip_space_ && i_ < s_.size() &&
           (s_[i_] == ' ' || s_[i_] == '\n' || s_[i_] == '\t' ||
            s_[i_] == '\r')) {
      ++i_;
    }
  }

  std::string_view s_;
  bool skip_space_;
  std::size_t i_ = 0;
};

}  // namespace railcorr::obs
