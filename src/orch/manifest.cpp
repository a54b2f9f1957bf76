#include "orch/manifest.hpp"

#include "util/config.hpp"
#include "util/durable_io.hpp"

namespace railcorr::orch {

namespace {

using util::ConfigError;

constexpr std::string_view kMagic = "# railcorr-orchestrate-v1";

/// "key = " prefix match; returns the value tail.
bool key_value(std::string_view line, std::string_view key,
               std::string_view& value) {
  if (!line.starts_with(key)) return false;
  std::string_view rest = line.substr(key.size());
  if (!rest.starts_with(" = ")) return false;
  value = rest.substr(3);
  return true;
}

std::size_t parse_size(std::string_view text, const char* what) {
  if (text.empty()) {
    throw ConfigError(std::string("manifest: empty ") + what);
  }
  std::size_t value = 0;
  if (!util::parse_whole(text, value)) {
    throw ConfigError(std::string("manifest: malformed ") + what + " '" +
                      std::string(text) + "'");
  }
  return value;
}

}  // namespace

RunManifest RunManifest::plan_run(const corridor::SweepPlan& plan,
                                  std::size_t shards, bool include_sizing) {
  RunManifest manifest;
  manifest.fingerprint = plan.fingerprint();
  manifest.grid = plan.size();
  manifest.shards = shards;
  manifest.include_sizing = include_sizing;
  manifest.banner = corridor::shard_banner(plan);
  return manifest;
}

RunManifest RunManifest::parse(std::string_view text) {
  RunManifest manifest;
  bool magic_seen = false;
  bool fingerprint_seen = false, grid_seen = false, shards_seen = false,
       sizing_seen = false, banner_seen = false;
  // The manifest is appended one synced line at a time, so the only
  // torn state a crash can leave is a final line with no trailing
  // newline. Such a line is dropped, not diagnosed: the entry it was
  // recording simply never became durable, which is exactly the
  // recovery semantic resume wants. Mid-document damage still throws.
  const bool ends_with_newline = !text.empty() && text.back() == '\n';
  std::size_t line_no = 0;

  const auto apply_line = [&](std::string_view line) {
    std::string_view value;
    if (key_value(line, "fingerprint", value)) {
      if (!util::parse_hex16(value, manifest.fingerprint)) {
        throw ConfigError(
            "manifest: fingerprint must be 16 hex digits, got '" +
            std::string(value) + "'");
      }
      fingerprint_seen = true;
    } else if (key_value(line, "grid", value)) {
      manifest.grid = parse_size(value, "grid");
      grid_seen = true;
    } else if (key_value(line, "shards", value)) {
      manifest.shards = parse_size(value, "shards");
      shards_seen = true;
    } else if (key_value(line, "sizing", value)) {
      if (value != "0" && value != "1") {
        throw ConfigError("manifest: sizing must be 0 or 1, got '" +
                          std::string(value) + "'");
      }
      manifest.include_sizing = value == "1";
      sizing_seen = true;
    } else if (key_value(line, "banner", value)) {
      manifest.banner = std::string(value);
      banner_seen = true;
    } else if (line.starts_with("done ")) {
      std::string_view rest = line.substr(5);
      const std::size_t space = rest.find(' ');
      if (space == std::string_view::npos || space == 0 ||
          space + 1 >= rest.size()) {
        throw ConfigError("manifest line " + std::to_string(line_no) +
                          ": expected 'done <shard> <file>'");
      }
      manifest.done.emplace_back(
          parse_size(rest.substr(0, space), "done shard index"),
          std::string(rest.substr(space + 1)));
    } else if (line.starts_with("fail ")) {
      std::string_view rest = line.substr(5);
      const std::size_t first = rest.find(' ');
      const std::size_t second =
          first == std::string_view::npos ? first : rest.find(' ', first + 1);
      if (first == std::string_view::npos ||
          second == std::string_view::npos || first == 0 ||
          second == first + 1 || second + 1 >= rest.size()) {
        throw ConfigError("manifest line " + std::to_string(line_no) +
                          ": expected 'fail <shard> <attempt> <class>'");
      }
      Failure failure;
      failure.shard = parse_size(rest.substr(0, first), "fail shard index");
      failure.attempt = parse_size(rest.substr(first + 1, second - first - 1),
                                   "fail attempt");
      failure.cause = std::string(rest.substr(second + 1));
      manifest.failures.push_back(std::move(failure));
    } else if (line.starts_with("host ")) {
      std::string_view rest = line.substr(5);
      const std::size_t space = rest.find(' ');
      if (space == std::string_view::npos || space == 0 ||
          space + 1 >= rest.size()) {
        throw ConfigError("manifest line " + std::to_string(line_no) +
                          ": expected 'host <name> <event>'");
      }
      HostEvent event;
      event.host = std::string(rest.substr(0, space));
      event.event = std::string(rest.substr(space + 1));
      manifest.host_events.push_back(std::move(event));
    } else if (line.starts_with("info ")) {
      manifest.infos.emplace_back(line.substr(5));
    } else {
      throw ConfigError("manifest line " + std::to_string(line_no) +
                        ": unrecognized entry '" + std::string(line) + "'");
    }
  };

  while (!text.empty()) {
    ++line_no;
    const std::size_t eol = text.find('\n');
    std::string_view line =
        eol == std::string_view::npos ? text : text.substr(0, eol);
    const bool torn_final =
        eol == std::string_view::npos && !ends_with_newline;
    text.remove_prefix(eol == std::string_view::npos ? text.size() : eol + 1);
    // A CRLF file's '\r' goes, and so does any run of them: a value
    // that kept one would not survive header_text().
    while (line.ends_with('\r')) line.remove_suffix(1);
    if (line.empty()) continue;

    if (!magic_seen) {
      if (line != kMagic) {
        throw ConfigError("manifest: missing '" + std::string(kMagic) +
                          "' magic on line 1");
      }
      magic_seen = true;
      continue;
    }

    if (torn_final) {
      // A malformed final line with no trailing newline is the one torn
      // state a crashed synced-append writer can leave; the entry it
      // was recording never became durable, so drop it. A final line
      // that parses cleanly is kept (its newline just never landed).
      // Mid-document damage still throws above.
      try {
        apply_line(line);
      } catch (const ConfigError&) {
      }
      break;
    }
    apply_line(line);
  }
  if (!magic_seen) throw ConfigError("manifest: empty document");
  if (!fingerprint_seen || !grid_seen || !shards_seen || !sizing_seen ||
      !banner_seen) {
    throw ConfigError(
        "manifest: header incomplete (fingerprint/grid/shards/sizing/banner "
        "all required)");
  }
  for (const auto& [shard, file] : manifest.done) {
    if (shard >= manifest.shards) {
      throw ConfigError("manifest: done shard " + std::to_string(shard) +
                        " outside shard count " +
                        std::to_string(manifest.shards));
    }
    (void)file;
  }
  for (const auto& failure : manifest.failures) {
    if (failure.shard >= manifest.shards) {
      throw ConfigError("manifest: fail shard " +
                        std::to_string(failure.shard) +
                        " outside shard count " +
                        std::to_string(manifest.shards));
    }
  }
  return manifest;
}

std::string RunManifest::header_text() const {
  return std::string(kMagic) + "\n" +
         "fingerprint = " + util::hex16(fingerprint) + "\n" +
         "grid = " + std::to_string(grid) + "\n" +
         "shards = " + std::to_string(shards) + "\n" +
         "sizing = " + (include_sizing ? "1" : "0") + "\n" +
         "banner = " + banner + "\n";
}

std::string RunManifest::done_line(std::size_t shard,
                                   const std::string& file) {
  return "done " + std::to_string(shard) + " " + file;
}

std::string RunManifest::fail_line(std::size_t shard, std::size_t attempt,
                                   const std::string& cause) {
  return "fail " + std::to_string(shard) + " " + std::to_string(attempt) +
         " " + cause;
}

std::string RunManifest::host_line(const std::string& host,
                                   const std::string& event) {
  return "host " + host + " " + event;
}

std::string RunManifest::info_line(const std::string& text) {
  return "info " + text;
}

bool RunManifest::is_done(std::size_t shard) const {
  for (const auto& [done_shard, file] : done) {
    (void)file;
    if (done_shard == shard) return true;
  }
  return false;
}

std::vector<std::string> RunManifest::mismatches_against(
    const RunManifest& wanted) const {
  std::vector<std::string> errors;
  if (fingerprint != wanted.fingerprint) {
    errors.push_back("plan fingerprint mismatch: manifest has " +
                     util::hex16(fingerprint) +
                     ", this invocation's plan is " +
                     util::hex16(wanted.fingerprint));
  }
  if (banner != wanted.banner) {
    errors.push_back("banner mismatch: manifest has '" +
                     banner + "', this invocation would produce '" +
                     wanted.banner + "'");
  }
  if (shards != wanted.shards) {
    errors.push_back("shard count mismatch: manifest has " +
                     std::to_string(shards) + ", this invocation wants " +
                     std::to_string(wanted.shards));
  }
  if (include_sizing != wanted.include_sizing) {
    errors.push_back(std::string("sizing mismatch: manifest recorded ") +
                     (include_sizing ? "--include-sizing" : "no sizing") +
                     ", this invocation wants " +
                     (wanted.include_sizing ? "--include-sizing" : "no sizing"));
  }
  return errors;
}

}  // namespace railcorr::orch
