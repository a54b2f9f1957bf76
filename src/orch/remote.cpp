#include "orch/remote.hpp"

#include <algorithm>
#include <utility>

#include "util/config.hpp"
#include "util/contracts.hpp"

namespace railcorr::orch {

namespace {

using util::ConfigError;

std::vector<std::string> split_tokens(std::string_view text) {
  std::vector<std::string> tokens;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && (text[i] == ' ' || text[i] == '\t')) ++i;
    std::size_t start = i;
    while (i < text.size() && text[i] != ' ' && text[i] != '\t') ++i;
    if (i > start) tokens.emplace_back(text.substr(start, i - start));
  }
  return tokens;
}

}  // namespace

std::vector<std::string> parse_host_list(std::string_view text) {
  std::vector<std::string> hosts;
  std::string_view rest = text;
  while (true) {
    const std::size_t comma = rest.find(',');
    std::string_view token =
        comma == std::string_view::npos ? rest : rest.substr(0, comma);
    while (!token.empty() && (token.front() == ' ' || token.front() == '\t')) {
      token.remove_prefix(1);
    }
    while (!token.empty() && (token.back() == ' ' || token.back() == '\t')) {
      token.remove_suffix(1);
    }
    if (token.empty()) {
      throw ConfigError("--hosts: empty host name in '" + std::string(text) +
                        "'");
    }
    if (token.find(' ') != std::string_view::npos ||
        token.find('\t') != std::string_view::npos) {
      throw ConfigError("--hosts: host name '" + std::string(token) +
                        "' contains whitespace");
    }
    for (const auto& existing : hosts) {
      if (existing == token) {
        throw ConfigError("--hosts: duplicate host name '" +
                          std::string(token) + "'");
      }
    }
    hosts.emplace_back(token);
    if (comma == std::string_view::npos) break;
    rest.remove_prefix(comma + 1);
  }
  return hosts;
}

std::string shell_quote(std::string_view word) {
  std::string out = "'";
  for (const char c : word) {
    if (c == '\'') {
      out += "'\\''";
    } else {
      out += c;
    }
  }
  out += "'";
  return out;
}

std::string shell_join(const std::vector<std::string>& argv) {
  std::string out;
  for (const auto& word : argv) {
    if (!out.empty()) out += ' ';
    out += shell_quote(word);
  }
  return out;
}

CommandTemplate CommandTemplate::launcher(std::string_view text) {
  return parse(text, "--launcher", {"host", "cmd"}, {"cmd"});
}

CommandTemplate CommandTemplate::fetch(std::string_view text) {
  return parse(text, "--fetch", {"host", "remote", "local"},
               {"remote", "local"});
}

CommandTemplate CommandTemplate::parse(
    std::string_view text, std::string_view flag,
    std::initializer_list<std::string_view> names,
    std::initializer_list<std::string_view> required) {
  CommandTemplate tmpl;
  tmpl.slots_ = names.size();
  const std::vector<std::string> tokens = split_tokens(text);
  if (tokens.empty()) {
    throw ConfigError(std::string(flag) + " template is empty");
  }
  // Braces outside a known placeholder are errors — a typo like
  // `{hots}` must fail at parse time, not launch a worker onto a
  // literal host named "{hots}".
  std::vector<bool> seen(names.size(), false);
  for (const auto& token : tokens) {
    std::vector<Piece>& pieces = tmpl.tokens_.emplace_back();
    std::string literal;
    std::size_t i = 0;
    while (i < token.size()) {
      if (token[i] == '}') {
        throw ConfigError(std::string(flag) + " template token '" + token +
                          "': unbalanced '}'");
      }
      if (token[i] != '{') {
        literal += token[i++];
        continue;
      }
      const std::size_t close = token.find('}', i + 1);
      if (close == std::string::npos) {
        throw ConfigError(std::string(flag) + " template token '" + token +
                          "': unbalanced '{'");
      }
      const std::string_view name(token.data() + i + 1, close - i - 1);
      const auto known = std::find(names.begin(), names.end(), name);
      if (known == names.end()) {
        std::string valid;
        for (const auto candidate : names) {
          valid += (valid.empty() ? "{" : ", {") + std::string(candidate) + "}";
        }
        throw ConfigError(std::string(flag) +
                          " template: unknown placeholder '{" +
                          std::string(name) + "}' (valid: " + valid + ")");
      }
      const auto slot = static_cast<std::size_t>(known - names.begin());
      seen[slot] = true;
      if (!literal.empty()) pieces.push_back(Piece{std::exchange(literal, {})});
      pieces.push_back(Piece{"", slot});
      i = close + 1;
    }
    if (!literal.empty()) pieces.push_back(Piece{std::move(literal)});
  }
  for (const auto name : required) {
    const auto slot = static_cast<std::size_t>(
        std::find(names.begin(), names.end(), name) - names.begin());
    if (!seen[slot]) {
      throw ConfigError(std::string(flag) + " template must contain '{" +
                        std::string(name) + "}'");
    }
  }
  return tmpl;
}

std::vector<std::string> CommandTemplate::build(
    std::initializer_list<std::string_view> values) const {
  RAILCORR_EXPECTS(values.size() == slots_);
  std::vector<std::string> argv;
  argv.reserve(tokens_.size());
  for (const auto& pieces : tokens_) {
    std::string& arg = argv.emplace_back();
    for (const Piece& piece : pieces) {
      arg += piece.slot == kLiteral ? std::string_view(piece.text)
                                    : values.begin()[piece.slot];
    }
  }
  return argv;
}

FleetHealth::FleetHealth(std::vector<std::string> hosts,
                         FleetHealthOptions options)
    : options_(options) {
  hosts_.reserve(hosts.size());
  for (auto& name : hosts) {
    Host host;
    host.name = std::move(name);
    hosts_.push_back(std::move(host));
  }
}

std::optional<std::size_t> FleetHealth::acquire(double now_s) {
  // A due re-probe first: one attempt at a time onto a quarantined
  // host whose backoff has expired (earliest due date wins; ties break
  // by list order for determinism).
  std::size_t probe = hosts_.size();
  for (std::size_t i = 0; i < hosts_.size(); ++i) {
    const Host& host = hosts_[i];
    if (!host.quarantined || host.dead || host.inflight > 0) continue;
    if (host.probe_at_s > now_s) continue;
    if (probe == hosts_.size() || host.probe_at_s < hosts_[probe].probe_at_s) {
      probe = i;
    }
  }
  if (probe < hosts_.size()) {
    hosts_[probe].probing = true;
    ++hosts_[probe].inflight;
    events_.push_back({hosts_[probe].name, "probe"});
    return probe;
  }

  std::size_t best = hosts_.size();
  for (std::size_t i = 0; i < hosts_.size(); ++i) {
    const Host& host = hosts_[i];
    if (host.quarantined || host.dead) continue;
    if (best == hosts_.size() || host.inflight < hosts_[best].inflight) {
      best = i;
    }
  }
  if (best == hosts_.size()) return std::nullopt;
  ++hosts_[best].inflight;
  return best;
}

void FleetHealth::quarantine(Host& host, double now_s) {
  ++host.quarantines;
  host.consecutive_failures = 0;
  if (host.quarantines >= options_.dead_after) {
    host.quarantined = true;
    host.dead = true;
    events_.push_back({host.name, "dead"});
    return;
  }
  host.quarantined = true;
  const double factor = static_cast<double>(
      1ULL << std::min<std::size_t>(host.quarantines - 1, 16));
  host.probe_at_s =
      now_s + std::min(options_.probe_cap_s, options_.probe_base_s * factor);
  events_.push_back({host.name, "quarantine"});
}

void FleetHealth::release(std::size_t host_index, bool transport_failure,
                          double now_s) {
  Host& host = hosts_[host_index];
  if (host.inflight > 0) --host.inflight;
  const bool was_probe = host.probing;
  host.probing = false;
  if (host.dead) return;

  if (!transport_failure) {
    host.consecutive_failures = 0;
    if (host.quarantined) {
      // The probe attempt proved the transport (even if the worker
      // then failed for compute reasons — launch + streaming is what a
      // probe tests).
      host.quarantined = false;
      events_.push_back({host.name, "recover"});
    }
    return;
  }

  ++host.consecutive_failures;
  if (was_probe) {
    // A failed probe re-quarantines immediately with a longer backoff.
    quarantine(host, now_s);
    return;
  }
  if (!host.quarantined &&
      host.consecutive_failures >= options_.quarantine_after) {
    quarantine(host, now_s);
  }
}

bool FleetHealth::all_dead() const {
  for (const auto& host : hosts_) {
    if (!host.dead) return false;
  }
  return !hosts_.empty();
}

std::size_t FleetHealth::healthy() const {
  std::size_t n = 0;
  for (const auto& host : hosts_) {
    if (!host.quarantined && !host.dead) ++n;
  }
  return n;
}

std::optional<double> FleetHealth::next_probe_s() const {
  std::optional<double> earliest;
  for (const auto& host : hosts_) {
    if (!host.quarantined || host.dead || host.inflight > 0) continue;
    if (!earliest.has_value() || host.probe_at_s < *earliest) {
      earliest = host.probe_at_s;
    }
  }
  return earliest;
}

std::vector<HostEvent> FleetHealth::drain_events() {
  std::vector<HostEvent> events = std::move(events_);
  events_.clear();
  return events;
}

}  // namespace railcorr::orch
