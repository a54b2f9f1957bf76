#include "orch/faultpoint.hpp"

#include <algorithm>
#include <cstdlib>

#include "util/config.hpp"
#include "util/rng.hpp"

namespace railcorr::orch {

namespace {

using util::ConfigError;

struct KindName {
  FaultKind kind;
  std::string_view name;
  bool takes_param;
};

constexpr KindName kKinds[] = {
    {FaultKind::kTornWrite, "torn-write", true},
    {FaultKind::kCorruptTrailer, "corrupt-trailer", false},
    {FaultKind::kStall, "stall", true},
    {FaultKind::kKillAfterCells, "kill", true},
    {FaultKind::kCacheTornWrite, "cache-torn-write", true},
    {FaultKind::kCacheCorruptSegment, "cache-corrupt-segment", false},
    {FaultKind::kCacheEvict, "cache-evict", false},
    {FaultKind::kLaunchRefused, "launch-refused", false},
    {FaultKind::kHostFlap, "host-flap", true},
    {FaultKind::kTransferTorn, "transfer-torn", true},
    {FaultKind::kTransferStalled, "transfer-stalled", false},
};

}  // namespace

std::string fault_spec_string(const FaultSpec& spec) {
  for (const auto& entry : kKinds) {
    if (entry.kind != spec.kind) continue;
    std::string out(entry.name);
    if (entry.takes_param) {
      out += '=';
      out += std::to_string(spec.param);
    }
    return out;
  }
  return "?";
}

FaultSpec parse_fault_spec(std::string_view text) {
  const std::size_t eq = text.find('=');
  const std::string_view name =
      eq == std::string_view::npos ? text : text.substr(0, eq);
  for (const auto& entry : kKinds) {
    if (name != entry.name) continue;
    FaultSpec spec;
    spec.kind = entry.kind;
    if (entry.takes_param) {
      if (eq == std::string_view::npos) {
        throw ConfigError("fault spec '" + std::string(text) + "': '" +
                          std::string(entry.name) + "' needs '=N'");
      }
      const std::string_view value = text.substr(eq + 1);
      if (value.empty()) {
        throw ConfigError("fault spec '" + std::string(text) +
                          "': empty value");
      }
      if (!util::parse_whole(value, spec.param)) {
        throw ConfigError("fault spec '" + std::string(text) +
                          "': expected a decimal value");
      }
    } else if (eq != std::string_view::npos) {
      throw ConfigError("fault spec '" + std::string(text) + "': '" +
                        std::string(entry.name) + "' takes no value");
    }
    return spec;
  }
  throw ConfigError(
      "fault spec '" + std::string(text) +
      "': expected torn-write=N, corrupt-trailer, stall=N, kill=N, "
      "cache-torn-write=N, cache-corrupt-segment, cache-evict, "
      "launch-refused, host-flap=N, transfer-torn=N, or transfer-stalled");
}

std::optional<FaultSpec> chaos_fault_for(std::uint64_t seed,
                                         std::size_t shard,
                                         std::size_t attempt,
                                         std::size_t retries,
                                         bool with_hosts, bool with_cache) {
  if (attempt >= retries) return std::nullopt;
  SplitMix64 rng(seed ^ (0x9e3779b97f4a7c15ULL * (shard + 1)) ^
                 (0xbf58476d1ce4e5b9ULL * (attempt + 1)));
  const std::uint64_t u = rng.next();
  switch (u % (with_hosts ? 12 : 8)) {
    case 0:
      return FaultSpec{FaultKind::kTornWrite,
                       1 + static_cast<std::size_t>((u >> 8) % 120)};
    case 1:
      return FaultSpec{FaultKind::kCorruptTrailer, 0};
    case 2:
      return FaultSpec{FaultKind::kStall, 1};
    case 3:
      return FaultSpec{FaultKind::kKillAfterCells, 1};
    case 4:
      // Cache faults poison the shared store, not the worker: the
      // attempt still succeeds, the damage must surface only as
      // recomputes.
      if (with_cache) {
        return FaultSpec{FaultKind::kCacheTornWrite,
                         1 + static_cast<std::size_t>((u >> 8) % 120)};
      }
      return std::nullopt;
    case 5:
      if (with_cache) {
        return FaultSpec{FaultKind::kCacheCorruptSegment, 0};
      }
      return std::nullopt;
    case 6:
      return FaultSpec{FaultKind::kLaunchRefused, 0};
    case 7:
      return FaultSpec{FaultKind::kTransferTorn,
                       1 + static_cast<std::size_t>((u >> 8) % 120)};
    case 8:
      return FaultSpec{FaultKind::kTransferStalled, 0};
    case 9:
      return FaultSpec{FaultKind::kHostFlap, 1};
    default:
      return std::nullopt;  // Clean attempt.
  }
}

void FaultInjector::arm(const FaultSpec& spec) {
  if (is_transfer_fault(spec.kind)) {
    throw ConfigError("fault '" + fault_spec_string(spec) +
                      "' is a fetch fault: only orchestrate --chaos-seed "
                      "injects it, and no worker site reads it");
  }
  armed_.push_back(spec);
}

void FaultInjector::arm_from_env() {
  const char* env = std::getenv("RAILCORR_FAULT");
  for (std::string_view rest = env == nullptr ? "" : env; !rest.empty();) {
    const std::size_t comma = std::min(rest.find(','), rest.size());
    std::string_view token = rest.substr(0, comma);
    rest.remove_prefix(std::min(comma + 1, rest.size()));
    while (!token.empty() && token.front() == ' ') token.remove_prefix(1);
    while (!token.empty() && token.back() == ' ') token.remove_suffix(1);
    if (!token.empty()) arm(parse_fault_spec(token));
  }
}

std::optional<std::size_t> FaultInjector::armed(FaultKind kind) const {
  for (const auto& spec : armed_) {
    if (spec.kind == kind) return spec.param;
  }
  return std::nullopt;
}

std::optional<FaultKind> FaultInjector::death_fault(std::size_t owned) const {
  std::optional<FaultKind> death;
  std::size_t lowest = owned + 1;  // Past every threshold the shard reaches.
  for (const FaultKind kind :
       {FaultKind::kKillAfterCells, FaultKind::kHostFlap, FaultKind::kStall}) {
    const auto param = armed(kind);
    if (!param.has_value()) continue;
    const std::size_t threshold = std::max<std::size_t>(1, *param);
    // Strictly below: a tie keeps the earlier kind.
    if (threshold < lowest) {
      death = kind;
      lowest = threshold;
    }
  }
  return death;
}

}  // namespace railcorr::orch
