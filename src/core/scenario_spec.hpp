/// \file scenario_spec.hpp
/// \brief Declarative serialization of core::Scenario: every tunable of
///        the study is addressable by a dot-separated key path, so whole
///        scenarios round-trip through the ScenarioSpec text format
///        (util/config.hpp) and sweeps override fields as data, not code.
///
/// The binding is a field registry. A numeric row declares its key path
/// (`radio.lp_eirp_dbm`, `timetable.trains_per_hour`, ...), its doc, the
/// one Scenario member it binds and, where the evaluation needs one, a
/// range rule (`positive`, `at_least_one`, `in_range<lo, hi>`, ...).
/// Getter and setter both come from that one binding and the member
/// type's format/parse pair (double, int, uint64, bool and the unit
/// types), so a row cannot read one member and write another. The
/// parameters of the validating model classes (NrCarrier,
/// FronthaulModel, ThroughputModel, EarthPowerModel) bind as (model,
/// constructor parameter): setting one rebuilds the model through its
/// constructor with that parameter replaced. The `link.noise_model`
/// enum and the `sizing.locations` / `sizing.ladder` lists keep
/// hand-written accessors.
///
/// `to_spec` emits every field in registry order with round-trip-exact
/// formatting; `apply_spec` / `apply_override` set any subset. Parsing
/// starts from the paper defaults, so an empty spec is exactly
/// `Scenario::paper()` and a spec file only needs the deltas.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/scenario.hpp"
#include "util/config.hpp"

namespace railcorr::core {

/// Public description of one registered scenario field (for docs, CLI
/// `show`, and error messages).
struct ScenarioFieldInfo {
  std::string_view key;
  /// Short human description including the paper default.
  std::string_view doc;
};

/// All registered key paths, in emission order.
const std::vector<ScenarioFieldInfo>& scenario_fields();

/// Render every registered field as `key = value` lines (registry
/// order, deterministic formatting). parse(to_spec(s)) == s for any
/// spec-reachable Scenario.
///
/// With `prefixes`, only the fields whose key starts with one of them:
/// the canonical sub-spec of the keys one evaluation stage reads. The
/// formatting round-trips exactly, so two scenarios render equal
/// sub-specs iff they agree on every selected field.
std::string to_spec(const Scenario& scenario,
                    std::span<const std::string_view> prefixes = {});

/// Apply one override. Throws util::ConfigError on an unknown key or a
/// malformed/invalid value (the message names key and line).
void apply_override(Scenario& scenario, const util::SpecEntry& entry);

/// Apply a whole document of overrides in order.
void apply_spec(Scenario& scenario, std::string_view spec_text);

/// Paper defaults + the document's overrides.
Scenario scenario_from_spec(std::string_view spec_text);

}  // namespace railcorr::core
