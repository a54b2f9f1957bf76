#include "core/scenario_spec.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <tuple>
#include <type_traits>

#include "util/contracts.hpp"

namespace railcorr::core {

namespace {

using util::SpecEntry;

/// One registry row: key + doc + typed accessors. The row builders
/// below instantiate both from stateless lambdas, so the table is plain
/// static data.
struct Field {
  ScenarioFieldInfo info;
  std::string (*get)(const Scenario&);
  void (*set)(Scenario&, const SpecEntry&);
};

/// The one text form of each value type: doubles and the unit types
/// (Db, Dbm, Watts) as round-trip-exact decimals, integers in base 10,
/// bools as true/false.
template <typename T>
std::string format(T v) {
  if constexpr (std::is_same_v<T, double>) {
    return util::format_double(v);
  } else if constexpr (std::is_same_v<T, int>) {
    return util::format_int(v);
  } else if constexpr (std::is_same_v<T, std::uint64_t>) {
    return util::format_u64(v);
  } else if constexpr (std::is_same_v<T, bool>) {
    return util::format_bool(v);
  } else {
    return util::format_double(v.value());
  }
}

template <typename T>
T parse(const SpecEntry& e) {
  if constexpr (std::is_same_v<T, double>) {
    return util::parse_double(e);
  } else if constexpr (std::is_same_v<T, int>) {
    return util::parse_int(e);
  } else if constexpr (std::is_same_v<T, std::uint64_t>) {
    return util::parse_u64(e);
  } else if constexpr (std::is_same_v<T, bool>) {
    return util::parse_bool(e);
  } else {
    return T(util::parse_double(e));
  }
}

/// Study-shape and traffic values the max-ISD search or the models'
/// contracts cannot run with are rejected when the spec is applied:
/// apply_override reports the violation as "invalid value for '<key>'
/// (line N)".
void positive(double v) {
  if (!(v > 0.0)) throw ContractViolation("must be positive");
}

void at_least_one(int v) {
  if (v < 1) throw ContractViolation("must be at least 1");
}

/// Sizing values the weather synthesis and the transposition cannot run
/// with are rejected the same way. Every test is written so that NaN
/// fails it. (kt_min < kt_max spans two keys, so the synthesis checks
/// it.)
template <int Lo, int Hi>
void in_range(double v) {
  if (!(v >= Lo && v <= Hi)) {
    throw ContractViolation("must be in [" + util::format_double(Lo) + ", " +
                            util::format_double(Hi) + "]");
  }
}

void non_negative(double v) {
  if (!(v >= 0.0)) throw ContractViolation("must be non-negative");
}

/// [0, Hi), half-open.
template <int Hi>
void below(double v) {
  if (!(v >= 0.0 && v < Hi)) {
    throw ContractViolation("must be in [0, " + util::format_double(Hi) + ")");
  }
}

/// The Erbs diffuse fraction is defined for clearness <= 1.
void at_most_one(double v) {
  if (!(v <= 1.0)) throw ContractViolation("must be at most 1");
}

/// The type of the member a row's `[](auto& s) -> auto& { ... }` binds.
template <typename At>
using MemberOf = std::remove_cvref_t<std::invoke_result_t<At, Scenario&>>;

/// A row binding `key` to the one Scenario member `at` returns. `Check`
/// (a rule above) vets a parsed value before it is stored.
template <auto Check = nullptr, typename At>
Field member(std::string_view key, std::string_view doc, At /*at*/) {
  return {{key, doc},
          [](const Scenario& s) { return format(At{}(s)); },
          [](Scenario& s, const SpecEntry& e) {
            const auto v = parse<MemberOf<At>>(e);
            if constexpr (!std::is_null_pointer_v<decltype(Check)>) Check(v);
            At{}(s) = v;
          }};
}

/// The constructor arguments of each validating model class, read back
/// through its getters in constructor order.
auto params(const rf::NrCarrier& c) {
  return std::tuple(c.center_frequency_hz(), c.bandwidth_hz(), c.subcarriers());
}

auto params(const rf::FronthaulModel& f) {
  return std::tuple(f.snr_at_ref(), f.ref_distance_m(),
                    f.atmospheric_db_per_km());
}

auto params(const rf::ThroughputModel& t) {
  return std::tuple(t.alpha(), t.se_max_bps_hz(), t.snr_min());
}

auto params(const power::EarthPowerModel& m) {
  return std::tuple(m.max_rf_power(), m.no_load_power(), m.delta_p(),
                    m.sleep_power());
}

/// A row binding `key` to constructor parameter K of the model `at`
/// returns. Setting it rebuilds the model with parameter K replaced, so
/// the model's constructor vets the value (a ContractViolation, which
/// apply_override reports like a rule's).
template <std::size_t K, typename At>
Field param(std::string_view key, std::string_view doc, At /*at*/) {
  return {{key, doc},
          [](const Scenario& s) {
            return format(std::get<K>(params(At{}(s))));
          },
          [](Scenario& s, const SpecEntry& e) {
            auto& model = At{}(s);
            auto args = params(model);
            std::get<K>(args) =
                parse<std::tuple_element_t<K, decltype(args)>>(e);
            model = std::make_from_tuple<MemberOf<At>>(args);
          }};
}

/// Split a list value into trimmed, non-empty items; a malformed list
/// (empty, or with empty items) raises ConfigError. Both ',' and ';'
/// separate items: ',' is the canonical serialization, but the sweep
/// `axis` syntax splits axis values on commas, so a whole list can only
/// travel as ONE axis value in its ';' spelling (e.g.
/// `axis sizing.ladder = 540:720;540:1440, 600:1440;600:2160` is a
/// two-cell axis of two-rung ladders).
std::vector<std::string> parse_list(const SpecEntry& e) {
  std::vector<std::string> items;
  std::size_t begin = 0;
  const std::string& value = e.value;
  while (begin <= value.size()) {
    std::size_t end = value.find_first_of(",;", begin);
    if (end == std::string::npos) end = value.size();
    std::size_t lo = begin, hi = end;
    while (lo < hi && value[lo] == ' ') ++lo;
    while (hi > lo && value[hi - 1] == ' ') --hi;
    items.push_back(value.substr(lo, hi - lo));
    begin = end + 1;
  }
  for (const auto& item : items) {
    if (item.empty()) {
      throw util::ConfigError("malformed value for '" + e.key + "' (line " +
                              std::to_string(e.line) +
                              "): empty list item in '" + e.value + "'");
    }
  }
  return items;
}

std::vector<solar::Location> parse_locations(const SpecEntry& e) {
  std::vector<solar::Location> locations;
  for (const auto& name : parse_list(e)) {
    const solar::Location* location = solar::find_location(name);
    if (location == nullptr) {
      throw util::ConfigError(
          "unknown location '" + name + "' for '" + e.key + "' (line " +
          std::to_string(e.line) +
          "); catalog: " + solar::location_catalog_names());
    }
    locations.push_back(*location);
  }
  return locations;
}

std::vector<solar::SizingCandidate> parse_ladder(const SpecEntry& e) {
  std::vector<solar::SizingCandidate> ladder;
  for (const auto& item : parse_list(e)) {
    const std::size_t colon = item.find(':');
    const auto fail = [&](const std::string& why) -> util::ConfigError {
      return util::ConfigError("malformed value for '" + e.key +
                               "' (line " + std::to_string(e.line) + "): " +
                               why + " in rung '" + item +
                               "' (expected <pv_wp>:<battery_wh>)");
    };
    if (colon == std::string::npos) throw fail("missing ':'");
    // Reuse the strict scalar parser by wrapping each half in a
    // synthetic entry carrying the original key and line.
    SpecEntry half = e;
    half.value = item.substr(0, colon);
    solar::SizingCandidate rung;
    try {
      rung.pv_wp = util::parse_double(half);
      half.value = item.substr(colon + 1);
      rung.battery_wh = util::parse_double(half);
    } catch (const util::ConfigError&) {
      throw fail("unparsable number");
    }
    if (!std::isfinite(rung.pv_wp) || !std::isfinite(rung.battery_wh)) {
      throw fail("non-finite size");
    }
    if (!(rung.pv_wp > 0.0) || !(rung.battery_wh > 0.0)) {
      throw fail("non-positive size");
    }
    ladder.push_back(rung);
  }
  return ladder;
}

const std::vector<Field>& registry() {
  const auto carrier = [](auto& s) -> auto& { return s.link.carrier; };
  const auto fronthaul = [](auto& s) -> auto& { return s.link.fronthaul; };
  const auto throughput = [](auto& s) -> auto& { return s.throughput; };
  const auto hp_rrh = [](auto& s) -> auto& { return s.energy.hp_rrh; };
  const auto lp_node = [](auto& s) -> auto& { return s.energy.lp_node; };
  static const std::vector<Field> fields = {
      // ---- link / carrier --------------------------------------------
      param<0>("link.carrier.center_frequency_hz",
               "carrier centre frequency [Hz] (paper: 3.5e9)", carrier),
      param<1>("link.carrier.bandwidth_hz",
               "occupied bandwidth [Hz] (paper: 100e6)", carrier),
      param<2>("link.carrier.subcarriers", "active subcarriers (paper: 3300)",
               carrier),
      // ---- link / noise ----------------------------------------------
      member("link.noise.thermal_per_subcarrier_dbm",
             "thermal floor per subcarrier N_RSRP [dBm] (paper: -132)",
             [](auto& s) -> auto& {
               return s.link.noise.thermal_per_subcarrier;
             }),
      member("link.noise.nf_mobile_terminal_db",
             "mobile-terminal noise figure NF_MT [dB] (paper: 5)",
             [](auto& s) -> auto& { return s.link.noise.nf_mobile_terminal; }),
      member("link.noise.nf_repeater_db",
             "repeater noise figure NF_LP [dB] (paper: 8)",
             [](auto& s) -> auto& { return s.link.noise.nf_repeater; }),
      {{"link.noise_model",
        "repeater-noise reading of Eq. (2): literal_eq2 | fronthaul_aware"},
       [](const Scenario& s) {
         return std::string(s.link.noise_model ==
                                    rf::RepeaterNoiseModel::kLiteralEq2
                                ? "literal_eq2"
                                : "fronthaul_aware");
       },
       [](Scenario& s, const SpecEntry& e) {
         if (e.value == "literal_eq2") {
           s.link.noise_model = rf::RepeaterNoiseModel::kLiteralEq2;
         } else if (e.value == "fronthaul_aware") {
           s.link.noise_model = rf::RepeaterNoiseModel::kFronthaulAware;
         } else {
           throw util::ConfigError(
               "malformed value for 'link.noise_model' (line " +
               std::to_string(e.line) +
               "): expected literal_eq2 or fronthaul_aware, got '" + e.value +
               "'");
         }
       }},
      // ---- link / fronthaul ------------------------------------------
      param<0>("link.fronthaul.snr_at_ref_db",
               "fronthaul SNR at the reference distance [dB]", fronthaul),
      param<1>("link.fronthaul.ref_distance_m",
               "fronthaul reference distance [m]", fronthaul),
      param<2>("link.fronthaul.atmospheric_db_per_km",
               "distance-proportional fronthaul loss [dB/km]", fronthaul),
      member("link.min_distance_m",
             "near-field clamp of the Friis model [m] (paper: 1)",
             [](auto& s) -> auto& { return s.link.min_distance_m; }),
      // ---- radio ------------------------------------------------------
      member("radio.hp_eirp_dbm", "high-power RRH EIRP [dBm] (paper: 64)",
             [](auto& s) -> auto& { return s.radio.hp_eirp; }),
      member("radio.lp_eirp_dbm", "low-power repeater EIRP [dBm] (paper: 40)",
             [](auto& s) -> auto& { return s.radio.lp_eirp; }),
      member("radio.hp_calibration_db",
             "HP port-to-port calibration loss [dB] (paper: 33)",
             [](auto& s) -> auto& { return s.radio.hp_calibration; }),
      member("radio.lp_calibration_db",
             "LP port-to-port calibration loss [dB] (paper: 20)",
             [](auto& s) -> auto& { return s.radio.lp_calibration; }),
      // ---- throughput -------------------------------------------------
      param<0>("throughput.alpha", "Shannon attenuation factor (paper: 0.6)",
               throughput),
      param<1>("throughput.se_max_bps_hz",
               "peak spectral efficiency [bps/Hz] (paper: 5.84)", throughput),
      param<2>("throughput.snr_min_db",
               "SNR below which throughput is zero [dB] (paper: -10)",
               throughput),
      // ---- isd search -------------------------------------------------
      member<positive>(
          "isd_search.isd_step_m", "ISD grid step [m] (paper: 50)",
          [](auto& s) -> auto& { return s.isd_search.isd_step_m; }),
      member<positive>("isd_search.max_isd_m",
                       "sweep upper bound [m] (default: 3600)",
                       [](auto& s) -> auto& { return s.isd_search.max_isd_m; }),
      member("isd_search.snr_threshold_db",
             "peak-throughput SNR criterion [dB] (paper: 29)",
             [](auto& s) -> auto& { return s.isd_search.snr_threshold; }),
      member<positive>(
          "isd_search.sample_step_m",
          "track sampling step for the min-SNR check [m] (default: 10)",
          [](auto& s) -> auto& { return s.isd_search.sample_step_m; }),
      // ---- timetable --------------------------------------------------
      member<positive>(
          "timetable.trains_per_hour", "trains per operating hour (paper: 8)",
          [](auto& s) -> auto& { return s.timetable.trains_per_hour; }),
      member<below<24>>(
          "timetable.night_hours",
          "nightly pause without traffic [h] (paper: 5)",
          [](auto& s) -> auto& { return s.timetable.night_hours; }),
      member("timetable.night_start_hour",
             "start of the nightly pause [h since midnight] (default: 0.5)",
             [](auto& s) -> auto& { return s.timetable.night_start_hour; }),
      member<positive>(
          "timetable.train.length_m", "train length [m] (paper: 400)",
          [](auto& s) -> auto& { return s.timetable.train.length_m; }),
      member<positive>(
          "timetable.train.speed_mps",
          "train speed [m/s] (paper: 200 km/h = 55.55...)",
          [](auto& s) -> auto& { return s.timetable.train.speed_mps; }),
      // ---- energy -----------------------------------------------------
      param<0>("energy.hp_rrh.p_max_w", "HP RRH max RF power [W] (paper: 40)",
               hp_rrh),
      param<1>("energy.hp_rrh.p0_w", "HP RRH no-load power [W] (paper: 168)",
               hp_rrh),
      param<2>("energy.hp_rrh.delta_p", "HP RRH load slope (paper: 2.8)",
               hp_rrh),
      param<3>("energy.hp_rrh.p_sleep_w", "HP RRH sleep power [W] (paper: 112)",
               hp_rrh),
      param<0>("energy.lp_node.p_max_w", "LP node max RF power [W] (paper: 1)",
               lp_node),
      param<1>("energy.lp_node.p0_w",
               "LP node no-load power [W] (paper: 24.26)", lp_node),
      param<2>("energy.lp_node.delta_p", "LP node load slope (paper: 4.0)",
               lp_node),
      param<3>("energy.lp_node.p_sleep_w",
               "LP node sleep power [W] (paper: 4.72)", lp_node),
      member<at_least_one>(
          "energy.rrhs_per_mast", "RRH sectors per HP mast (paper: 2)",
          [](auto& s) -> auto& { return s.energy.rrhs_per_mast; }),
      member("energy.hp_sleep_when_idle",
             "baseline HP masts sleep between trains (paper: true)",
             [](auto& s) -> auto& { return s.energy.hp_sleep_when_idle; }),
      // ---- study shape ------------------------------------------------
      member<at_least_one>(
          "max_repeaters",
          "largest repeater count in the sweep / Fig. 4 (paper: 10)",
          [](auto& s) -> auto& { return s.max_repeaters; }),
      member<at_least_one>(
          "corridor.segments",
          "identical segments chained for multi-segment analyses (default: 1)",
          [](auto& s) -> auto& { return s.corridor_segments; }),
      member<positive>(
          "corridor.repeater_spacing_m",
          "node-to-node spacing of the repeater cluster [m] (paper: 200)",
          [](auto& s) -> auto& { return s.repeater_spacing_m; }),
      // ---- sizing -----------------------------------------------------
      member<at_least_one>("sizing.years",
                           "weather years per sizing candidate (default: 3)",
                           [](auto& s) -> auto& { return s.sizing.years; }),
      member("sizing.seed", "sizing RNG seed (default: 1592639491)",
             [](auto& s) -> auto& { return s.sizing.seed; }),
      member<non_negative>(
          "sizing.weather.kt_sigma",
          "daily clearness-index deviation (default: 0.13)",
          [](auto& s) -> auto& { return s.sizing.weather.kt_sigma; }),
      member<below<1>>(
          "sizing.weather.kt_autocorrelation",
          "day-to-day clearness autocorrelation (default: 0.75)",
          [](auto& s) -> auto& { return s.sizing.weather.kt_autocorrelation; }),
      member<positive>(
          "sizing.weather.kt_min", "clearness clamp, lower (default: 0.05)",
          [](auto& s) -> auto& { return s.sizing.weather.kt_min; }),
      member<at_most_one>(
          "sizing.weather.kt_max", "clearness clamp, upper (default: 0.75)",
          [](auto& s) -> auto& { return s.sizing.weather.kt_max; }),
      member("sizing.weather.winter_sigma_boost",
             "extra winter clearness variability (default: 1.0)",
             [](auto& s) -> auto& {
               return s.sizing.weather.winter_sigma_boost;
             }),
      member<in_range<0, 90>>(
          "sizing.plane.tilt_deg",
          "PV tilt from horizontal [deg], equator-facing (paper: 90, "
          "catenary mast)",
          [](auto& s) -> auto& { return s.sizing.plane.tilt_deg; }),
      member<in_range<0, 1>>(
          "sizing.plane.albedo", "ground albedo (default: 0.2)",
          [](auto& s) -> auto& { return s.sizing.plane.albedo; }),
      {{"sizing.locations",
        "comma-separated sizing sites from the named catalog "
        "(paper: madrid,lyon,vienna,berlin); use ';' separators inside "
        "sweep axis values"},
       [](const Scenario& s) {
         std::string names;
         for (const auto& location : s.sizing_locations) {
           if (!names.empty()) names += ',';
           names += solar::location_spec_name(location);
         }
         return names;
       },
       [](Scenario& s, const SpecEntry& e) {
         s.sizing_locations = parse_locations(e);
       }},
      {{"sizing.ladder",
        "PV/battery candidates in cost order, <pv_wp>:<battery_wh> pairs "
        "(paper: 540:720,...,720:2160); use ';' separators inside sweep "
        "axis values"},
       [](const Scenario& s) {
         std::string rungs;
         for (const auto& rung : s.sizing_ladder) {
           if (!rungs.empty()) rungs += ',';
           rungs += util::format_double(rung.pv_wp) + ':' +
                    util::format_double(rung.battery_wh);
         }
         return rungs;
       },
       [](Scenario& s, const SpecEntry& e) {
         s.sizing_ladder = parse_ladder(e);
       }},
  };
  return fields;
}

const Field* find_field(std::string_view key) {
  for (const auto& field : registry()) {
    if (field.info.key == key) return &field;
  }
  return nullptr;
}

}  // namespace

const std::vector<ScenarioFieldInfo>& scenario_fields() {
  static const std::vector<ScenarioFieldInfo> infos = [] {
    std::vector<ScenarioFieldInfo> out;
    out.reserve(registry().size());
    for (const auto& field : registry()) out.push_back(field.info);
    return out;
  }();
  return infos;
}

std::string to_spec(const Scenario& scenario,
                    std::span<const std::string_view> prefixes) {
  std::string out;
  for (const auto& field : registry()) {
    const auto selects = [&](std::string_view prefix) {
      return field.info.key.starts_with(prefix);
    };
    if (!prefixes.empty() &&
        std::none_of(prefixes.begin(), prefixes.end(), selects)) {
      continue;
    }
    out += field.info.key;
    out += " = ";
    out += field.get(scenario);
    out += '\n';
  }
  return out;
}

void apply_override(Scenario& scenario, const util::SpecEntry& entry) {
  const Field* field = find_field(entry.key);
  if (field == nullptr) {
    std::string msg = "unknown scenario key '" + entry.key + "'";
    if (entry.line > 0) msg += " (line " + std::to_string(entry.line) + ")";
    throw util::ConfigError(msg);
  }
  try {
    field->set(scenario, entry);
  } catch (const ContractViolation& violation) {
    // Constructor-level validation (e.g. bandwidth <= 0) surfaces as a
    // spec error naming the key, not as a contract abort.
    std::string msg = "invalid value for '" + entry.key + "'";
    if (entry.line > 0) msg += " (line " + std::to_string(entry.line) + ")";
    throw util::ConfigError(msg + ": '" + entry.value + "' rejected (" +
                            violation.what() + ")");
  }
}

void apply_spec(Scenario& scenario, std::string_view spec_text) {
  for (const auto& entry : util::parse_spec(spec_text)) {
    apply_override(scenario, entry);
  }
}

Scenario scenario_from_spec(std::string_view spec_text) {
  Scenario scenario = Scenario::paper();
  apply_spec(scenario, spec_text);
  return scenario;
}

}  // namespace railcorr::core
