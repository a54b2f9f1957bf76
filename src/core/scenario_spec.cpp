#include "core/scenario_spec.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/contracts.hpp"

namespace railcorr::core {

namespace {

using util::SpecEntry;

/// One registry row: key + doc + typed accessors. Stateless lambdas
/// decay to these pointers, so the table is plain static data.
struct Field {
  ScenarioFieldInfo info;
  std::string (*get)(const Scenario&);
  void (*set)(Scenario&, const SpecEntry&);
};

/// Rebuild helpers for the immutable config classes (their constructors
/// validate; ContractViolation is translated to ConfigError by
/// apply_override).
rf::NrCarrier carrier_with(double freq, double bw, int subcarriers) {
  return rf::NrCarrier(freq, bw, subcarriers);
}

rf::FronthaulModel fronthaul_with(double snr_ref_db, double ref_m,
                                  double atm_db_km) {
  return rf::FronthaulModel(Db(snr_ref_db), ref_m, atm_db_km);
}

rf::ThroughputModel throughput_with(double alpha, double se_max,
                                    double snr_min_db) {
  return rf::ThroughputModel(alpha, se_max, Db(snr_min_db));
}

power::EarthPowerModel earth_with(double p_max, double p0, double dp,
                                  double p_sleep) {
  return power::EarthPowerModel(Watts(p_max), Watts(p0), dp, Watts(p_sleep));
}

/// Study-shape values the max-ISD search cannot run with are rejected
/// when the spec is applied: apply_override reports the violation as
/// "invalid value for '<key>' (line N)".
double positive(double v) {
  if (!(v > 0.0)) throw ContractViolation("must be positive");
  return v;
}

int at_least_one(int v) {
  if (v < 1) throw ContractViolation("must be at least 1");
  return v;
}

/// Sizing values the weather synthesis and the transposition cannot run
/// with are rejected the same way. Every test is written so that NaN
/// fails it. (kt_min < kt_max spans two keys, so the synthesis checks
/// it.)
double in_range(double v, double lo, double hi) {
  if (!(v >= lo && v <= hi)) {
    throw ContractViolation("must be in [" + util::format_double(lo) + ", " +
                            util::format_double(hi) + "]");
  }
  return v;
}

double non_negative(double v) {
  if (!(v >= 0.0)) throw ContractViolation("must be non-negative");
  return v;
}

/// The spec layer keeps the two timetable copies coherent (see header).
template <typename Mutate>
void set_timetable(Scenario& s, Mutate&& mutate) {
  mutate(s.timetable);
  s.energy.timetable = s.timetable;
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
  static const std::vector<Field> fields = {
      // ---- link / carrier --------------------------------------------
      {{"link.carrier.center_frequency_hz",
        "carrier centre frequency [Hz] (paper: 3.5e9)"},
       [](const Scenario& s) {
         return util::format_double(s.link.carrier.center_frequency_hz());
       },
       [](Scenario& s, const SpecEntry& e) {
         s.link.carrier =
             carrier_with(util::parse_double(e),
                          s.link.carrier.bandwidth_hz(),
                          s.link.carrier.subcarriers());
       }},
      {{"link.carrier.bandwidth_hz",
        "occupied bandwidth [Hz] (paper: 100e6)"},
       [](const Scenario& s) {
         return util::format_double(s.link.carrier.bandwidth_hz());
       },
       [](Scenario& s, const SpecEntry& e) {
         s.link.carrier = carrier_with(
             s.link.carrier.center_frequency_hz(),
             util::parse_double(e), s.link.carrier.subcarriers());
       }},
      {{"link.carrier.subcarriers",
        "active subcarriers (paper: 3300)"},
       [](const Scenario& s) {
         return util::format_int(s.link.carrier.subcarriers());
       },
       [](Scenario& s, const SpecEntry& e) {
         s.link.carrier = carrier_with(
             s.link.carrier.center_frequency_hz(),
             s.link.carrier.bandwidth_hz(), util::parse_int(e));
       }},
      // ---- link / noise ----------------------------------------------
      {{"link.noise.thermal_per_subcarrier_dbm",
        "thermal floor per subcarrier N_RSRP [dBm] (paper: -132)"},
       [](const Scenario& s) {
         return util::format_double(
             s.link.noise.thermal_per_subcarrier.value());
       },
       [](Scenario& s, const SpecEntry& e) {
         s.link.noise.thermal_per_subcarrier = Dbm(util::parse_double(e));
       }},
      {{"link.noise.nf_mobile_terminal_db",
        "mobile-terminal noise figure NF_MT [dB] (paper: 5)"},
       [](const Scenario& s) {
         return util::format_double(s.link.noise.nf_mobile_terminal.value());
       },
       [](Scenario& s, const SpecEntry& e) {
         s.link.noise.nf_mobile_terminal = Db(util::parse_double(e));
       }},
      {{"link.noise.nf_repeater_db",
        "repeater noise figure NF_LP [dB] (paper: 8)"},
       [](const Scenario& s) {
         return util::format_double(s.link.noise.nf_repeater.value());
       },
       [](Scenario& s, const SpecEntry& e) {
         s.link.noise.nf_repeater = Db(util::parse_double(e));
       }},
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
      {{"link.fronthaul.snr_at_ref_db",
        "fronthaul SNR at the reference distance [dB]"},
       [](const Scenario& s) {
         return util::format_double(s.link.fronthaul.snr_at_ref().value());
       },
       [](Scenario& s, const SpecEntry& e) {
         s.link.fronthaul = fronthaul_with(
             util::parse_double(e), s.link.fronthaul.ref_distance_m(),
             s.link.fronthaul.atmospheric_db_per_km());
       }},
      {{"link.fronthaul.ref_distance_m",
        "fronthaul reference distance [m]"},
       [](const Scenario& s) {
         return util::format_double(s.link.fronthaul.ref_distance_m());
       },
       [](Scenario& s, const SpecEntry& e) {
         s.link.fronthaul = fronthaul_with(
             s.link.fronthaul.snr_at_ref().value(), util::parse_double(e),
             s.link.fronthaul.atmospheric_db_per_km());
       }},
      {{"link.fronthaul.atmospheric_db_per_km",
        "distance-proportional fronthaul loss [dB/km]"},
       [](const Scenario& s) {
         return util::format_double(s.link.fronthaul.atmospheric_db_per_km());
       },
       [](Scenario& s, const SpecEntry& e) {
         s.link.fronthaul = fronthaul_with(
             s.link.fronthaul.snr_at_ref().value(),
             s.link.fronthaul.ref_distance_m(), util::parse_double(e));
       }},
      {{"link.min_distance_m",
        "near-field clamp of the Friis model [m] (paper: 1)"},
       [](const Scenario& s) {
         return util::format_double(s.link.min_distance_m);
       },
       [](Scenario& s, const SpecEntry& e) {
         s.link.min_distance_m = util::parse_double(e);
       }},
      // ---- radio ------------------------------------------------------
      {{"radio.hp_eirp_dbm", "high-power RRH EIRP [dBm] (paper: 64)"},
       [](const Scenario& s) {
         return util::format_double(s.radio.hp_eirp.value());
       },
       [](Scenario& s, const SpecEntry& e) {
         s.radio.hp_eirp = Dbm(util::parse_double(e));
       }},
      {{"radio.lp_eirp_dbm", "low-power repeater EIRP [dBm] (paper: 40)"},
       [](const Scenario& s) {
         return util::format_double(s.radio.lp_eirp.value());
       },
       [](Scenario& s, const SpecEntry& e) {
         s.radio.lp_eirp = Dbm(util::parse_double(e));
       }},
      {{"radio.hp_calibration_db",
        "HP port-to-port calibration loss [dB] (paper: 33)"},
       [](const Scenario& s) {
         return util::format_double(s.radio.hp_calibration.value());
       },
       [](Scenario& s, const SpecEntry& e) {
         s.radio.hp_calibration = Db(util::parse_double(e));
       }},
      {{"radio.lp_calibration_db",
        "LP port-to-port calibration loss [dB] (paper: 20)"},
       [](const Scenario& s) {
         return util::format_double(s.radio.lp_calibration.value());
       },
       [](Scenario& s, const SpecEntry& e) {
         s.radio.lp_calibration = Db(util::parse_double(e));
       }},
      // ---- throughput -------------------------------------------------
      {{"throughput.alpha",
        "Shannon attenuation factor (paper: 0.6)"},
       [](const Scenario& s) {
         return util::format_double(s.throughput.alpha());
       },
       [](Scenario& s, const SpecEntry& e) {
         s.throughput =
             throughput_with(util::parse_double(e), s.throughput.se_max_bps_hz(),
                             s.throughput.snr_min().value());
       }},
      {{"throughput.se_max_bps_hz",
        "peak spectral efficiency [bps/Hz] (paper: 5.84)"},
       [](const Scenario& s) {
         return util::format_double(s.throughput.se_max_bps_hz());
       },
       [](Scenario& s, const SpecEntry& e) {
         s.throughput = throughput_with(s.throughput.alpha(),
                                        util::parse_double(e),
                                        s.throughput.snr_min().value());
       }},
      {{"throughput.snr_min_db",
        "SNR below which throughput is zero [dB] (paper: -10)"},
       [](const Scenario& s) {
         return util::format_double(s.throughput.snr_min().value());
       },
       [](Scenario& s, const SpecEntry& e) {
         s.throughput = throughput_with(s.throughput.alpha(),
                                        s.throughput.se_max_bps_hz(),
                                        util::parse_double(e));
       }},
      // ---- isd search -------------------------------------------------
      {{"isd_search.isd_step_m", "ISD grid step [m] (paper: 50)"},
       [](const Scenario& s) {
         return util::format_double(s.isd_search.isd_step_m);
       },
       [](Scenario& s, const SpecEntry& e) {
         s.isd_search.isd_step_m = positive(util::parse_double(e));
       }},
      {{"isd_search.max_isd_m", "sweep upper bound [m] (default: 3600)"},
       [](const Scenario& s) {
         return util::format_double(s.isd_search.max_isd_m);
       },
       [](Scenario& s, const SpecEntry& e) {
         s.isd_search.max_isd_m = positive(util::parse_double(e));
       }},
      {{"isd_search.snr_threshold_db",
        "peak-throughput SNR criterion [dB] (paper: 29)"},
       [](const Scenario& s) {
         return util::format_double(s.isd_search.snr_threshold.value());
       },
       [](Scenario& s, const SpecEntry& e) {
         s.isd_search.snr_threshold = Db(util::parse_double(e));
       }},
      {{"isd_search.sample_step_m",
        "track sampling step for the min-SNR check [m] (default: 10)"},
       [](const Scenario& s) {
         return util::format_double(s.isd_search.sample_step_m);
       },
       [](Scenario& s, const SpecEntry& e) {
         s.isd_search.sample_step_m = positive(util::parse_double(e));
       }},
      // ---- timetable (kept coherent across both copies) ---------------
      {{"timetable.trains_per_hour",
        "trains per operating hour (paper: 8)"},
       [](const Scenario& s) {
         return util::format_double(s.timetable.trains_per_hour);
       },
       [](Scenario& s, const SpecEntry& e) {
         const double v = util::parse_double(e);
         set_timetable(s, [v](traffic::TimetableConfig& t) {
           t.trains_per_hour = v;
         });
       }},
      {{"timetable.night_hours",
        "nightly pause without traffic [h] (paper: 5)"},
       [](const Scenario& s) {
         return util::format_double(s.timetable.night_hours);
       },
       [](Scenario& s, const SpecEntry& e) {
         const double v = util::parse_double(e);
         set_timetable(s, [v](traffic::TimetableConfig& t) {
           t.night_hours = v;
         });
       }},
      {{"timetable.night_start_hour",
        "start of the nightly pause [h since midnight] (default: 0.5)"},
       [](const Scenario& s) {
         return util::format_double(s.timetable.night_start_hour);
       },
       [](Scenario& s, const SpecEntry& e) {
         const double v = util::parse_double(e);
         set_timetable(s, [v](traffic::TimetableConfig& t) {
           t.night_start_hour = v;
         });
       }},
      {{"timetable.train.length_m", "train length [m] (paper: 400)"},
       [](const Scenario& s) {
         return util::format_double(s.timetable.train.length_m);
       },
       [](Scenario& s, const SpecEntry& e) {
         const double v = util::parse_double(e);
         set_timetable(s, [v](traffic::TimetableConfig& t) {
           t.train.length_m = v;
         });
       }},
      {{"timetable.train.speed_mps",
        "train speed [m/s] (paper: 200 km/h = 55.55...)"},
       [](const Scenario& s) {
         return util::format_double(s.timetable.train.speed_mps);
       },
       [](Scenario& s, const SpecEntry& e) {
         const double v = util::parse_double(e);
         set_timetable(s, [v](traffic::TimetableConfig& t) {
           t.train.speed_mps = v;
         });
       }},
      // ---- energy -----------------------------------------------------
      {{"energy.hp_rrh.p_max_w", "HP RRH max RF power [W] (paper: 40)"},
       [](const Scenario& s) {
         return util::format_double(s.energy.hp_rrh.max_rf_power().value());
       },
       [](Scenario& s, const SpecEntry& e) {
         s.energy.hp_rrh = earth_with(util::parse_double(e),
                                      s.energy.hp_rrh.no_load_power().value(),
                                      s.energy.hp_rrh.delta_p(),
                                      s.energy.hp_rrh.sleep_power().value());
       }},
      {{"energy.hp_rrh.p0_w", "HP RRH no-load power [W] (paper: 168)"},
       [](const Scenario& s) {
         return util::format_double(s.energy.hp_rrh.no_load_power().value());
       },
       [](Scenario& s, const SpecEntry& e) {
         s.energy.hp_rrh = earth_with(s.energy.hp_rrh.max_rf_power().value(),
                                      util::parse_double(e),
                                      s.energy.hp_rrh.delta_p(),
                                      s.energy.hp_rrh.sleep_power().value());
       }},
      {{"energy.hp_rrh.delta_p", "HP RRH load slope (paper: 2.8)"},
       [](const Scenario& s) {
         return util::format_double(s.energy.hp_rrh.delta_p());
       },
       [](Scenario& s, const SpecEntry& e) {
         s.energy.hp_rrh = earth_with(s.energy.hp_rrh.max_rf_power().value(),
                                      s.energy.hp_rrh.no_load_power().value(),
                                      util::parse_double(e),
                                      s.energy.hp_rrh.sleep_power().value());
       }},
      {{"energy.hp_rrh.p_sleep_w", "HP RRH sleep power [W] (paper: 112)"},
       [](const Scenario& s) {
         return util::format_double(s.energy.hp_rrh.sleep_power().value());
       },
       [](Scenario& s, const SpecEntry& e) {
         s.energy.hp_rrh = earth_with(s.energy.hp_rrh.max_rf_power().value(),
                                      s.energy.hp_rrh.no_load_power().value(),
                                      s.energy.hp_rrh.delta_p(),
                                      util::parse_double(e));
       }},
      {{"energy.lp_node.p_max_w", "LP node max RF power [W] (paper: 1)"},
       [](const Scenario& s) {
         return util::format_double(s.energy.lp_node.max_rf_power().value());
       },
       [](Scenario& s, const SpecEntry& e) {
         s.energy.lp_node = earth_with(util::parse_double(e),
                                       s.energy.lp_node.no_load_power().value(),
                                       s.energy.lp_node.delta_p(),
                                       s.energy.lp_node.sleep_power().value());
       }},
      {{"energy.lp_node.p0_w", "LP node no-load power [W] (paper: 24.26)"},
       [](const Scenario& s) {
         return util::format_double(s.energy.lp_node.no_load_power().value());
       },
       [](Scenario& s, const SpecEntry& e) {
         s.energy.lp_node = earth_with(s.energy.lp_node.max_rf_power().value(),
                                       util::parse_double(e),
                                       s.energy.lp_node.delta_p(),
                                       s.energy.lp_node.sleep_power().value());
       }},
      {{"energy.lp_node.delta_p", "LP node load slope (paper: 4.0)"},
       [](const Scenario& s) {
         return util::format_double(s.energy.lp_node.delta_p());
       },
       [](Scenario& s, const SpecEntry& e) {
         s.energy.lp_node = earth_with(s.energy.lp_node.max_rf_power().value(),
                                       s.energy.lp_node.no_load_power().value(),
                                       util::parse_double(e),
                                       s.energy.lp_node.sleep_power().value());
       }},
      {{"energy.lp_node.p_sleep_w", "LP node sleep power [W] (paper: 4.72)"},
       [](const Scenario& s) {
         return util::format_double(s.energy.lp_node.sleep_power().value());
       },
       [](Scenario& s, const SpecEntry& e) {
         s.energy.lp_node = earth_with(s.energy.lp_node.max_rf_power().value(),
                                       s.energy.lp_node.no_load_power().value(),
                                       s.energy.lp_node.delta_p(),
                                       util::parse_double(e));
       }},
      {{"energy.rrhs_per_mast", "RRH sectors per HP mast (paper: 2)"},
       [](const Scenario& s) {
         return util::format_int(s.energy.rrhs_per_mast);
       },
       [](Scenario& s, const SpecEntry& e) {
         s.energy.rrhs_per_mast = util::parse_int(e);
       }},
      {{"energy.hp_sleep_when_idle",
        "baseline HP masts sleep between trains (paper: true)"},
       [](const Scenario& s) {
         return util::format_bool(s.energy.hp_sleep_when_idle);
       },
       [](Scenario& s, const SpecEntry& e) {
         s.energy.hp_sleep_when_idle = util::parse_bool(e);
       }},
      // ---- study shape ------------------------------------------------
      {{"max_repeaters",
        "largest repeater count in the sweep / Fig. 4 (paper: 10)"},
       [](const Scenario& s) { return util::format_int(s.max_repeaters); },
       [](Scenario& s, const SpecEntry& e) {
         s.max_repeaters = at_least_one(util::parse_int(e));
       }},
      {{"corridor.segments",
        "identical segments chained for multi-segment analyses (default: 1)"},
       [](const Scenario& s) { return util::format_int(s.corridor_segments); },
       [](Scenario& s, const SpecEntry& e) {
         s.corridor_segments = at_least_one(util::parse_int(e));
       }},
      {{"corridor.repeater_spacing_m",
        "node-to-node spacing of the repeater cluster [m] (paper: 200)"},
       [](const Scenario& s) {
         return util::format_double(s.repeater_spacing_m);
       },
       [](Scenario& s, const SpecEntry& e) {
         s.repeater_spacing_m = positive(util::parse_double(e));
       }},
      // ---- sizing -----------------------------------------------------
      {{"sizing.years",
        "weather years per sizing candidate (default: 3)"},
       [](const Scenario& s) { return util::format_int(s.sizing.years); },
       [](Scenario& s, const SpecEntry& e) {
         s.sizing.years = at_least_one(util::parse_int(e));
       }},
      {{"sizing.seed", "sizing RNG seed (default: 1592639491)"},
       [](const Scenario& s) { return util::format_u64(s.sizing.seed); },
       [](Scenario& s, const SpecEntry& e) {
         s.sizing.seed = util::parse_u64(e);
       }},
      {{"sizing.weather.kt_sigma",
        "daily clearness-index deviation (default: 0.13)"},
       [](const Scenario& s) {
         return util::format_double(s.sizing.weather.kt_sigma);
       },
       [](Scenario& s, const SpecEntry& e) {
         s.sizing.weather.kt_sigma = non_negative(util::parse_double(e));
       }},
      {{"sizing.weather.kt_autocorrelation",
        "day-to-day clearness autocorrelation (default: 0.75)"},
       [](const Scenario& s) {
         return util::format_double(s.sizing.weather.kt_autocorrelation);
       },
       [](Scenario& s, const SpecEntry& e) {
         const double rho = util::parse_double(e);
         if (!(rho >= 0.0 && rho < 1.0)) {
           throw ContractViolation("must be in [0, 1)");
         }
         s.sizing.weather.kt_autocorrelation = rho;
       }},
      {{"sizing.weather.kt_min", "clearness clamp, lower (default: 0.05)"},
       [](const Scenario& s) {
         return util::format_double(s.sizing.weather.kt_min);
       },
       [](Scenario& s, const SpecEntry& e) {
         s.sizing.weather.kt_min = positive(util::parse_double(e));
       }},
      {{"sizing.weather.kt_max", "clearness clamp, upper (default: 0.75)"},
       [](const Scenario& s) {
         return util::format_double(s.sizing.weather.kt_max);
       },
       [](Scenario& s, const SpecEntry& e) {
         // The Erbs diffuse fraction is defined for clearness <= 1.
         const double kt_max = util::parse_double(e);
         if (!(kt_max <= 1.0)) throw ContractViolation("must be at most 1");
         s.sizing.weather.kt_max = kt_max;
       }},
      {{"sizing.weather.winter_sigma_boost",
        "extra winter clearness variability (default: 1.0)"},
       [](const Scenario& s) {
         return util::format_double(s.sizing.weather.winter_sigma_boost);
       },
       [](Scenario& s, const SpecEntry& e) {
         s.sizing.weather.winter_sigma_boost = util::parse_double(e);
       }},
      {{"sizing.plane.tilt_deg",
        "PV tilt from horizontal [deg], equator-facing (paper: 90, "
        "catenary mast)"},
       [](const Scenario& s) {
         return util::format_double(s.sizing.plane.tilt_deg);
       },
       [](Scenario& s, const SpecEntry& e) {
         s.sizing.plane.tilt_deg = in_range(util::parse_double(e), 0.0, 90.0);
       }},
      {{"sizing.plane.albedo", "ground albedo (default: 0.2)"},
       [](const Scenario& s) {
         return util::format_double(s.sizing.plane.albedo);
       },
       [](Scenario& s, const SpecEntry& e) {
         s.sizing.plane.albedo = in_range(util::parse_double(e), 0.0, 1.0);
       }},
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
