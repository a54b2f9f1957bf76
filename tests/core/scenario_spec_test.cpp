/// Scenario serde: round-trip equality, error paths, and registry
/// variants driving valid evaluator runs — including the acceptance
/// check that the registry's `paper` entry reproduces the seed
/// `PaperEvaluator::run_all` outputs exactly (bit-identical doubles).
#include "core/scenario_spec.hpp"

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string_view>
#include <vector>

#include "core/evaluator.hpp"
#include "core/scenario_registry.hpp"

namespace railcorr::core {
namespace {

TEST(ScenarioSpec, EmptySpecIsPaper) {
  const Scenario from_empty = scenario_from_spec("");
  EXPECT_EQ(to_spec(from_empty), to_spec(Scenario::paper()));
}

TEST(ScenarioSpec, RoundTripIsByteStable) {
  // Scenario -> text -> Scenario -> text must be a fixed point, for the
  // paper defaults and for a scenario with every field class touched.
  const Scenario paper = Scenario::paper();
  EXPECT_EQ(to_spec(scenario_from_spec(to_spec(paper))), to_spec(paper));

  Scenario tweaked = scenario_from_spec(
      "link.carrier.center_frequency_hz = 2.6e9\n"
      "link.noise_model = literal_eq2\n"
      "radio.lp_eirp_dbm = 37.5\n"
      "throughput.alpha = 0.75\n"
      "isd_search.snr_threshold_db = 29.28\n"
      "timetable.trains_per_hour = 12.5\n"
      "timetable.train.speed_mps = 44.5\n"
      "energy.lp_node.p_sleep_w = 3.3\n"
      "energy.hp_sleep_when_idle = false\n"
      "max_repeaters = 7\n"
      "corridor.segments = 4\n"
      "corridor.repeater_spacing_m = 150\n"
      "sizing.seed = 42\n"
      "sizing.weather.kt_sigma = 0.2\n");
  const std::string text = to_spec(tweaked);
  EXPECT_EQ(to_spec(scenario_from_spec(text)), text);
}

TEST(ScenarioSpec, EveryKeyBindsOneField) {
  // One valid non-default value per registry key, in its canonical
  // text. Applying a key's value must change exactly that key's line of
  // to_spec, to that text: a row whose setter writes another member
  // than its getter reads, or two rows bound to one member, fails here.
  const std::map<std::string_view, std::string_view> values = {
      {"link.carrier.center_frequency_hz", "2.6e+09"},
      {"link.carrier.bandwidth_hz", "5e+07"},
      {"link.carrier.subcarriers", "1650"},
      {"link.noise.thermal_per_subcarrier_dbm", "-130.5"},
      {"link.noise.nf_mobile_terminal_db", "7"},
      {"link.noise.nf_repeater_db", "9.5"},
      {"link.noise_model", "literal_eq2"},
      {"link.fronthaul.snr_at_ref_db", "50"},
      {"link.fronthaul.ref_distance_m", "150"},
      {"link.fronthaul.atmospheric_db_per_km", "1.25"},
      {"link.min_distance_m", "2"},
      {"radio.hp_eirp_dbm", "60"},
      {"radio.lp_eirp_dbm", "37.5"},
      {"radio.hp_calibration_db", "30"},
      {"radio.lp_calibration_db", "18"},
      {"throughput.alpha", "0.75"},
      {"throughput.se_max_bps_hz", "4.4"},
      {"throughput.snr_min_db", "-8"},
      {"isd_search.isd_step_m", "25"},
      {"isd_search.max_isd_m", "4000"},
      {"isd_search.snr_threshold_db", "29.28"},
      {"isd_search.sample_step_m", "5"},
      {"timetable.trains_per_hour", "12.5"},
      {"timetable.night_hours", "6"},
      {"timetable.night_start_hour", "1"},
      {"timetable.train.length_m", "200"},
      {"timetable.train.speed_mps", "44.5"},
      {"energy.hp_rrh.p_max_w", "20"},
      {"energy.hp_rrh.p0_w", "150"},
      {"energy.hp_rrh.delta_p", "3"},
      {"energy.hp_rrh.p_sleep_w", "100"},
      {"energy.lp_node.p_max_w", "2"},
      {"energy.lp_node.p0_w", "20"},
      {"energy.lp_node.delta_p", "3.5"},
      {"energy.lp_node.p_sleep_w", "3.3"},
      {"energy.rrhs_per_mast", "3"},
      {"energy.hp_sleep_when_idle", "false"},
      {"max_repeaters", "7"},
      {"corridor.segments", "4"},
      {"corridor.repeater_spacing_m", "150"},
      {"sizing.years", "2"},
      {"sizing.seed", "42"},
      {"sizing.weather.kt_sigma", "0.2"},
      {"sizing.weather.kt_autocorrelation", "0.5"},
      {"sizing.weather.kt_min", "0.1"},
      {"sizing.weather.kt_max", "0.8"},
      {"sizing.weather.winter_sigma_boost", "1.5"},
      {"sizing.plane.tilt_deg", "35"},
      {"sizing.plane.albedo", "0.3"},
      {"sizing.locations", "oslo,madrid"},
      {"sizing.ladder", "360:720,720:2880"},
  };
  const auto lines = [](const std::string& spec) {
    std::vector<std::string> out;
    std::istringstream in(spec);
    for (std::string line; std::getline(in, line);) out.push_back(line);
    return out;
  };
  const auto& fields = scenario_fields();
  const std::vector<std::string> paper = lines(to_spec(Scenario::paper()));
  ASSERT_EQ(paper.size(), fields.size());
  EXPECT_EQ(values.size(), fields.size()) << "a test value names no key";
  for (std::size_t i = 0; i < fields.size(); ++i) {
    const std::string key(fields[i].key);
    const auto value = values.find(key);
    if (value == values.end()) {
      ADD_FAILURE() << "no test value for '" << key << "'";
      continue;
    }
    Scenario s = Scenario::paper();
    apply_override(s, util::SpecEntry{key, std::string(value->second), 1});
    std::vector<std::string> expected = paper;
    expected[i] = key + " = " + std::string(value->second);
    EXPECT_NE(expected[i], paper[i]) << "the test value is the default";
    EXPECT_EQ(lines(to_spec(s)), expected) << "applying '" << key << "'";
  }
}

TEST(ScenarioSpec, OverridesReachTheModelLayers) {
  const Scenario s = scenario_from_spec(
      "radio.hp_eirp_dbm = 60\n"
      "timetable.trains_per_hour = 16\n"
      "link.carrier.subcarriers = 1650\n");
  EXPECT_DOUBLE_EQ(s.radio.hp_eirp.value(), 60.0);
  EXPECT_EQ(s.link.carrier.subcarriers(), 1650);
  EXPECT_DOUBLE_EQ(s.timetable.trains_per_hour, 16.0);
  // The energy model runs on the scenario's one timetable: twice the
  // traffic raises the baseline's mains power.
  EXPECT_GT(s.make_energy_model()
                .conventional_baseline()
                .total_mains_per_km()
                .value(),
            Scenario::paper()
                .make_energy_model()
                .conventional_baseline()
                .total_mains_per_km()
                .value());
}

TEST(ScenarioSpec, UnknownKeyNamesKeyAndLine) {
  Scenario s = Scenario::paper();
  try {
    apply_spec(s, "radio.hp_eirp_dbm = 64\nradio.warp_drive = 9\n");
    FAIL() << "expected ConfigError";
  } catch (const util::ConfigError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("radio.warp_drive"), std::string::npos);
    EXPECT_NE(what.find("line 2"), std::string::npos);
  }
  // The transposition models equator-facing planes only, so the plane
  // has no azimuth key.
  EXPECT_THROW(apply_spec(s, "sizing.plane.azimuth_deg = 0\n"),
               util::ConfigError);
}

TEST(ScenarioSpec, MalformedValueNamesKey) {
  Scenario s = Scenario::paper();
  EXPECT_THROW(apply_spec(s, "radio.hp_eirp_dbm = loud\n"),
               util::ConfigError);
  EXPECT_THROW(apply_spec(s, "max_repeaters = 2.5\n"), util::ConfigError);
  EXPECT_THROW(apply_spec(s, "energy.hp_sleep_when_idle = maybe\n"),
               util::ConfigError);
  EXPECT_THROW(apply_spec(s, "link.noise_model = psychic\n"),
               util::ConfigError);
  EXPECT_THROW(apply_spec(s, "sizing.years = 2.5\n"), util::ConfigError);
  EXPECT_THROW(apply_spec(s, "sizing.plane.albedo = bright\n"),
               util::ConfigError);
}

TEST(ScenarioSpec, ConstructorValidationBecomesConfigError) {
  Scenario s = Scenario::paper();
  // NrCarrier rejects non-positive bandwidth; the violation must
  // surface as a ConfigError naming the key, not a ContractViolation.
  EXPECT_THROW(apply_spec(s, "link.carrier.bandwidth_hz = -5\n"),
               util::ConfigError);
  EXPECT_THROW(apply_spec(s, "throughput.alpha = 0\n"), util::ConfigError);

  // Study-shape values the max-ISD search cannot run with are rejected
  // when applied, naming the key and line.
  for (const std::string key_value :
       {"max_repeaters = 0", "max_repeaters = -3", "corridor.segments = 0",
        "corridor.repeater_spacing_m = 0", "corridor.repeater_spacing_m = -200",
        "isd_search.isd_step_m = 0", "isd_search.max_isd_m = -1",
        "isd_search.sample_step_m = 0",
        // Sizing values the weather synthesis or the transposition
        // cannot run with.
        "sizing.years = 0", "sizing.weather.kt_sigma = -0.1",
        "sizing.weather.kt_autocorrelation = 1",
        "sizing.weather.kt_autocorrelation = -0.5",
        "sizing.weather.kt_min = 0", "sizing.weather.kt_max = 1.2",
        "sizing.weather.kt_max = nan", "sizing.plane.tilt_deg = 120",
        "sizing.plane.tilt_deg = -5", "sizing.plane.albedo = 1.5",
        "sizing.plane.albedo = -0.1",
        // Traffic values the timetable, train and energy models'
        // contracts refuse.
        "timetable.trains_per_hour = 0", "timetable.trains_per_hour = -1",
        "timetable.night_hours = 24", "timetable.night_hours = 30",
        "timetable.night_hours = -1", "timetable.train.length_m = -5",
        "timetable.train.length_m = 0", "timetable.train.speed_mps = 0",
        "energy.rrhs_per_mast = 0"}) {
    const std::string key = key_value.substr(0, key_value.find(' '));
    try {
      apply_spec(s, key_value + "\n");
      ADD_FAILURE() << "accepted " << key_value;
    } catch (const util::ConfigError& error) {
      EXPECT_NE(std::string(error.what())
                    .find("invalid value for '" + key + "' (line 1)"),
                std::string::npos)
          << error.what();
    }
  }
  EXPECT_EQ(s.max_repeaters, Scenario::paper().max_repeaters);
  EXPECT_EQ(s.corridor_segments, 1);
  EXPECT_EQ(s.sizing.plane.albedo, Scenario::paper().sizing.plane.albedo);

  // The range ends themselves are valid.
  EXPECT_NO_THROW(apply_spec(s,
                             "sizing.years = 1\n"
                             "sizing.weather.kt_sigma = 0\n"
                             "sizing.weather.kt_autocorrelation = 0\n"
                             "sizing.weather.kt_max = 1\n"
                             "sizing.plane.tilt_deg = 0\n"
                             "sizing.plane.tilt_deg = 90\n"
                             "sizing.plane.albedo = 0\n"
                             "sizing.plane.albedo = 1\n"
                             "timetable.night_hours = 0\n"
                             "energy.rrhs_per_mast = 1\n"));
}

TEST(ScenarioSpec, FieldCatalogIsConsistent) {
  const auto& fields = scenario_fields();
  ASSERT_GE(fields.size(), 40u);
  // Every emitted line corresponds to a registered key, in order.
  const std::string spec = to_spec(Scenario::paper());
  std::size_t line_start = 0;
  for (const auto& field : fields) {
    const std::string expected_prefix = std::string(field.key) + " = ";
    EXPECT_EQ(spec.compare(line_start, expected_prefix.size(),
                           expected_prefix),
              0)
        << "at field " << field.key;
    line_start = spec.find('\n', line_start) + 1;
  }
}

// ---- registry ----------------------------------------------------------

TEST(ScenarioRegistry, CatalogAndLookup) {
  const auto& registry = scenario_registry();
  ASSERT_GE(registry.size(), 5u);
  EXPECT_EQ(registry.front().name, "paper");
  EXPECT_NE(find_scenario("dense-timetable"), nullptr);
  EXPECT_EQ(find_scenario("nonexistent"), nullptr);
  EXPECT_THROW(make_scenario("nonexistent"), util::ConfigError);
}

TEST(ScenarioRegistry, VariantsProduceValidEvaluatorRuns) {
  for (const auto& variant : scenario_registry()) {
    SCOPED_TRACE(variant.name);
    const Scenario scenario = make_scenario(variant.name);
    const PaperEvaluator evaluator(scenario);
    // The deepest-N search must find at least one feasible deployment,
    // and the derived traffic quantities must be well-formed.
    const auto sweep = evaluator.max_isd_sweep();
    ASSERT_FALSE(sweep.empty());
    bool any_feasible = false;
    for (const auto& result : sweep) {
      any_feasible = any_feasible || result.max_isd_m.has_value();
    }
    EXPECT_TRUE(any_feasible);
    const auto traffic = evaluator.traffic_derived();
    EXPECT_GT(traffic.lp_sleep_mode_avg_w, 0.0);
    EXPECT_GT(traffic.duty_at_conventional, 0.0);
  }
}

TEST(ScenarioRegistry, PaperEntryReproducesRunAllExactly) {
  // Acceptance: the registry's paper scenario is byte-for-byte the seed
  // configuration, so the full evaluation must match bit for bit.
  const PaperEvaluator seed{Scenario::paper()};
  const PaperEvaluator registry{make_scenario("paper")};
  const auto a = seed.run_all();
  const auto b = registry.run_all();

  ASSERT_EQ(a.fig3.size(), b.fig3.size());
  for (std::size_t i = 0; i < a.fig3.size(); ++i) {
    EXPECT_EQ(a.fig3[i].snr.value(), b.fig3[i].snr.value());
    EXPECT_EQ(a.fig3[i].total_signal.value(), b.fig3[i].total_signal.value());
  }
  ASSERT_EQ(a.max_isd.size(), b.max_isd.size());
  for (std::size_t i = 0; i < a.max_isd.size(); ++i) {
    ASSERT_EQ(a.max_isd[i].max_isd_m.has_value(),
              b.max_isd[i].max_isd_m.has_value());
    if (a.max_isd[i].max_isd_m.has_value()) {
      EXPECT_EQ(*a.max_isd[i].max_isd_m, *b.max_isd[i].max_isd_m);
    }
    EXPECT_EQ(a.max_isd[i].min_snr_at_max.value(),
              b.max_isd[i].min_snr_at_max.value());
  }
  ASSERT_EQ(a.fig4.size(), b.fig4.size());
  for (std::size_t i = 0; i < a.fig4.size(); ++i) {
    EXPECT_EQ(a.fig4[i].continuous_wh_km_h, b.fig4[i].continuous_wh_km_h);
    EXPECT_EQ(a.fig4[i].sleep_wh_km_h, b.fig4[i].sleep_wh_km_h);
    EXPECT_EQ(a.fig4[i].solar_wh_km_h, b.fig4[i].solar_wh_km_h);
  }
  EXPECT_EQ(a.traffic.duty_at_max_isd, b.traffic.duty_at_max_isd);
  EXPECT_EQ(a.traffic.lp_sleep_mode_wh_day, b.traffic.lp_sleep_mode_wh_day);
  ASSERT_EQ(a.table4.size(), b.table4.size());
  for (std::size_t i = 0; i < a.table4.size(); ++i) {
    EXPECT_EQ(a.table4[i].chosen.pv_wp, b.table4[i].chosen.pv_wp);
    EXPECT_EQ(a.table4[i].chosen.battery_wh, b.table4[i].chosen.battery_wh);
    EXPECT_EQ(a.table4[i].report.downtime_hours,
              b.table4[i].report.downtime_hours);
    EXPECT_EQ(a.table4[i].report.min_soc_fraction,
              b.table4[i].report.min_soc_fraction);
  }
}

// ---- sizing locations & ladder as data ---------------------------------

TEST(ScenarioSpec, SizingLocationsAndLadderRoundTrip) {
  const Scenario s = scenario_from_spec(
      "sizing.locations = oslo, madrid\n"
      "sizing.ladder = 360:720,720:2880\n");
  ASSERT_EQ(s.sizing_locations.size(), 2u);
  EXPECT_EQ(s.sizing_locations[0].name, "Oslo");
  EXPECT_EQ(s.sizing_locations[1].name, "Madrid");
  ASSERT_EQ(s.sizing_ladder.size(), 2u);
  EXPECT_DOUBLE_EQ(s.sizing_ladder[0].pv_wp, 360.0);
  EXPECT_DOUBLE_EQ(s.sizing_ladder[1].battery_wh, 2880.0);
  // Serde fixed point with the non-default lists in place.
  const std::string text = to_spec(s);
  EXPECT_EQ(to_spec(scenario_from_spec(text)), text);
  EXPECT_NE(text.find("sizing.locations = oslo,madrid\n"),
            std::string::npos);
  EXPECT_NE(text.find("sizing.ladder = 360:720,720:2880\n"),
            std::string::npos);

  // ';' is an equivalent item separator (the spelling that survives the
  // sweep axis parser's comma split), normalized to ',' on output.
  const Scenario semi = scenario_from_spec(
      "sizing.locations = oslo;madrid\n"
      "sizing.ladder = 360:720;720:2880\n");
  EXPECT_EQ(to_spec(semi), text);
}

TEST(ScenarioSpec, SizingListErrorsNameKeyAndCatalog) {
  Scenario s = Scenario::paper();
  try {
    apply_spec(s, "sizing.locations = madrid,atlantis\n");
    FAIL() << "expected ConfigError";
  } catch (const util::ConfigError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("atlantis"), std::string::npos);
    EXPECT_NE(what.find("oslo"), std::string::npos);  // catalog listed
  }
  EXPECT_THROW(apply_spec(s, "sizing.ladder = 540-720\n"),
               util::ConfigError);
  EXPECT_THROW(apply_spec(s, "sizing.ladder = 540:abc\n"),
               util::ConfigError);
  EXPECT_THROW(apply_spec(s, "sizing.ladder = 0:720\n"),
               util::ConfigError);
  // Non-finite sizes pass a `> 0` check; `inf:720` would render an
  // infinite sized_pv_wp_total in the row.
  for (const char* rung : {"540:inf", "inf:720", "nan:720", "540:-inf"}) {
    try {
      apply_spec(s, std::string("sizing.ladder = 540:720,") + rung + "\n");
      FAIL() << "expected ConfigError for " << rung;
    } catch (const util::ConfigError& error) {
      EXPECT_NE(std::string(error.what())
                    .find("malformed value for 'sizing.ladder' (line 1): "
                          "non-finite size in rung '" +
                          std::string(rung) + "'"),
                std::string::npos)
          << error.what();
    }
  }
  EXPECT_THROW(apply_spec(s, "sizing.locations = ,\n"),
               util::ConfigError);
}

TEST(ScenarioRegistry, ClimateVariantsAreDataRows) {
  // The arctic and Iberian studies must land entirely through the spec
  // layer: catalog locations and ladder rungs, no C++ constants.
  const Scenario arctic = make_scenario("arctic-climate");
  ASSERT_EQ(arctic.sizing_locations.size(), 3u);
  EXPECT_EQ(arctic.sizing_locations[0].name, "Oslo");
  EXPECT_EQ(arctic.sizing_ladder.size(), 7u);
  EXPECT_DOUBLE_EQ(arctic.sizing_ladder.back().pv_wp, 900.0);

  const Scenario iberian = make_scenario("iberian-corridor");
  ASSERT_EQ(iberian.sizing_locations.size(), 2u);
  EXPECT_EQ(iberian.sizing_locations[1].name, "Sevilla");
  EXPECT_EQ(iberian.sizing_ladder.size(), 3u);
}

}  // namespace
}  // namespace railcorr::core
