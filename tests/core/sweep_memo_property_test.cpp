/// The stage memo of run_sweep_shard against the naive per-cell
/// reference (evaluate_sweep_cell). A shard runs each distinct radio
/// input once; if the radio stage read a registry key that its memo key
/// leaves out, two cells differing only in that key would share one
/// radio run and the shard's rows would diverge from the naive rows.
///
/// 1. Key coverage: one two-cell plan per registry key,
///    `axis <key> = <base value>, <second value>`, evaluated with
///    sizing. The table of second values must cover every key, so a key
///    added to the registry later fails here until it gets one.
/// 2. Seeded random plans of 2-3 axes over radio, timetable and energy
///    keys, sharded 1/1 and i/3, at 1 and 4 threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "core/scenario_spec.hpp"
#include "core/sweep_runner.hpp"
#include "corridor/sweep.hpp"
#include "exec/parallel.hpp"
#include "util/config.hpp"
#include "util/rng.hpp"

namespace railcorr::core {
namespace {

/// A base that evaluates in milliseconds: shallow repeater sweep,
/// coarse search steps, one weather year.
constexpr const char* kTinyBase =
    "base = paper\n"
    "set max_repeaters = 2\n"
    "set isd_search.isd_step_m = 100\n"
    "set isd_search.sample_step_m = 50\n"
    "set sizing.years = 1\n";

/// A valid value different from the tiny base's, per registry key.
const std::map<std::string, std::string>& second_values() {
  static const std::map<std::string, std::string> values = {
      {"link.carrier.center_frequency_hz", "2.6e9"},
      {"link.carrier.bandwidth_hz", "8e7"},
      {"link.carrier.subcarriers", "1650"},
      {"link.noise.thermal_per_subcarrier_dbm", "-128"},
      {"link.noise.nf_mobile_terminal_db", "9"},
      {"link.noise.nf_repeater_db", "14"},
      {"link.noise_model", "literal_eq2"},
      {"link.fronthaul.snr_at_ref_db", "40"},
      {"link.fronthaul.ref_distance_m", "400"},
      {"link.fronthaul.atmospheric_db_per_km", "8"},
      {"link.min_distance_m", "300"},
      {"radio.hp_eirp_dbm", "58"},
      {"radio.lp_eirp_dbm", "34"},
      {"radio.hp_calibration_db", "37"},
      {"radio.lp_calibration_db", "26"},
      {"throughput.alpha", "0.5"},
      {"throughput.se_max_bps_hz", "4.4"},
      {"throughput.snr_min_db", "-8"},
      {"isd_search.isd_step_m", "150"},
      {"isd_search.max_isd_m", "1200"},
      {"isd_search.snr_threshold_db", "25"},
      {"isd_search.sample_step_m", "25"},
      {"timetable.trains_per_hour", "12"},
      {"timetable.night_hours", "6"},
      {"timetable.night_start_hour", "1"},
      {"timetable.train.length_m", "200"},
      {"timetable.train.speed_mps", "40"},
      {"energy.hp_rrh.p_max_w", "20"},
      {"energy.hp_rrh.p0_w", "150"},
      {"energy.hp_rrh.delta_p", "3.5"},
      {"energy.hp_rrh.p_sleep_w", "90"},
      {"energy.lp_node.p_max_w", "2"},
      {"energy.lp_node.p0_w", "20"},
      {"energy.lp_node.delta_p", "5"},
      {"energy.lp_node.p_sleep_w", "4"},
      {"energy.rrhs_per_mast", "3"},
      {"energy.hp_sleep_when_idle", "false"},
      {"max_repeaters", "3"},
      {"corridor.segments", "3"},
      {"corridor.repeater_spacing_m", "250"},
      {"sizing.years", "2"},
      {"sizing.seed", "7"},
      {"sizing.weather.kt_sigma", "0.2"},
      {"sizing.weather.kt_autocorrelation", "0.5"},
      {"sizing.weather.kt_min", "0.1"},
      {"sizing.weather.kt_max", "0.6"},
      {"sizing.weather.winter_sigma_boost", "1.5"},
      {"sizing.plane.tilt_deg", "35"},
      {"sizing.plane.albedo", "0.4"},
      {"sizing.locations", "oslo;sevilla"},
      {"sizing.ladder", "540:720;720:2160"},
  };
  return values;
}

/// Banner + header + the naive per-cell rows of `shard`'s cells.
std::string naive_document(const corridor::SweepPlan& plan,
                           corridor::ShardSpec shard,
                           const SweepRunOptions& options) {
  std::string document =
      corridor::shard_banner(plan) + "\n" +
      corridor::shard_header(plan, sweep_metric_columns(options)) + "\n";
  for (const std::size_t index : shard.indices(plan.size())) {
    document += evaluate_sweep_cell(plan, index, options) + "\n";
  }
  return document;
}

TEST(SweepMemoProperty, EveryRegistryKeyIsPartOfItsStageInputs) {
  // The tiny base's value of every key, in its axis spelling (list
  // values travel as one axis value with ';' separators).
  const auto base_plan = corridor::SweepPlan::from_spec(kTinyBase);
  std::map<std::string, std::string> base_values;
  for (const auto& entry : util::parse_spec(to_spec(scenario_at(base_plan, 0)))) {
    std::string value = entry.value;
    std::replace(value.begin(), value.end(), ',', ';');
    base_values[entry.key] = value;
  }

  SweepRunOptions options;
  options.include_sizing = true;
  EXPECT_EQ(second_values().size(), scenario_fields().size())
      << "the second-value table lists a key the registry does not";
  for (const auto& field : scenario_fields()) {
    const std::string key(field.key);
    const auto second = second_values().find(key);
    ASSERT_NE(second, second_values().end())
        << "registry key '" << key << "' has no second value in this test";
    ASSERT_NE(base_values.at(key), second->second) << key;

    const auto plan = corridor::SweepPlan::from_spec(
        std::string(kTinyBase) + "axis " + key + " = " + base_values.at(key) +
        ", " + second->second + "\n");
    EXPECT_EQ(run_sweep_shard(plan, corridor::ShardSpec{0, 1}, options),
              naive_document(plan, corridor::ShardSpec{0, 1}, options))
        << "memoized rows diverge from the naive rows along " << key;
  }
}

TEST(SweepMemoProperty, RandomPlansMatchNaiveRowsShardedAtAnyThreadCount) {
  // Axis pools over the radio stage's inputs and the per-cell stage's.
  const std::vector<std::pair<std::string, std::vector<std::string>>> pools =
      {
          {"radio.lp_eirp_dbm", {"34", "37", "40", "43"}},
          {"radio.hp_eirp_dbm", {"58", "61", "64"}},
          {"link.noise.nf_repeater_db", {"6", "8", "10"}},
          {"isd_search.snr_threshold_db", {"27", "29", "31"}},
          {"corridor.segments", {"1", "2"}},
          {"timetable.trains_per_hour", {"4", "8", "12"}},
          {"timetable.night_hours", {"4", "5", "6"}},
          {"timetable.train.speed_mps", {"40", "55", "70"}},
          {"energy.lp_node.p0_w", {"20", "24.26", "28"}},
          {"energy.hp_rrh.p_sleep_w", {"90", "112"}},
          {"energy.rrhs_per_mast", {"1", "2", "3"}},
      };

  SplitMix64 rng(0x5eed3e30);
  for (int round = 0; round < 12; ++round) {
    // 2-3 distinct axes, each with 2-3 distinct values from its pool.
    std::vector<std::size_t> order(pools.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.next() % i]);
    }
    std::string spec = kTinyBase;
    const std::size_t axes = 2 + rng.next() % 2;
    for (std::size_t a = 0; a < axes; ++a) {
      auto values = pools[order[a]].second;
      for (std::size_t i = values.size(); i > 1; --i) {
        std::swap(values[i - 1], values[rng.next() % i]);
      }
      values.resize(std::min<std::size_t>(values.size(), 2 + rng.next() % 2));
      spec += "axis " + pools[order[a]].first + " = ";
      for (std::size_t v = 0; v < values.size(); ++v) {
        spec += (v > 0 ? ", " : "") + values[v];
      }
      spec += "\n";
    }
    const auto plan = corridor::SweepPlan::from_spec(spec);

    const SweepRunOptions options;
    std::vector<corridor::ShardSpec> shards = {{0, 1}};
    for (std::size_t i = 0; i < 3; ++i) shards.push_back({i, 3});
    std::vector<std::string> expected;
    for (const auto& shard : shards) {
      expected.push_back(naive_document(plan, shard, options));
    }
    for (const std::size_t threads : {1u, 4u}) {
      exec::set_default_thread_count(threads);
      for (std::size_t s = 0; s < shards.size(); ++s) {
        EXPECT_EQ(run_sweep_shard(plan, shards[s], options), expected[s])
            << "round " << round << ", shard " << shards[s].index << "/"
            << shards[s].count << ", " << threads << " thread(s), plan:\n"
            << spec;
      }
    }
  }
  exec::set_default_thread_count(0);
}

}  // namespace
}  // namespace railcorr::core
