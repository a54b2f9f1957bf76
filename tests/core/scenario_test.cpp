#include "core/scenario.hpp"

#include <gtest/gtest.h>

namespace railcorr::core {
namespace {

TEST(Scenario, PaperDefaults) {
  const auto s = Scenario::paper();
  EXPECT_DOUBLE_EQ(s.link.carrier.center_frequency_hz(), 3.5e9);
  EXPECT_EQ(s.link.noise_model, rf::RepeaterNoiseModel::kFronthaulAware);
  EXPECT_DOUBLE_EQ(s.radio.hp_eirp.value(), 64.0);
  EXPECT_DOUBLE_EQ(s.throughput.se_max_bps_hz(), 5.84);
  EXPECT_DOUBLE_EQ(s.isd_search.snr_threshold.value(), 29.0);
  EXPECT_DOUBLE_EQ(s.timetable.trains_per_hour, 8.0);
  EXPECT_EQ(s.max_repeaters, 10);
}

TEST(Scenario, MakeAnalyzerUsesScenarioSettings) {
  Scenario s = Scenario::paper();
  s.isd_search.sample_step_m = 25.0;
  const auto analyzer = s.make_analyzer();
  EXPECT_DOUBLE_EQ(analyzer.sample_step_m(), 25.0);
  EXPECT_DOUBLE_EQ(analyzer.throughput_model().se_max_bps_hz(), 5.84);
}

TEST(Scenario, MakeEnergyModel) {
  const auto model = Scenario::paper().make_energy_model();
  EXPECT_NEAR(model.conventional_baseline().total_mains_per_km().value(),
              467.2, 1.0);
}

TEST(Scenario, RepeaterConsumptionProfile) {
  const auto profile = Scenario::paper().repeater_consumption_profile();
  EXPECT_NEAR(profile.average_watts(), 5.17, 0.1);
}

TEST(Scenario, OverridesPropagate) {
  Scenario s = Scenario::paper();
  s.timetable.trains_per_hour = 16.0;
  const auto model = s.make_energy_model();
  // Twice the traffic raises the baseline average power.
  EXPECT_GT(model.conventional_baseline().total_mains_per_km().value(), 467.2);
}

}  // namespace
}  // namespace railcorr::core
