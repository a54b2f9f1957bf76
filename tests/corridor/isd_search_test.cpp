#include "corridor/isd_search.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/scenario_registry.hpp"
#include "core/scenario_spec.hpp"
#include "obs/metrics.hpp"
#include "util/config.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace railcorr::corridor {
namespace {

IsdSearch paper_search() {
  return IsdSearch(CapacityAnalyzer::paper_analyzer(), IsdSearchConfig{});
}

TEST(IsdSearch, PaperPublishedListShape) {
  const auto& paper = paper_published_max_isds();
  ASSERT_EQ(paper.size(), 10u);
  EXPECT_DOUBLE_EQ(paper.front(), 1250.0);
  EXPECT_DOUBLE_EQ(paper.back(), 2650.0);
  // Strictly increasing.
  for (std::size_t i = 1; i < paper.size(); ++i) {
    EXPECT_GT(paper[i], paper[i - 1]);
  }
}

TEST(IsdSearch, CalibratedModelTracksPaperList) {
  // The calibrated fronthaul-aware model reproduces the paper's ten
  // max-ISD values within two 50 m grid steps (see EXPERIMENTS.md E2 for
  // the per-point deviations of the frozen calibration).
  const auto results = paper_search().sweep(1, 10);
  const auto& paper = paper_published_max_isds();
  ASSERT_EQ(results.size(), 10u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].max_isd_m.has_value()) << "N=" << i + 1;
    EXPECT_NEAR(*results[i].max_isd_m, paper[i], 100.0 + 1e-9)
        << "N=" << i + 1;
  }
}

TEST(IsdSearch, ExactAnchorsOfFrozenCalibration) {
  // The frozen calibration (fronthaul 53 dB @ 100 m, 0.5 dB/km) matches
  // the paper exactly at these repeater counts.
  const auto search = paper_search();
  EXPECT_DOUBLE_EQ(*search.find_max_isd(3).max_isd_m, 1600.0);
  EXPECT_DOUBLE_EQ(*search.find_max_isd(4).max_isd_m, 1800.0);
  EXPECT_DOUBLE_EQ(*search.find_max_isd(5).max_isd_m, 1950.0);
  EXPECT_DOUBLE_EQ(*search.find_max_isd(9).max_isd_m, 2500.0);
}

TEST(IsdSearch, MaxIsdIncreasesWithRepeaterCount) {
  const auto results = paper_search().sweep(1, 10);
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_GE(*results[i].max_isd_m, *results[i - 1].max_isd_m)
        << "N=" << i + 1;
  }
}

TEST(IsdSearch, ResultsRespectSnrThreshold) {
  const auto search = paper_search();
  const auto analyzer = CapacityAnalyzer::paper_analyzer();
  for (int n : {1, 4, 8}) {
    const auto r = search.find_max_isd(n);
    ASSERT_TRUE(r.max_isd_m.has_value());
    // At the maximum the criterion holds ...
    EXPECT_GE(r.min_snr_at_max.value(), 29.0);
    // ... and one step further it fails.
    const auto next = SegmentDeployment::with_repeaters(*r.max_isd_m + 50.0, n);
    const auto model = analyzer.link_model(next);
    EXPECT_LT(model.min_snr(0.0, next.geometry.isd_m, 10.0).value(), 29.0)
        << "N=" << n;
  }
}

TEST(IsdSearch, ZeroRepeatersBaseline) {
  // Without repeaters the criterion caps the ISD near 900 m — consistent
  // with the paper deploying conventional corridors at 500 m for margin.
  const auto r = paper_search().find_max_isd(0);
  ASSERT_TRUE(r.max_isd_m.has_value());
  EXPECT_GE(*r.max_isd_m, 700.0);
  EXPECT_LE(*r.max_isd_m, 1000.0);
}

TEST(IsdSearch, StricterThresholdShrinksIsd) {
  IsdSearchConfig strict;
  strict.snr_threshold = Db(32.0);
  const IsdSearch strict_search(CapacityAnalyzer::paper_analyzer(), strict);
  const auto loose = paper_search().find_max_isd(5);
  const auto tight = strict_search.find_max_isd(5);
  ASSERT_TRUE(loose.max_isd_m.has_value());
  ASSERT_TRUE(tight.max_isd_m.has_value());
  EXPECT_LT(*tight.max_isd_m, *loose.max_isd_m);
}

TEST(IsdSearch, GridStepGranularity) {
  const auto r = paper_search().find_max_isd(2);
  ASSERT_TRUE(r.max_isd_m.has_value());
  EXPECT_NEAR(std::fmod(*r.max_isd_m, 50.0), 0.0, 1e-9);
}

TEST(IsdSearch, Contracts) {
  EXPECT_THROW(paper_search().find_max_isd(-1), ContractViolation);
  EXPECT_THROW((void)paper_search().deepest_feasible(-1, 3), ContractViolation);
  EXPECT_THROW((void)paper_search().deepest_feasible(4, 3), ContractViolation);
  IsdSearchConfig bad;
  bad.isd_step_m = 0.0;
  EXPECT_THROW(IsdSearch(CapacityAnalyzer::paper_analyzer(), bad),
               ContractViolation);
}

// ---- deepest_feasible ---------------------------------------------------

/// The search a scenario's evaluator runs (PaperEvaluator::isd_search).
IsdSearch search_of(const core::Scenario& scenario) {
  IsdSearchConfig config = scenario.isd_search;
  config.repeater_spacing_m = scenario.repeater_spacing_m;
  return IsdSearch(scenario.make_analyzer(), config, scenario.radio);
}

/// Exact min SNR of one grid point, as sweep() evaluates it.
Db point_min_snr(const core::Scenario& scenario, int n, double isd_m) {
  SegmentDeployment deployment;
  deployment.geometry.isd_m = isd_m;
  deployment.geometry.repeater_count = n;
  deployment.geometry.repeater_spacing_m = scenario.repeater_spacing_m;
  deployment.radio = scenario.radio;
  return scenario.make_analyzer().link_model(deployment).min_snr(
      0.0, isd_m, scenario.isd_search.sample_step_m);
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// deepest_feasible(from, to) is the last entry of sweep(from, to) with
/// a value, or both have none; ISD and min SNR agree bit for bit.
void expect_deepest_is_last_feasible(const core::Scenario& scenario, int from,
                                     const std::string& label) {
  SCOPED_TRACE(label);
  const IsdSearch search = search_of(scenario);
  const int to = scenario.max_repeaters;
  const auto sweep = search.sweep(from, to);
  const MaxIsdResult* last = nullptr;
  for (const auto& r : sweep) {
    if (r.max_isd_m.has_value()) last = &r;
  }
  const auto deepest = search.deepest_feasible(from, to);
  ASSERT_EQ(deepest.has_value(), last != nullptr);
  if (last == nullptr) return;
  EXPECT_EQ(deepest->repeater_count, last->repeater_count);
  ASSERT_TRUE(deepest->max_isd_m.has_value());
  EXPECT_EQ(bits(*deepest->max_isd_m), bits(*last->max_isd_m));
  EXPECT_EQ(bits(deepest->min_snr_at_max.value()),
            bits(last->min_snr_at_max.value()));
}

/// One seeded perturbation of the radio-stage keys of `base`.
core::Scenario perturbed(const core::Scenario& base, std::uint64_t seed) {
  SplitMix64 rng(seed);
  const auto pick = [&rng](const std::vector<std::string>& values) {
    return values[rng.next() % values.size()];
  };
  const std::vector<std::pair<std::string, std::vector<std::string>>> keys = {
      {"radio.hp_eirp_dbm", {"55", "58.5", "61", "64", "67", "70"}},
      {"radio.lp_eirp_dbm", {"28", "31.5", "34", "37", "40", "43", "46"}},
      {"radio.hp_calibration_db", {"28", "33", "37.5"}},
      {"radio.lp_calibration_db", {"15", "20", "24.5"}},
      {"link.noise.nf_mobile_terminal_db", {"3", "5", "7.5"}},
      {"link.noise.nf_repeater_db", {"4", "8", "11", "14"}},
      {"link.fronthaul.snr_at_ref_db", {"45", "53", "60"}},
      {"link.fronthaul.ref_distance_m", {"50", "100", "250"}},
      {"link.fronthaul.atmospheric_db_per_km", {"0", "0.5", "4"}},
      {"link.noise_model", {"literal_eq2", "fronthaul_aware"}},
      {"corridor.repeater_spacing_m", {"120", "200", "275"}},
      {"isd_search.isd_step_m", {"25", "50", "75"}},
      {"isd_search.sample_step_m", {"5", "10", "12.5", "20"}},
  };
  core::Scenario scenario = base;
  for (const auto& [key, values] : keys) {
    // Each key moves in about half of the perturbations.
    if (rng.next() % 2 == 0) continue;
    core::apply_override(scenario, util::SpecEntry{key, pick(values), 0});
  }
  return scenario;
}

TEST(IsdSearch, DeepestFeasibleIsTheLastFeasibleSweepEntry) {
  for (const auto& variant : core::scenario_registry()) {
    const core::Scenario scenario = core::make_scenario(variant.name);
    expect_deepest_is_last_feasible(scenario, 1, variant.name);
    expect_deepest_is_last_feasible(scenario, 0, variant.name + " from 0");
  }
  const core::Scenario paper = core::Scenario::paper();
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    expect_deepest_is_last_feasible(perturbed(paper, seed), 1,
                                    "perturbation " + std::to_string(seed));
  }

  // No grid point meets the threshold.
  core::Scenario unreachable = paper;
  unreachable.isd_search.snr_threshold = Db(80.0);
  expect_deepest_is_last_feasible(unreachable, 1, "80 dB threshold");
  ASSERT_FALSE(search_of(unreachable).deepest_feasible(1, 10).has_value());

  // Thresholds equal to one grid point's exact min SNR: that point meets
  // `>=` with equality, so the reject margin must not cut it. The top
  // of the grid is the first point the search visits; one step past
  // N = 3's and N = 7's max ISD is a point inside the walk.
  for (const auto& [n, isd] : std::vector<std::pair<int, double>>{
           {10, 3600.0}, {3, 1650.0}, {7, 2300.0}}) {
    core::Scenario boundary = paper;
    boundary.max_repeaters = n;
    const Db exact = point_min_snr(boundary, n, isd);
    boundary.isd_search.snr_threshold = exact;
    expect_deepest_is_last_feasible(
        boundary, n, "threshold = min SNR of N=" + std::to_string(n) + ", " +
                         std::to_string(isd) + " m");
    const auto deepest = search_of(boundary).deepest_feasible(n, n);
    ASSERT_TRUE(deepest.has_value());
    EXPECT_GE(*deepest->max_isd_m, isd);
    EXPECT_GE(deepest->min_snr_at_max, exact);
  }

  // The reject probe's hint reads its samples from the point's own
  // accumulated sequence, whose last sample is clamped to the ISD: a
  // step that does not divide any ISD on the grid.
  core::Scenario ragged = paper;
  ragged.isd_search.sample_step_m = 7.3;
  expect_deepest_is_last_feasible(ragged, 1, "sample step 7.3 m");

  // Sequences shorter than the hint's 4 samples: with 1 km steps up to
  // a 2.4 km ISD every point has 2 or 3 samples, and a 36 dB threshold
  // rejects the 47 points above N = 8's answer.
  core::Scenario sparse = paper;
  sparse.isd_search.sample_step_m = 1000.0;
  sparse.isd_search.max_isd_m = 2400.0;
  sparse.isd_search.snr_threshold = Db(36.0);
  expect_deepest_is_last_feasible(sparse, 1, "2-3 samples per point");

  // Donor distances on no common grid, so the noise-gain memo's keys
  // rarely repeat between layouts.
  core::Scenario offgrid = paper;
  offgrid.repeater_spacing_m = 173.3;
  offgrid.isd_search.isd_step_m = 37.7;
  expect_deepest_is_last_feasible(offgrid, 1,
                                  "spacing 173.3 m, ISD step 37.7 m");
}

TEST(IsdSearch, DeepestFeasibleCountsItsWork) {
  // The paper scenario's deepest N = 10 is found walking down from the
  // top of its grid; only the winning point runs the full reduction.
  auto& metrics = obs::MetricsRegistry::instance();
  metrics.reset_values();
  const auto deepest = paper_search().deepest_feasible(1, 10);
  ASSERT_TRUE(deepest.has_value());
  EXPECT_EQ(deepest->repeater_count, 10);
  const IsdSearchConfig config;
  const auto visited = static_cast<std::uint64_t>(
      std::lround((config.max_isd_m - *deepest->max_isd_m) /
                  config.isd_step_m) +
      1);
  EXPECT_EQ(metrics.counter("corridor.isd_points").value(), visited);
  EXPECT_EQ(metrics.counter("corridor.isd_full_scans").value(), 1u);
  // The reject probe's samples over the 21 rejected points and the
  // winner, hint samples included. Without the hint it takes 1,936.
  EXPECT_EQ(metrics.counter("corridor.isd_probe_samples").value(), 708u);
}

}  // namespace
}  // namespace railcorr::corridor
