#include "corridor/multi_segment.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>

#include "core/evaluator.hpp"
#include "core/scenario_registry.hpp"
#include "exec/parallel.hpp"
#include "obs/metrics.hpp"
#include "rf/batch_kernel.hpp"
#include "util/contracts.hpp"

namespace railcorr::corridor {
namespace {

CorridorDeployment five_segments() {
  return CorridorDeployment::repeat(
      SegmentDeployment::with_repeaters(2400.0, 8), 5);
}

TEST(MultiSegment, TransmitterPopulation) {
  const auto corridor = five_segments();
  const auto txs = corridor.transmitters(rf::NrCarrier::paper_carrier());
  // 6 masts + 5 x 8 repeaters.
  ASSERT_EQ(txs.size(), 46u);
  int masts = 0;
  for (const auto& tx : txs) {
    if (tx.kind == rf::NodeKind::kHighPowerRrh) ++masts;
  }
  EXPECT_EQ(masts, 6);
}

TEST(MultiSegment, DonorDistancesAreLocal) {
  const auto corridor = five_segments();
  const auto txs = corridor.transmitters(rf::NrCarrier::paper_carrier());
  for (const auto& tx : txs) {
    if (tx.kind != rf::NodeKind::kLowPowerRepeater) continue;
    EXPECT_GT(tx.donor_distance_m, 0.0);
    EXPECT_LE(tx.donor_distance_m, 1200.0);  // never beyond half an ISD
  }
}

TEST(MultiSegment, PerSegmentSummaries) {
  const MultiSegmentAnalyzer analyzer(rf::LinkModelConfig{});
  const auto capacities = analyzer.per_segment(five_segments());
  ASSERT_EQ(capacities.size(), 5u);
  // Symmetry: first == last, second == fourth (within sampling noise).
  EXPECT_NEAR(capacities[0].min_snr.value(), capacities[4].min_snr.value(),
              0.05);
  EXPECT_NEAR(capacities[1].min_snr.value(), capacities[3].min_snr.value(),
              0.05);
  // Every segment of the corridor still meets the paper criterion.
  for (const auto& cap : capacities) {
    EXPECT_GE(cap.min_snr.value(), 29.0) << "segment " << cap.segment_index;
    EXPECT_GT(cap.mean_snr_db.value(), cap.min_snr.value());
  }
}

TEST(MultiSegment, BoundaryEffectIsSmallAndBenign) {
  const MultiSegmentAnalyzer analyzer(rf::LinkModelConfig{});
  const Db effect = analyzer.interior_boundary_effect(
      SegmentDeployment::with_repeaters(2400.0, 8));
  // Neighbour masts/nodes contribute little at >= 500 m but they do both
  // add signal and inject noise; net effect is a fraction of a dB and
  // must not *reduce* the interior minimum below the isolated analysis
  // by more than a rounding margin.
  EXPECT_GT(effect.value(), -0.1);
  EXPECT_LT(std::abs(effect.value()), 0.75);
}

TEST(MultiSegment, PublishedPointsSurviveNeighbours) {
  // The single-segment criterion is what the paper publishes; verify it
  // is not an artefact of isolation for representative points.
  const MultiSegmentAnalyzer analyzer(rf::LinkModelConfig{});
  const std::vector<std::pair<int, double>> points = {{3, 1600.0},
                                                      {5, 1950.0}};
  for (const auto& [n, isd] : points) {
    const auto corridor =
        CorridorDeployment::repeat(SegmentDeployment::with_repeaters(isd, n), 3);
    const auto capacities = analyzer.per_segment(corridor);
    EXPECT_GE(capacities[1].min_snr.value(), 29.0) << "N=" << n;
  }
}

TEST(MultiSegment, SingleSegmentMatchesSegmentDeployment) {
  const MultiSegmentAnalyzer analyzer(rf::LinkModelConfig{});
  const auto segment = SegmentDeployment::with_repeaters(1800.0, 4);
  const auto corridor = CorridorDeployment::repeat(segment, 1);
  const auto capacities = analyzer.per_segment(corridor);
  const rf::LinkModelConfig config;
  const rf::CorridorLinkModel isolated(config,
                                       segment.transmitters(config.carrier));
  ASSERT_EQ(capacities.size(), 1u);
  EXPECT_NEAR(capacities[0].min_snr.value(),
              isolated.min_snr(0.0, 1800.0, 10.0).value(), 1e-9);
}

/// Restores automatic thread-count resolution even when an ASSERT
/// bails out of the test body early.
class MultiSegmentThreads : public ::testing::Test {
 protected:
  void TearDown() override { exec::set_default_thread_count(0); }
};

TEST_F(MultiSegmentThreads, PerSegmentBitIdenticalAcrossThreadCounts) {
  const MultiSegmentAnalyzer analyzer(rf::LinkModelConfig{});
  exec::set_default_thread_count(1);
  const auto baseline = analyzer.per_segment(five_segments());
  for (const std::size_t threads : {2u, 8u}) {
    exec::set_default_thread_count(threads);
    const auto capacities = analyzer.per_segment(five_segments());
    ASSERT_EQ(capacities.size(), baseline.size());
    for (std::size_t i = 0; i < baseline.size(); ++i) {
      EXPECT_EQ(capacities[i].segment_index, baseline[i].segment_index);
      EXPECT_EQ(capacities[i].min_snr.value(), baseline[i].min_snr.value());
      EXPECT_EQ(capacities[i].mean_snr_db.value(),
                baseline[i].mean_snr_db.value());
    }
  }
}

TEST(MultiSegment, PerSegmentBitIdenticalAcrossSimdLevels) {
  const MultiSegmentAnalyzer analyzer(rf::LinkModelConfig{});
  rf::force_simd_level(rf::SimdLevel::kScalar);
  const auto scalar = analyzer.per_segment(five_segments());
  rf::reset_simd_level();
  const auto dispatched = analyzer.per_segment(five_segments());
  ASSERT_EQ(scalar.size(), dispatched.size());
  for (std::size_t i = 0; i < scalar.size(); ++i) {
    EXPECT_EQ(scalar[i].min_snr.value(), dispatched[i].min_snr.value());
    EXPECT_EQ(scalar[i].mean_snr_db.value(),
              dispatched[i].mean_snr_db.value());
  }
}

TEST(MultiSegment, MinOnlyCheckIsThePerSegmentMinimum) {
  rf::LinkModelConfig literal;
  literal.noise_model = rf::RepeaterNoiseModel::kLiteralEq2;
  for (const auto& config : {rf::LinkModelConfig{}, literal}) {
    for (const double step : {10.0, 20.0}) {
      const MultiSegmentAnalyzer analyzer(config, step);
      for (const auto& corridor :
           {five_segments(),
            CorridorDeployment::repeat(
                SegmentDeployment::with_repeaters(1600.0, 3), 1),
            CorridorDeployment::repeat(
                SegmentDeployment::with_repeaters(2650.0, 10), 10)}) {
        const auto capacities = analyzer.per_segment(corridor);
        Db expected = capacities.front().min_snr;
        for (const auto& cap : capacities) {
          expected = std::min(expected, cap.min_snr);
        }
        const Db min_only = analyzer.min_snr(corridor);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(min_only.value()),
                  std::bit_cast<std::uint64_t>(expected.value()))
            << corridor.geometry.segments << " segments, step " << step;
      }
    }
  }
}

TEST(MultiSegment, MinOnlyCheckSkipsMostSamples) {
  // long-corridor's deepest layout: the end segments hold the minimum,
  // and the interior blocks' bounds clear it.
  const core::Scenario scenario = core::make_scenario("long-corridor");
  const auto deepest = core::PaperEvaluator(scenario).deepest_feasible();
  ASSERT_TRUE(deepest.has_value());
  ASSERT_EQ(deepest->repeater_count, 10);
  ASSERT_EQ(*deepest->max_isd_m, 2550.0);
  SegmentDeployment segment =
      SegmentDeployment::with_repeaters(*deepest->max_isd_m, 10);
  segment.geometry.repeater_spacing_m = scenario.repeater_spacing_m;
  segment.radio = scenario.radio;
  const auto corridor =
      CorridorDeployment::repeat(segment, scenario.corridor_segments);
  const double step = scenario.isd_search.sample_step_m;
  const MultiSegmentAnalyzer analyzer(scenario.link, step);

  auto& metrics = obs::MetricsRegistry::instance();
  metrics.reset_values();
  (void)analyzer.min_snr(corridor);
  const std::uint64_t evaluated =
      metrics.counter("corridor.check_samples").value();
  EXPECT_EQ(evaluated, 273u);
  // The samples per_segment scans, per segment as min_snr samples it.
  std::uint64_t samples = 0;
  const double isd = *deepest->max_isd_m;
  for (int s = 0; s < scenario.corridor_segments; ++s) {
    const double lo = isd * s;
    for (double d = lo; d <= lo + isd + 0.5 * step; d += step) ++samples;
  }
  EXPECT_EQ(samples, 1290u);
  // A change that silently stops pruning leaves the bytes alone; this
  // catches it.
  EXPECT_LT(evaluated * 10, samples * 3);
}

TEST(MultiSegment, Contracts) {
  EXPECT_THROW(CorridorDeployment::repeat(
                   SegmentDeployment::with_repeaters(1800.0, 4), 0),
               ContractViolation);
  const MultiSegmentAnalyzer analyzer(rf::LinkModelConfig{});
  EXPECT_THROW(analyzer.interior_boundary_effect(
                   SegmentDeployment::with_repeaters(1800.0, 4), 2),
               ContractViolation);
  EXPECT_THROW(MultiSegmentAnalyzer(rf::LinkModelConfig{}, 0.0),
               ContractViolation);
  // The min-only check refuses a clamp per_segment refuses.
  rf::LinkModelConfig no_clamp;
  no_clamp.min_distance_m = 0.0;
  const MultiSegmentAnalyzer unclamped(no_clamp);
  EXPECT_THROW((void)unclamped.min_snr(five_segments()), ContractViolation);
  EXPECT_THROW((void)unclamped.per_segment(five_segments()),
               ContractViolation);
}

}  // namespace
}  // namespace railcorr::corridor
