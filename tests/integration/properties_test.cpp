/// Cross-module property batteries, parameterized over the paper's ten
/// published operating points (N, max ISD). These pin structural
/// invariants rather than absolute values: symmetry, monotonicity, and
/// accounting identities that must hold for every deployment.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/scenario_registry.hpp"
#include "core/sweep_runner.hpp"
#include "corridor/capacity.hpp"
#include "corridor/cost.hpp"
#include "corridor/energy.hpp"
#include "corridor/isd_search.hpp"
#include "corridor/multi_segment.hpp"
#include "rf/uplink.hpp"
#include "traffic/duty.hpp"
#include "util/config.hpp"

namespace railcorr {
namespace {

struct OperatingPoint {
  int n;
  double isd;
};

OperatingPoint point(int n) {
  return OperatingPoint{
      n, corridor::paper_published_max_isds()[static_cast<std::size_t>(n - 1)]};
}

class OperatingPointTest : public ::testing::TestWithParam<int> {};

// --- RF / capacity invariants ------------------------------------------

TEST_P(OperatingPointTest, SnrProfileIsSymmetric) {
  const auto p = point(GetParam());
  const auto d = corridor::SegmentDeployment::with_repeaters(p.isd, p.n);
  const rf::LinkModelConfig config;
  const rf::CorridorLinkModel link(config, d.transmitters(config.carrier));
  for (double x = 0.0; x <= p.isd / 2.0; x += 97.0) {
    EXPECT_NEAR(link.snr(x).value(), link.snr(p.isd - x).value(), 1e-6)
        << "x=" << x;
  }
}

TEST_P(OperatingPointTest, SignalDecomposesAdditively) {
  const auto p = point(GetParam());
  const auto d = corridor::SegmentDeployment::with_repeaters(p.isd, p.n);
  const rf::LinkModelConfig config;
  const rf::CorridorLinkModel link(config, d.transmitters(config.carrier));
  const double pos = p.isd * 0.37;
  double sum = 0.0;
  for (std::size_t i = 0; i < link.transmitters().size(); ++i) {
    sum += link.rsrp_of(i, pos).to_milliwatts().value();
  }
  EXPECT_NEAR(link.total_signal(pos).value(), sum, sum * 1e-12);
}

TEST_P(OperatingPointTest, MaskedSumNeverExceedsFull) {
  const auto p = point(GetParam());
  const auto d = corridor::SegmentDeployment::with_repeaters(p.isd, p.n);
  const rf::LinkModelConfig config;
  const rf::CorridorLinkModel link(config, d.transmitters(config.carrier));
  std::vector<bool> half(link.transmitters().size(), false);
  for (std::size_t i = 0; i < half.size(); i += 2) half[i] = true;
  const double pos = p.isd * 0.5;
  EXPECT_LE(link.total_signal(pos, half).value(),
            link.total_signal(pos).value() + 1e-15);
  EXPECT_LE(link.total_noise(pos, half).value(),
            link.total_noise(pos).value() + 1e-15);
}

TEST_P(OperatingPointTest, PeakThroughputAtCriterion) {
  const auto p = point(GetParam());
  const auto analyzer = corridor::CapacityAnalyzer::paper_analyzer();
  const auto d = corridor::SegmentDeployment::with_repeaters(p.isd, p.n);
  const auto summary = analyzer.summarize(d);
  // Published operating points hold the criterion within two grid steps
  // of calibration tolerance; the mean is always comfortably above.
  EXPECT_GE(summary.mean_snr_db.value(), 29.0);
  EXPECT_GE(summary.min_throughput_bps, 0.97 * 584e6);
}

TEST_P(OperatingPointTest, UplinkNeverBinds) {
  const auto p = point(GetParam());
  const auto d = corridor::SegmentDeployment::with_repeaters(p.isd, p.n);
  const rf::LinkModelConfig config;
  const rf::UplinkModel ul(config, d.transmitters(config.carrier));
  EXPECT_GE(ul.min_snr(0.0, p.isd, 25.0).value(), 0.0);
}

// --- Energy invariants ---------------------------------------------------

TEST_P(OperatingPointTest, EnergyBreakdownAddsUp) {
  const auto p = point(GetParam());
  const corridor::CorridorEnergyModel model;
  corridor::SegmentGeometry g;
  g.isd_m = p.isd;
  g.repeater_count = p.n;
  for (const auto mode : {corridor::RepeaterOperationMode::kContinuous,
                          corridor::RepeaterOperationMode::kSleepMode,
                          corridor::RepeaterOperationMode::kSolarPowered}) {
    const auto b = model.evaluate(g, mode);
    EXPECT_NEAR(b.total_mains_per_km().value(),
                b.hp_mains_per_km.value() + b.lp_service_mains_per_km.value() +
                    b.lp_donor_mains_per_km.value(),
                1e-9);
    EXPECT_GE(b.hp_mains_per_km.value(), 0.0);
    // Daily energy identity.
    EXPECT_NEAR(b.mains_wh_per_km_day().value(),
                24.0 * b.mains_wh_per_km_hour().value(), 1e-9);
  }
}

TEST_P(OperatingPointTest, SleepSavesOverContinuousSolarOverSleep) {
  const auto p = point(GetParam());
  const corridor::CorridorEnergyModel model;
  corridor::SegmentGeometry g;
  g.isd_m = p.isd;
  g.repeater_count = p.n;
  const double cont =
      model.evaluate(g, corridor::RepeaterOperationMode::kContinuous)
          .total_mains_per_km()
          .value();
  const double sleep =
      model.evaluate(g, corridor::RepeaterOperationMode::kSleepMode)
          .total_mains_per_km()
          .value();
  const double solar =
      model.evaluate(g, corridor::RepeaterOperationMode::kSolarPowered)
          .total_mains_per_km()
          .value();
  EXPECT_GT(cont, sleep);
  EXPECT_GT(sleep, solar);
  EXPECT_GT(solar, 0.0);
}

TEST_P(OperatingPointTest, SolarOffgridEqualsSleepLpMains) {
  // The off-grid power in solar mode equals exactly what the LP nodes
  // would have drawn from mains in sleep mode (same duty cycles).
  const auto p = point(GetParam());
  const corridor::CorridorEnergyModel model;
  corridor::SegmentGeometry g;
  g.isd_m = p.isd;
  g.repeater_count = p.n;
  const auto sleep =
      model.evaluate(g, corridor::RepeaterOperationMode::kSleepMode);
  const auto solar =
      model.evaluate(g, corridor::RepeaterOperationMode::kSolarPowered);
  EXPECT_NEAR(solar.lp_offgrid_per_km.value(),
              sleep.lp_service_mains_per_km.value() +
                  sleep.lp_donor_mains_per_km.value(),
              1e-9);
}

// --- Cost invariants -----------------------------------------------------

TEST_P(OperatingPointTest, CostScalesWithEnergy) {
  const auto p = point(GetParam());
  const corridor::CostAnalyzer analyzer{corridor::CostModel{},
                                        corridor::CorridorEnergyModel{}};
  corridor::SegmentGeometry g;
  g.isd_m = p.isd;
  g.repeater_count = p.n;
  const auto sleep =
      analyzer.evaluate(g, corridor::RepeaterOperationMode::kSleepMode);
  const auto solar =
      analyzer.evaluate(g, corridor::RepeaterOperationMode::kSolarPowered);
  EXPECT_GT(sleep.energy_opex_eur_km_year, solar.energy_opex_eur_km_year);
  EXPECT_GT(sleep.co2_kg_km_year, solar.co2_kg_km_year);
  // CO2 proportional to energy under a fixed grid intensity.
  EXPECT_NEAR(sleep.co2_kg_km_year / sleep.energy_opex_eur_km_year,
              solar.co2_kg_km_year / solar.energy_opex_eur_km_year, 1e-9);
}

// --- Duty-cycle invariants ------------------------------------------------

TEST_P(OperatingPointTest, MastDutyConsistentWithOccupancy) {
  const auto p = point(GetParam());
  const auto tt = traffic::TimetableConfig::paper_timetable();
  const double f = traffic::full_load_fraction(tt, p.isd);
  EXPECT_NEAR(f,
              tt.trains_per_day() * tt.train.occupancy_seconds(p.isd) / 86400.0,
              1e-12);
  EXPECT_GT(f, 0.0);
  EXPECT_LT(f, 0.12);
}

INSTANTIATE_TEST_SUITE_P(AllPublishedPoints, OperatingPointTest,
                         ::testing::Range(1, 11));

// --- Metamorphic: more transmit power never shrinks the deployment ------
//
// A stronger mast or repeater raises the signal at every track position
// by more than the noise it injects (the repeater noise scales with its
// own signal), so the deepest feasible deployment the sweep reports,
// (max_n, max_isd_m) in lexicographic order, is non-decreasing in both
// EIRPs. The oracle is the physics, not the search code.

/// Split one CSV line (no quoting in sweep documents).
std::vector<std::string> csv_fields(const std::string& line) {
  std::vector<std::string> fields;
  std::stringstream in(line);
  std::string field;
  while (std::getline(in, field, ',')) fields.push_back(field);
  return fields;
}

TEST(EirpMonotonicity, DeepestDeploymentNeverShrinksWithMorePower) {
  constexpr int kLpLo = 28, kLpHi = 46, kHpLo = 54, kHpHi = 70;
  std::string spec = "base = paper\naxis radio.lp_eirp_dbm = ";
  for (int lp = kLpLo; lp <= kLpHi; ++lp) {
    spec += (lp > kLpLo ? ", " : "") + std::to_string(lp);
  }
  spec += "\naxis radio.hp_eirp_dbm = ";
  for (int hp = kHpLo; hp <= kHpHi; ++hp) {
    spec += (hp > kHpLo ? ", " : "") + std::to_string(hp);
  }
  spec += "\n";
  const auto plan = corridor::SweepPlan::from_spec(spec);
  const std::string document =
      core::run_sweep_shard(plan, corridor::ShardSpec{0, 1}, {});

  // Column positions from the header (second line).
  std::stringstream lines(document);
  std::string line;
  std::getline(lines, line);  // banner
  std::getline(lines, line);
  const auto header = csv_fields(line);
  const auto column = [&header](const std::string& name) {
    for (std::size_t i = 0; i < header.size(); ++i) {
      if (header[i] == name) return i;
    }
    ADD_FAILURE() << "no column " << name;
    return std::size_t{0};
  };
  const std::size_t lp_col = column("radio.lp_eirp_dbm");
  const std::size_t hp_col = column("radio.hp_eirp_dbm");
  const std::size_t n_col = column("max_n");
  const std::size_t isd_col = column("max_isd_m");

  // deepest[{lp, hp}] = (max_n, max_isd_m).
  std::map<std::pair<int, int>, std::pair<int, double>> deepest;
  while (std::getline(lines, line)) {
    const auto fields = csv_fields(line);
    ASSERT_EQ(fields.size(), header.size()) << line;
    deepest[{std::stoi(fields[lp_col]), std::stoi(fields[hp_col])}] = {
        std::stoi(fields[n_col]), std::stod(fields[isd_col])};
  }
  ASSERT_EQ(deepest.size(), static_cast<std::size_t>((kLpHi - kLpLo + 1) *
                                                    (kHpHi - kHpLo + 1)));

  int strict_rises = 0;
  for (const auto& [cell, here] : deepest) {
    const auto [lp, hp] = cell;
    for (const auto& next : {std::pair{lp + 1, hp}, std::pair{lp, hp + 1}}) {
      const auto it = deepest.find(next);
      if (it == deepest.end()) continue;
      EXPECT_LE(here, it->second)
          << "LP " << lp << " dBm, HP " << hp << " dBm -> LP " << next.first
          << " dBm, HP " << next.second << " dBm";
      if (here < it->second) ++strict_rises;
    }
  }
  // The grid spans feasible and infeasible regimes, so power does move
  // the result.
  EXPECT_GT(strict_rises, 0);
}

// --- Metamorphic: more trains never make a deployment cheaper to run ----
//
// Each train wakes the sleeping repeaters for its passage, so a denser
// timetable raises every repeater's load and the sleep-mode energy while
// the continuous-mode energy does not depend on it. Two consequences,
// checked on the sweep's rows along timetable.trains_per_hour:
//  - the absolute sleep-mode saving, continuous_wh_km_h - sleep_wh_km_h,
//    is non-increasing (the relative sleep_savings column is not: where
//    savings are negative, a growing baseline can raise it);
//  - the off-grid system the sizing ladder picks is never smaller:
//    sized_pv_wp_total and ladder_exhausted are non-decreasing. A sizing
//    walk that dropped a passing rung would pick a smaller system.

/// The data rows of a sweep document as column name -> field maps.
std::vector<std::map<std::string, std::string>> sweep_rows(
    const std::string& spec, bool include_sizing) {
  const auto plan = corridor::SweepPlan::from_spec(spec);
  core::SweepRunOptions options;
  options.include_sizing = include_sizing;
  std::stringstream lines(
      core::run_sweep_shard(plan, corridor::ShardSpec{0, 1}, options));
  std::string line;
  std::getline(lines, line);  // banner
  std::getline(lines, line);
  const auto header = csv_fields(line);
  std::vector<std::map<std::string, std::string>> rows;
  while (std::getline(lines, line)) {
    const auto fields = csv_fields(line);
    EXPECT_EQ(fields.size(), header.size()) << line;
    auto& row = rows.emplace_back();
    for (std::size_t i = 0; i < fields.size() && i < header.size(); ++i) {
      row[header[i]] = fields[i];
    }
  }
  EXPECT_EQ(rows.size(), plan.size());
  return rows;
}

/// `values` joined as one sweep axis value list.
template <typename T>
std::string axis_values(const std::vector<T>& values) {
  std::string out;
  for (const T& value : values) {
    if (!out.empty()) out += ", ";
    out += std::to_string(value);
  }
  return out;
}

TEST(TrainsPerHourMonotonicity, AbsoluteSleepSavingNeverGrows) {
  const std::vector<int> trains = {1, 2, 3, 4, 5, 6, 8, 10, 12, 14, 16, 18, 20};
  const std::vector<int> lp_eirps = {30, 35, 40, 45};
  int strict_drops = 0;
  for (const auto& variant : core::scenario_registry()) {
    SCOPED_TRACE(variant.name);
    const auto rows = sweep_rows(
        "base = " + variant.name + "\naxis radio.lp_eirp_dbm = " +
            axis_values(lp_eirps) +
            "\naxis timetable.trains_per_hour = " + axis_values(trains) + "\n",
        false);
    ASSERT_EQ(rows.size(), lp_eirps.size() * trains.size());
    // Row-major grid: the trains/h axis is the fastest.
    for (std::size_t i = 0; i + 1 < rows.size(); ++i) {
      if ((i + 1) % trains.size() == 0) continue;
      const auto saving = [](const std::map<std::string, std::string>& row) {
        return std::stod(row.at("continuous_wh_km_h")) -
               std::stod(row.at("sleep_wh_km_h"));
      };
      EXPECT_LE(saving(rows[i + 1]), saving(rows[i]))
          << "LP " << rows[i].at("radio.lp_eirp_dbm") << " dBm, "
          << rows[i].at("timetable.trains_per_hour") << " -> "
          << rows[i + 1].at("timetable.trains_per_hour") << " trains/h";
      if (saving(rows[i + 1]) < saving(rows[i])) ++strict_drops;
    }
  }
  EXPECT_GT(strict_drops, 0);
}

TEST(TrainsPerHourMonotonicity, SizedSystemNeverShrinks) {
  const std::vector<int> trains = {1, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20};
  const std::vector<int> seeds = {1, 2, 3, 5, 8};
  for (const std::string base :
       {"arctic-climate", "paper", "iberian-corridor"}) {
    SCOPED_TRACE(base);
    const auto rows = sweep_rows(
        "base = " + base + "\nset sizing.years = 2\naxis sizing.seed = " +
            axis_values(seeds) + "\naxis timetable.trains_per_hour = " +
            axis_values(trains) + "\n",
        true);
    ASSERT_EQ(rows.size(), seeds.size() * trains.size());
    std::set<double> totals;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      totals.insert(std::stod(rows[i].at("sized_pv_wp_total")));
      if ((i + 1) % trains.size() == 0) continue;
      const auto& here = rows[i];
      const auto& next = rows[i + 1];
      const std::string where = "seed " + here.at("sizing.seed") + ", " +
                                here.at("timetable.trains_per_hour") + " -> " +
                                next.at("timetable.trains_per_hour") +
                                " trains/h";
      EXPECT_LE(std::stod(here.at("sized_pv_wp_total")),
                std::stod(next.at("sized_pv_wp_total")))
          << where;
      EXPECT_LE(std::stoi(here.at("ladder_exhausted")),
                std::stoi(next.at("ladder_exhausted")))
          << where;
    }
    // The timetable moves the sized system within every base.
    EXPECT_GE(totals.size(), 3u);
  }
}

// --- The corridor check against a reference it does not share ---------
//
// A row's corridor_min_snr_db is the worst SNR over all K segments at the
// row's deepest deployment, every neighbour contributing. The sweep gets
// it from MultiSegmentAnalyzer::min_snr (and skips the check at K = 1);
// the expected value here is the minimum of per_segment's minima, which
// the sweep never calls. With one segment it is the single-segment
// minimum the max-ISD search already reported.
TEST(CorridorCheck, CorridorMinimumIsTheMinimumOfPerSegmentMinima) {
  const std::string spec =
      "base = paper\n"
      "axis corridor.segments = 1, 2, 3\n"
      "axis radio.lp_eirp_dbm = 30, 36, 42\n"
      "axis link.noise.nf_repeater_db = 5, 9\n";
  const auto plan = corridor::SweepPlan::from_spec(spec);
  const auto rows = sweep_rows(spec, false);
  ASSERT_EQ(rows.size(), plan.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& row = rows[i];
    const core::Scenario scenario = core::scenario_at(plan, i);
    SCOPED_TRACE("cell " + std::to_string(i) + ", " +
                 std::to_string(scenario.corridor_segments) + " segment(s)");
    const int n = std::stoi(row.at("max_n"));
    ASSERT_GT(n, 0);

    corridor::SegmentDeployment segment;
    segment.geometry.isd_m = std::stod(row.at("max_isd_m"));
    segment.geometry.repeater_count = n;
    segment.geometry.repeater_spacing_m = scenario.repeater_spacing_m;
    segment.radio = scenario.radio;
    const corridor::MultiSegmentAnalyzer analyzer(
        scenario.link, scenario.isd_search.sample_step_m);
    const auto segments = analyzer.per_segment(
        corridor::CorridorDeployment::repeat(segment,
                                             scenario.corridor_segments));
    ASSERT_EQ(segments.size(),
              static_cast<std::size_t>(scenario.corridor_segments));
    double expected = std::numeric_limits<double>::infinity();
    for (const auto& capacity : segments) {
      expected = std::min(expected, capacity.min_snr.value());
    }
    // Shortest round-trip text: equal strings are equal bits.
    EXPECT_EQ(row.at("corridor_min_snr_db"), util::format_double(expected));
    if (scenario.corridor_segments == 1) {
      EXPECT_EQ(row.at("corridor_min_snr_db"), row.at("min_snr_at_max_db"));
    }
  }
}

}  // namespace
}  // namespace railcorr
