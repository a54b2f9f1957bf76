#include "solar/sizing.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <random>
#include <string>
#include <utility>

#include "exec/parallel.hpp"
#include "obs/metrics.hpp"
#include "util/vmath.hpp"

namespace railcorr::solar {
namespace {

ConsumptionProfile paper_load() {
  return repeater_consumption(
      power::EarthPowerModel::paper_low_power_repeater(),
      traffic::TimetableConfig::paper_timetable(), 200.0);
}

TEST(Sizing, LadderIsOrderedByCost) {
  const auto ladder = paper_sizing_ladder();
  ASSERT_GE(ladder.size(), 3u);
  EXPECT_DOUBLE_EQ(ladder[0].pv_wp, 540.0);
  EXPECT_DOUBLE_EQ(ladder[0].battery_wh, 720.0);
  for (std::size_t i = 1; i < ladder.size(); ++i) {
    EXPECT_GE(ladder[i].pv_wp * ladder[i].battery_wh,
              ladder[i - 1].pv_wp * ladder[i - 1].battery_wh);
  }
}

TEST(Sizing, SouthernSitesNeedTheSmallConfig) {
  // Madrid and Lyon run on 540 Wp / 720 Wh (paper Table IV).
  const auto madrid_result = size_for_location(madrid(), paper_load());
  EXPECT_FALSE(madrid_result.ladder_exhausted);
  EXPECT_DOUBLE_EQ(madrid_result.chosen.pv_wp, 540.0);
  EXPECT_DOUBLE_EQ(madrid_result.chosen.battery_wh, 720.0);
  EXPECT_TRUE(madrid_result.report.continuous_operation());

  const auto lyon_result = size_for_location(lyon(), paper_load());
  EXPECT_DOUBLE_EQ(lyon_result.chosen.pv_wp, 540.0);
  EXPECT_DOUBLE_EQ(lyon_result.chosen.battery_wh, 720.0);
}

TEST(Sizing, NorthernSitesNeedMore) {
  // Vienna and Berlin require enlarged storage (paper: 1440 Wh, Berlin
  // additionally 600 Wp). Our synthetic weather must reproduce at least
  // the *ordering*: Berlin >= Vienna > Madrid in required capacity.
  const auto vienna_result = size_for_location(vienna(), paper_load());
  const auto berlin_result = size_for_location(berlin(), paper_load());
  EXPECT_GE(vienna_result.chosen.battery_wh, 1440.0);
  EXPECT_GE(berlin_result.chosen.battery_wh, 1440.0);
  EXPECT_GE(berlin_result.chosen.pv_wp * berlin_result.chosen.battery_wh,
            vienna_result.chosen.pv_wp * vienna_result.chosen.battery_wh);
  EXPECT_TRUE(vienna_result.report.continuous_operation());
  EXPECT_TRUE(berlin_result.report.continuous_operation());
}

TEST(Sizing, AllFourPaperLocations) {
  const auto results = size_paper_locations(paper_load());
  ASSERT_EQ(results.size(), 4u);
  EXPECT_EQ(results[0].location.name, "Madrid");
  EXPECT_EQ(results[3].location.name, "Berlin");
  for (const auto& r : results) {
    EXPECT_TRUE(r.report.continuous_operation()) << r.location.name;
    // Most days end with a full battery everywhere (paper: 88-98 %).
    EXPECT_GT(r.report.days_with_full_battery_pct, 75.0) << r.location.name;
  }
  // Full-battery percentage decreases northwards (paper's trend).
  EXPECT_GT(results[0].report.days_with_full_battery_pct,
            results[3].report.days_with_full_battery_pct);
}

TEST(Sizing, ImpossibleLoadExhaustsLadder) {
  const auto result = size_for_location(berlin(), constant_consumption(Watts(200.0)));
  EXPECT_TRUE(result.ladder_exhausted);
  EXPECT_FALSE(result.report.continuous_operation());
}

TEST(Sizing, CustomLadderRespected) {
  const std::vector<SizingCandidate> ladder = {{2000.0, 5000.0}};
  const auto result =
      size_for_location(berlin(), paper_load(), SizingOptions{}, ladder);
  EXPECT_DOUBLE_EQ(result.chosen.pv_wp, 2000.0);
  EXPECT_TRUE(result.report.continuous_operation());
}

TEST(Sizing, BatchedGridMatchesSequentialWalk) {
  // The parallel locations x ladder grid must reproduce the sequential
  // early-exit ladder walk exactly: same chosen candidate, same report.
  const auto load = paper_load();
  const auto batched = size_locations(paper_locations(), load);
  ASSERT_EQ(batched.size(), 4u);
  for (const auto& result : batched) {
    const auto sequential = size_for_location(result.location, load);
    EXPECT_EQ(result.chosen.pv_wp, sequential.chosen.pv_wp)
        << result.location.name;
    EXPECT_EQ(result.chosen.battery_wh, sequential.chosen.battery_wh);
    EXPECT_EQ(result.ladder_exhausted, sequential.ladder_exhausted);
    EXPECT_EQ(result.report.downtime_hours, sequential.report.downtime_hours);
    EXPECT_EQ(result.report.annual_pv_energy.value(),
              sequential.report.annual_pv_energy.value());
    EXPECT_EQ(result.report.min_soc_fraction,
              sequential.report.min_soc_fraction);
  }
}

/// Restores automatic thread-count resolution even when an ASSERT
/// bails out of the test body early.
class SizingThreads : public ::testing::Test {
 protected:
  void TearDown() override { exec::set_default_thread_count(0); }
};

TEST_F(SizingThreads, BatchedGridBitIdenticalAcrossThreadCounts) {
  const auto load = paper_load();
  exec::set_default_thread_count(1);
  const auto baseline = size_locations(paper_locations(), load);
  for (const std::size_t threads : {2u, 8u}) {
    exec::set_default_thread_count(threads);
    const auto results = size_locations(paper_locations(), load);
    ASSERT_EQ(results.size(), baseline.size());
    for (std::size_t i = 0; i < baseline.size(); ++i) {
      EXPECT_EQ(results[i].chosen.pv_wp, baseline[i].chosen.pv_wp);
      EXPECT_EQ(results[i].chosen.battery_wh, baseline[i].chosen.battery_wh);
      EXPECT_EQ(results[i].report.unserved_energy.value(),
                baseline[i].report.unserved_energy.value());
      EXPECT_EQ(results[i].report.days_with_full_battery_pct,
                baseline[i].report.days_with_full_battery_pct);
    }
  }
}

TEST(Sizing, BatchedJobsBitIdenticalToPerJobRuns) {
  // size_jobs shares one weather synthesis per distinct tuple across
  // all jobs; every job's results must still equal an independent
  // size_locations call bit for bit (the sweep runner's byte-identity
  // rests on this).
  const auto base_load = paper_load();
  SizingOptions options;
  options.years = 1;
  std::vector<SizingJob> jobs;
  for (int j = 0; j < 4; ++j) {
    SizingJob job;
    job.locations = paper_locations();
    job.consumption = base_load;
    for (auto& w : job.consumption.hourly_watts) w *= 1.0 + 0.05 * j;
    job.options = options;
    jobs.push_back(job);
  }
  // One job with a different weather tuple (its own seed) and ladder:
  // groups must not leak across tuples.
  SizingJob odd;
  odd.locations = {vienna(), oslo()};
  odd.consumption = base_load;
  odd.options = options;
  odd.options.seed = 99;
  odd.ladder = {{540.0, 720.0}, {720.0, 2880.0}};
  jobs.push_back(odd);

  const auto batched = size_jobs(jobs);
  ASSERT_EQ(batched.size(), jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const auto reference = size_locations(jobs[j].locations,
                                          jobs[j].consumption,
                                          jobs[j].options, jobs[j].ladder);
    ASSERT_EQ(batched[j].size(), reference.size());
    for (std::size_t l = 0; l < reference.size(); ++l) {
      EXPECT_EQ(batched[j][l].chosen.pv_wp, reference[l].chosen.pv_wp);
      EXPECT_EQ(batched[j][l].chosen.battery_wh,
                reference[l].chosen.battery_wh);
      EXPECT_EQ(batched[j][l].ladder_exhausted,
                reference[l].ladder_exhausted);
      EXPECT_EQ(batched[j][l].report.unserved_energy.value(),
                reference[l].report.unserved_energy.value());
      EXPECT_EQ(batched[j][l].report.min_soc_fraction,
                reference[l].report.min_soc_fraction);
      EXPECT_EQ(batched[j][l].report.days_with_full_battery_pct,
                reference[l].report.days_with_full_battery_pct);
    }
  }
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Every field of a SizingResult but the location, compared bit for bit.
void expect_results_identical(const SizingResult& a, const SizingResult& b) {
  EXPECT_EQ(bits(a.chosen.pv_wp), bits(b.chosen.pv_wp));
  EXPECT_EQ(bits(a.chosen.battery_wh), bits(b.chosen.battery_wh));
  EXPECT_EQ(a.ladder_exhausted, b.ladder_exhausted);
  EXPECT_EQ(bits(a.report.days_with_full_battery_pct),
            bits(b.report.days_with_full_battery_pct));
  EXPECT_EQ(a.report.downtime_days, b.report.downtime_days);
  EXPECT_EQ(a.report.downtime_hours, b.report.downtime_hours);
  EXPECT_EQ(bits(a.report.unserved_energy.value()),
            bits(b.report.unserved_energy.value()));
  EXPECT_EQ(bits(a.report.annual_pv_energy.value()),
            bits(b.report.annual_pv_energy.value()));
  EXPECT_EQ(bits(a.report.annual_load.value()),
            bits(b.report.annual_load.value()));
  EXPECT_EQ(bits(a.report.curtailed_energy.value()),
            bits(b.report.curtailed_energy.value()));
  EXPECT_EQ(bits(a.report.min_soc_fraction), bits(b.report.min_soc_fraction));
}

/// A seeded random sizing batch: sites, loads, weather tuples (drawn
/// from small pools, so cells share tuples and sites share sky tables
/// across planes and seeds) and four ladder shapes — one rung, a ladder
/// that every site exhausts, a ladder whose first rung passes, and the
/// paper's ladder.
std::vector<SizingJob> random_batch(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  const auto& catalog = location_catalog();
  std::vector<SizingJob> jobs;
  for (int j = 0; j < 10; ++j) {
    SizingJob job;
    const std::size_t sites = 1 + pick(3);
    for (std::size_t l = 0; l < sites; ++l) {
      job.locations.push_back(catalog[pick(catalog.size())]);
    }
    job.consumption = paper_load();
    const double scale = 0.5 + 0.25 * static_cast<double>(pick(7));
    for (auto& w : job.consumption.hourly_watts) w *= scale;
    job.options.years = 1 + static_cast<int>(pick(2));
    job.options.seed = 1 + pick(3);
    job.options.weather.kt_sigma = pick(2) == 0 ? 0.13 : 0.18;
    job.options.plane.tilt_deg = pick(2) == 0 ? 90.0 : 40.0;
    switch (j % 4) {
      case 0:
        job.ladder = {{180.0 + 180.0 * static_cast<double>(pick(4)),
                       720.0 * static_cast<double>(1 + pick(3))}};
        break;
      case 1:
        job.ladder = {{90.0, 150.0}, {120.0, 200.0}, {150.0, 250.0}};
        break;
      case 2:
        job.ladder = {{3000.0, 8000.0}, {4000.0, 9000.0}};
        break;
      default:
        break;  // the paper's ladder
    }
    jobs.push_back(job);
  }
  return jobs;
}

/// The paper load with `watts` drawn at 02:00.
ConsumptionProfile paper_load_with_hour_2_at(double watts) {
  ConsumptionProfile load = paper_load();
  load.hourly_watts[2] = watts;
  return load;
}

/// A seeded batch for size_jobs' AVX2 lanes: one weather group of each
/// size 1..9, whose one-site jobs share the site and a seed of their
/// own, at 1 or 4 weather years. Each walk draws its load (one with a
/// zero-load hour, which keeps the lanes off their all-dark shortcut
/// there) and one of random_batch's four ladder shapes.
std::vector<SizingJob> lane_batch(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  const auto& catalog = location_catalog();
  ConsumptionProfile heavy = paper_load();
  for (auto& w : heavy.hourly_watts) w *= 1.75;
  const std::vector<ConsumptionProfile> loads{
      paper_load(), heavy, paper_load_with_hour_2_at(0.0),
      constant_consumption(Watts(8.0))};
  const std::vector<std::vector<SizingCandidate>> ladders{
      {{360.0, 1440.0}},
      {{90.0, 150.0}, {120.0, 200.0}, {150.0, 250.0}},
      {{3000.0, 8000.0}, {4000.0, 9000.0}},
      paper_sizing_ladder()};
  std::vector<SizingJob> jobs;
  for (std::size_t walks = 1; walks <= 9; ++walks) {
    SizingOptions options;
    options.seed = seed * 100 + walks;
    options.years = pick(3) == 0 ? 4 : 1;
    const Location& site = catalog[pick(catalog.size())];
    for (std::size_t w = 0; w < walks; ++w) {
      SizingJob job;
      job.locations = {site};
      job.options = options;
      job.consumption = loads[pick(loads.size())];
      job.ladder = ladders[pick(ladders.size())];
      jobs.push_back(job);
    }
  }
  return jobs;
}

/// size_jobs forced to one SIMD level, with the case-days and lane-day
/// slots it counted.
struct LevelRun {
  std::vector<std::vector<SizingResult>> results;
  std::uint64_t case_days = 0;
  std::uint64_t lane_days = 0;
};

LevelRun size_jobs_at(vmath::SimdLevel level,
                      const std::vector<SizingJob>& jobs) {
  auto& case_days = obs::MetricsRegistry::instance().counter("solar.case_days");
  auto& lane_days = obs::MetricsRegistry::instance().counter("solar.lane_days");
  const std::uint64_t case_days_before = case_days.value();
  const std::uint64_t lane_days_before = lane_days.value();
  vmath::force_simd_level(level);
  LevelRun run{size_jobs(jobs)};
  vmath::reset_simd_level();
  run.case_days = case_days.value() - case_days_before;
  run.lane_days = lane_days.value() - lane_days_before;
  return run;
}

TEST(Sizing, RandomBatchesMatchPerJobRunsInEveryField) {
  // size_jobs on its scalar lane and on its AVX2 lanes (when the build
  // and CPU have them), against per-job runs.
  std::vector<std::pair<std::string, std::vector<SizingJob>>> batches;
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    batches.emplace_back("random batch " + std::to_string(seed),
                         random_batch(seed));
  }
  for (const std::uint64_t seed : {3u, 4u}) {
    batches.emplace_back("lane batch " + std::to_string(seed),
                         lane_batch(seed));
  }
  int one_rung = 0, exhausted = 0, first_rung = 0, later_rung = 0,
      four_years = 0;
  std::uint64_t lane_days = 0;
  for (const auto& [batch, jobs] : batches) {
    const LevelRun scalar = size_jobs_at(vmath::SimdLevel::kScalar, jobs);
    const LevelRun lanes = size_jobs_at(vmath::SimdLevel::kAvx2, jobs);
    // Both levels simulate the same case-days. Only the lanes count
    // lane-day slots, four per lockstep day, and every lockstep day
    // steps at least one case.
    EXPECT_EQ(lanes.case_days, scalar.case_days) << batch;
    EXPECT_EQ(scalar.lane_days, 0u) << batch;
    EXPECT_LE(lanes.lane_days / 4, lanes.case_days) << batch;
    lane_days += lanes.lane_days;
    ASSERT_EQ(scalar.results.size(), jobs.size());
    ASSERT_EQ(lanes.results.size(), jobs.size());
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      const auto reference = size_locations(jobs[j].locations,
                                            jobs[j].consumption,
                                            jobs[j].options, jobs[j].ladder);
      ASSERT_EQ(scalar.results[j].size(), reference.size());
      ASSERT_EQ(lanes.results[j].size(), reference.size());
      if (jobs[j].options.years == 4) ++four_years;
      for (std::size_t l = 0; l < reference.size(); ++l) {
        SCOPED_TRACE(batch + " job " + std::to_string(j) + " " +
                     reference[l].location.name);
        for (const LevelRun* run : {&scalar, &lanes}) {
          EXPECT_EQ(run->results[j][l].location.name,
                    reference[l].location.name);
          expect_results_identical(run->results[j][l], reference[l]);
        }
        const auto& ladder = jobs[j].ladder;
        if (ladder.size() == 1) {
          ++one_rung;
        } else if (reference[l].ladder_exhausted) {
          ++exhausted;
        } else if (reference[l].chosen.pv_wp == ladder[0].pv_wp &&
                   reference[l].chosen.battery_wh == ladder[0].battery_wh) {
          ++first_rung;
        } else {
          ++later_rung;
        }
      }
    }
  }
  // Every ladder outcome and both year counts occur in the batches.
  EXPECT_GT(one_rung, 0);
  EXPECT_GT(exhausted, 0);
  EXPECT_GT(first_rung, 0);
  EXPECT_GT(later_rung, 0);
  EXPECT_GT(four_years, 0);
  vmath::force_simd_level(vmath::SimdLevel::kAvx2);
  if (vmath::active_simd_level() == vmath::SimdLevel::kAvx2) {
    EXPECT_GT(lane_days, 0u) << "no weather group ran on the AVX2 lanes";
  }
  vmath::reset_simd_level();
}

TEST(Sizing, LanesKeepNonPositiveLoadHoursOffTheDarkShortcut) {
  // Five walks of one load with one-rung ladders: every case runs the
  // whole Oslo year, so the lanes stay on the same day and night hours
  // are all-dark. Only the shortcut's `load > 0` guard keeps the zero-
  // or negative-load hour off it; with a negative load, taking it would
  // change bits.
  for (const double watts : {0.0, -3.0}) {
    std::vector<SizingJob> jobs;
    for (int w = 0; w < 5; ++w) {
      SizingJob job;
      job.locations = {oslo()};
      job.consumption = paper_load_with_hour_2_at(watts);
      job.options.years = 1;
      job.ladder = {{360.0 + 60.0 * w, 2160.0}};
      jobs.push_back(job);
    }
    const LevelRun scalar = size_jobs_at(vmath::SimdLevel::kScalar, jobs);
    const LevelRun lanes = size_jobs_at(vmath::SimdLevel::kAvx2, jobs);
    EXPECT_EQ(lanes.case_days, scalar.case_days);
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      SCOPED_TRACE("02:00 at " + std::to_string(watts) + " W, job " +
                   std::to_string(j));
      expect_results_identical(lanes.results[j][0], scalar.results[j][0]);
    }
  }
}

TEST(Sizing, BatchCountsItsWork) {
  // Two jobs of Vienna + Oslo at one plane: 2 sky tables. The jobs
  // differ in seed, so each site has 2 weather tuples: 4 syntheses of
  // 365 days. The four cells walk the paper's 5-rung ladder through 15
  // rungs (Oslo at seed 7 exhausts it); the 11 rungs that fail before
  // the last stop at their first outage day, so the batch simulates
  // 4,202 case-days where the reference walk simulates 15 x 365.
  SizingJob job;
  job.locations = {vienna(), oslo()};
  job.consumption = paper_load();
  job.options.years = 1;
  std::vector<SizingJob> jobs{job, job};
  jobs[1].options.seed = 7;

  auto& metrics = obs::MetricsRegistry::instance();
  metrics.reset_values();
  const auto results = size_jobs(jobs);
  EXPECT_EQ(metrics.counter("solar.sky_tables").value(), 2u);
  EXPECT_EQ(metrics.counter("solar.weather_syntheses").value(), 4u);
  const std::uint64_t batched_days = metrics.counter("solar.case_days").value();
  EXPECT_EQ(batched_days, 4202u);

  // The reference walk simulates every rung it tries in full.
  metrics.reset_values();
  std::uint64_t rungs = 0;
  for (const auto& j : jobs) {
    for (const auto& result :
         size_locations(j.locations, j.consumption, j.options, j.ladder)) {
      for (const auto& rung : j.ladder) {
        ++rungs;
        if (rung.pv_wp == result.chosen.pv_wp &&
            rung.battery_wh == result.chosen.battery_wh) {
          break;
        }
      }
    }
  }
  EXPECT_EQ(metrics.counter("solar.sky_tables").value(), 0u);
  EXPECT_EQ(metrics.counter("solar.weather_syntheses").value(), 4u);
  EXPECT_EQ(metrics.counter("solar.case_days").value(), rungs * 365);
  EXPECT_LT(batched_days, rungs * 365);
}

TEST(Sizing, EveryFieldOfTheWeatherKeySplitsTheSynthesis) {
  // The batch shares a synthesis between cells whose Location and
  // SizingOptions (with its PlaneOfArray and WeatherModel) compare
  // equal. Two jobs that differ in any one field must not share one,
  // and each must still equal its own per-job run.
  SizingJob base;
  base.locations = {madrid()};
  base.consumption = paper_load();
  base.options.years = 1;
  using Edit = void (*)(SizingJob&);
  const std::pair<const char*, Edit> edits[] = {
      {"location.name", [](SizingJob& j) { j.locations[0].name += " 2"; }},
      {"location.latitude_deg",
       [](SizingJob& j) { j.locations[0].latitude_deg += 1.0; }},
      {"location.longitude_deg",
       [](SizingJob& j) { j.locations[0].longitude_deg += 1.0; }},
      {"location.monthly_ghi_wh_m2_day",
       [](SizingJob& j) { j.locations[0].monthly_ghi_wh_m2_day[0] += 10.0; }},
      {"plane.tilt_deg", [](SizingJob& j) { j.options.plane.tilt_deg = 60.0; }},
      {"plane.albedo", [](SizingJob& j) { j.options.plane.albedo = 0.3; }},
      {"weather.kt_sigma",
       [](SizingJob& j) { j.options.weather.kt_sigma = 0.14; }},
      {"weather.kt_autocorrelation",
       [](SizingJob& j) { j.options.weather.kt_autocorrelation = 0.7; }},
      {"weather.kt_min", [](SizingJob& j) { j.options.weather.kt_min = 0.06; }},
      {"weather.kt_max", [](SizingJob& j) { j.options.weather.kt_max = 0.74; }},
      {"weather.winter_sigma_boost",
       [](SizingJob& j) { j.options.weather.winter_sigma_boost = 0.9; }},
      {"options.years", [](SizingJob& j) { j.options.years = 2; }},
      {"options.seed", [](SizingJob& j) { ++j.options.seed; }},
  };
  auto& syntheses =
      obs::MetricsRegistry::instance().counter("solar.weather_syntheses");
  const auto batch_syntheses = [&](const std::vector<SizingJob>& jobs) {
    const std::uint64_t before = syntheses.value();
    auto results = size_jobs(jobs);
    return std::make_pair(std::move(results), syntheses.value() - before);
  };
  EXPECT_EQ(batch_syntheses({base, base}).second, 1u);
  for (const auto& [field, edit] : edits) {
    SCOPED_TRACE(field);
    std::vector<SizingJob> jobs{base, base};
    edit(jobs[1]);
    const auto [results, count] = batch_syntheses(jobs);
    EXPECT_EQ(count, 2u);
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      const auto reference =
          size_locations(jobs[j].locations, jobs[j].consumption,
                         jobs[j].options, jobs[j].ladder);
      ASSERT_EQ(results[j].size(), 1u);
      EXPECT_TRUE(results[j][0].location == reference[0].location);
      expect_results_identical(results[j][0], reference[0]);
    }
  }
}

TEST(Sizing, CatalogLookupAndNames) {
  ASSERT_GE(location_catalog().size(), 6u);
  const Location* found = find_location("madrid");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->name, "Madrid");
  EXPECT_NE(find_location("oslo"), nullptr);
  EXPECT_NE(find_location("sevilla"), nullptr);
  EXPECT_EQ(find_location("atlantis"), nullptr);
  EXPECT_EQ(location_spec_name(madrid()), "madrid");
  EXPECT_NE(location_catalog_names().find("oslo"), std::string::npos);
}

}  // namespace
}  // namespace railcorr::solar
