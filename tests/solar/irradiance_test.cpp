#include "solar/irradiance.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>

#include "solar/geometry.hpp"
#include "solar/offgrid.hpp"
#include "util/constants.hpp"
#include "util/contracts.hpp"

namespace railcorr::solar {
namespace {

TEST(Erbs, DiffuseFractionLimits) {
  const double ws = 1.2;  // ~69 deg, short-day branch
  // Overcast sky: nearly all diffuse.
  EXPECT_GT(erbs_daily_diffuse_fraction(0.1, ws), 0.9);
  // Clear sky: mostly beam.
  EXPECT_LT(erbs_daily_diffuse_fraction(0.72, ws), 0.2);
  // Monotone decreasing in clearness.
  double prev = 1.1;
  for (double kt = 0.05; kt <= 0.75; kt += 0.05) {
    const double fd = erbs_daily_diffuse_fraction(kt, ws);
    EXPECT_LE(fd, prev + 1e-12);
    prev = fd;
  }
}

TEST(HourlyProfiles, IntegrateToOne) {
  // Sum over 24 hourly ratios must equal 1 (both rt and rd).
  for (const double ws_deg : {60.0, 75.0, 90.0, 110.0}) {
    const double ws = ws_deg * constants::kDegToRad;
    double rt_sum = 0.0;
    double rd_sum = 0.0;
    for (int h = 0; h < 24; ++h) {
      const double w = hour_angle_rad(h + 0.5);
      rt_sum += collares_pereira_rt(w, ws);
      rd_sum += liu_jordan_rd(w, ws);
    }
    EXPECT_NEAR(rt_sum, 1.0, 0.03) << "ws=" << ws_deg;
    EXPECT_NEAR(rd_sum, 1.0, 0.03) << "ws=" << ws_deg;
  }
}

TEST(HourlyProfiles, ZeroOutsideDaylight) {
  const double ws = 60.0 * constants::kDegToRad;  // 8 h day
  EXPECT_DOUBLE_EQ(collares_pereira_rt(hour_angle_rad(2.0), ws), 0.0);
  EXPECT_DOUBLE_EQ(liu_jordan_rd(hour_angle_rad(22.0), ws), 0.0);
  EXPECT_GT(collares_pereira_rt(0.0, ws), 0.0);
}

TEST(IrradianceSynthesizer, MeanYearReproducesClimatology) {
  PlaneOfArray horizontal;
  horizontal.tilt_deg = 0.0;
  const IrradianceSynthesizer synth(madrid(), horizontal);
  const auto year = synth.synthesize_mean_year();
  ASSERT_EQ(year.size(), 365u);
  // July mean daily GHI should be close to the climatology table value.
  double july = 0.0;
  int days = 0;
  for (const auto& d : year) {
    if (month_of_day(d.day_of_year) == 7) {
      july += d.daily_ghi_wh_m2();
      ++days;
    }
  }
  july /= days;
  EXPECT_NEAR(july, madrid().monthly_ghi_wh_m2_day[6], 400.0);
}

TEST(IrradianceSynthesizer, VerticalPanelWinterGain) {
  // On clear winter days a vertical south panel in Madrid collects MORE
  // than the horizontal GHI (low sun, high incidence) — the effect the
  // paper's catenary-mast mounting exploits.
  PlaneOfArray vertical;  // default 90 deg south
  const IrradianceSynthesizer synth(madrid(), vertical);
  const auto year = synth.synthesize_mean_year();
  const auto& winter_day = year[10];  // Jan 11
  EXPECT_GT(winter_day.daily_poa_wh_m2(), winter_day.daily_ghi_wh_m2());
  // In summer the opposite holds.
  const auto& summer_day = year[180];  // end of June
  EXPECT_LT(summer_day.daily_poa_wh_m2(), summer_day.daily_ghi_wh_m2());
}

TEST(IrradianceSynthesizer, StochasticYearMatchesMeanOnAverage) {
  PlaneOfArray vertical;
  const IrradianceSynthesizer synth(vienna(), vertical);
  Rng rng(2024);
  double stochastic_total = 0.0;
  const int years = 8;
  for (int y = 0; y < years; ++y) {
    for (const auto& d : synth.synthesize_year(rng)) {
      stochastic_total += d.daily_poa_wh_m2();
    }
  }
  stochastic_total /= years;
  double mean_total = 0.0;
  for (const auto& d : synth.synthesize_mean_year()) {
    mean_total += d.daily_poa_wh_m2();
  }
  // Multi-year average within ~25 % of the deterministic year. The
  // asymmetric clamping of the clearness deviation biases the vertical-
  // plane total high in diffuse climates: across seeds the 8-year ratio
  // centres near 1.13 with spread roughly 1.06..1.22, so the bound
  // guards against gross synthesis regressions, not against the
  // documented bias itself.
  EXPECT_NEAR(stochastic_total / mean_total, 1.0, 0.25);
}

TEST(IrradianceSynthesizer, NightHoursAreDark) {
  const IrradianceSynthesizer synth(berlin(), PlaneOfArray{});
  const auto year = synth.synthesize_mean_year();
  for (const auto& d : {year[0], year[180]}) {
    EXPECT_DOUBLE_EQ(d.ghi_wh_m2[0], 0.0);
    EXPECT_DOUBLE_EQ(d.ghi_wh_m2[23], 0.0);
    EXPECT_DOUBLE_EQ(d.poa_wh_m2[1], 0.0);
  }
}

TEST(IrradianceSynthesizer, HourlyValuesNonNegativeAndBounded) {
  Rng rng(5);
  const IrradianceSynthesizer synth(lyon(), PlaneOfArray{});
  for (const auto& d : synth.synthesize_year(rng)) {
    for (int h = 0; h < 24; ++h) {
      EXPECT_GE(d.ghi_wh_m2[h], 0.0);
      EXPECT_GE(d.poa_wh_m2[h], 0.0);
      EXPECT_LT(d.ghi_wh_m2[h], 1200.0);
      EXPECT_LT(d.poa_wh_m2[h], 1500.0);
    }
  }
}

TEST(IrradianceSynthesizer, WeatherModelValidation) {
  WeatherModel bad;
  bad.kt_autocorrelation = 1.0;
  EXPECT_THROW(IrradianceSynthesizer(madrid(), PlaneOfArray{}, bad),
               ContractViolation);
  PlaneOfArray tilted;
  tilted.tilt_deg = 120.0;
  EXPECT_THROW(IrradianceSynthesizer(madrid(), tilted), ContractViolation);
}

TEST(Locations, ClimatologyOrdering) {
  // Annual resource: Madrid > Lyon > Vienna > Berlin.
  EXPECT_GT(madrid().annual_ghi_kwh_m2(), lyon().annual_ghi_kwh_m2());
  EXPECT_GT(lyon().annual_ghi_kwh_m2(), vienna().annual_ghi_kwh_m2());
  EXPECT_GT(vienna().annual_ghi_kwh_m2(), berlin().annual_ghi_kwh_m2());
  // Sanity range for European sites.
  EXPECT_NEAR(madrid().annual_ghi_kwh_m2(), 1650.0, 150.0);
  EXPECT_NEAR(berlin().annual_ghi_kwh_m2(), 1100.0, 150.0);
}

TEST(Locations, ClearnessIndicesPhysical) {
  for (const auto& loc : paper_locations()) {
    for (int m = 1; m <= 12; ++m) {
      const double kt = loc.monthly_clearness(m);
      EXPECT_GT(kt, 0.15) << loc.name << " month " << m;
      EXPECT_LT(kt, 0.70) << loc.name << " month " << m;
    }
  }
}

// --- SkyTable against the reference synthesis -----------------------------

/// The first field where `table` and `reference` differ in any bit, or
/// an empty string when every day is identical.
std::string first_difference(const std::vector<DailyIrradiance>& table,
                             const std::vector<DailyIrradiance>& reference) {
  if (table.size() != reference.size()) {
    return "day count " + std::to_string(table.size()) + " vs " +
           std::to_string(reference.size());
  }
  const auto same = [](double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
  };
  for (std::size_t d = 0; d < table.size(); ++d) {
    const std::string at = "day " + std::to_string(d) + ": ";
    if (table[d].day_of_year != reference[d].day_of_year) {
      return at + "day_of_year";
    }
    if (!same(table[d].clearness, reference[d].clearness)) {
      return at + "clearness";
    }
    for (std::size_t h = 0; h < 24; ++h) {
      if (!same(table[d].ghi_wh_m2[h], reference[d].ghi_wh_m2[h])) {
        return at + "ghi_wh_m2[" + std::to_string(h) + "]";
      }
      if (!same(table[d].poa_wh_m2[h], reference[d].poa_wh_m2[h])) {
        return at + "poa_wh_m2[" + std::to_string(h) + "]";
      }
    }
  }
  return "";
}

TEST(SkyTable, DaysEqualTheReferenceSynthesisBitForBit) {
  // The arctic-climate scenario's weather: persistent, deep overcast
  // spells and a low clearness cap.
  WeatherModel arctic;
  arctic.kt_sigma = 0.16;
  arctic.kt_autocorrelation = 0.85;
  arctic.kt_max = 0.65;
  arctic.winter_sigma_boost = 2.5;
  int tuples = 0;
  for (const Location& location : location_catalog()) {
    for (const double tilt : {0.0, 45.0, 90.0}) {
      for (const double albedo : {0.0, 0.2, 1.0}) {
        const PlaneOfArray plane{tilt, albedo};
        const SkyTable sky(location, plane);
        for (const WeatherModel& weather : {WeatherModel{}, arctic}) {
          for (const std::uint64_t seed : {1u, 0x5EEDC003u, 987654321u}) {
            for (const int years : {1, 4}) {
              SCOPED_TRACE(location.name + " tilt " + std::to_string(tilt) +
                           " albedo " + std::to_string(albedo) + " kt_sigma " +
                           std::to_string(weather.kt_sigma) + " seed " +
                           std::to_string(seed) + " years " +
                           std::to_string(years));
              EXPECT_EQ(first_difference(
                            sky.synthesize_days(weather, seed, years),
                            synthesize_days(location, plane, weather, seed,
                                            years)),
                        "");
              ++tuples;
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(tuples, 648);
}

TEST(SkyTable, RejectsWhatTheReferenceRejects) {
  EXPECT_THROW(SkyTable(madrid(), PlaneOfArray{120.0, 0.2}), ContractViolation);
  EXPECT_THROW(SkyTable(madrid(), PlaneOfArray{90.0, 1.5}), ContractViolation);
  const SkyTable sky(madrid(), PlaneOfArray{});
  WeatherModel inverted;
  inverted.kt_min = 0.8;
  EXPECT_THROW((void)sky.synthesize_days(inverted, 1, 1), ContractViolation);
  EXPECT_THROW((void)sky.synthesize_days(WeatherModel{}, 1, 0),
               ContractViolation);
}

}  // namespace
}  // namespace railcorr::solar
