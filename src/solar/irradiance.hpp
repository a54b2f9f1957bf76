/// \file irradiance.hpp
/// \brief Synthetic hourly irradiance on an arbitrarily tilted plane,
///        driven by monthly climatology with stochastic day-to-day
///        weather (our PVGIS substitute).
///
/// Pipeline per simulated day:
///   1. Daily clearness index K_T sampled around the monthly mean with a
///      first-order autoregressive process (overcast spells persist),
///      clipped to physical bounds.
///   2. Daily GHI = K_T x daily extraterrestrial irradiation.
///   3. Hourly GHI via the Collares-Pereira & Rabl profile r_t, hourly
///      diffuse via the Liu-Jordan profile r_d.
///   4. Daily diffuse fraction from K_T (Erbs et al. daily correlation).
///   5. Plane-of-array irradiance by the isotropic-sky (Liu-Jordan)
///      transposition with ground reflection.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "solar/locations.hpp"
#include "util/rng.hpp"

namespace railcorr::solar {

/// Stochastic weather parameters for the daily clearness process.
///
/// The defaults are calibrated so that the off-grid sizing decisions of
/// Table IV reproduce the paper's ladder exactly (Madrid/Lyon run on
/// 540 Wp / 720 Wh, Vienna needs 1440 Wh, Berlin needs 600 Wp / 1440 Wh)
/// under the default sizing seed (a calibration constant, re-pinned in
/// PR 8 when the batched sampler changed the draw sequence — see
/// SizingOptions::seed); see docs/PAPER_MAP.md (E7).
struct WeatherModel {
  /// Standard deviation of the daily clearness index around the monthly
  /// mean (absolute units of K_T).
  double kt_sigma = 0.13;
  /// Day-to-day autocorrelation of the clearness deviation (overcast
  /// spells persist for days).
  double kt_autocorrelation = 0.75;
  /// Physical clamp for the sampled daily clearness.
  double kt_min = 0.05;
  double kt_max = 0.75;
  /// Extra winter variability: sigma is scaled by
  /// 1 + winter_sigma_boost * cos^2(pi * (doy - 15) / 365).
  double winter_sigma_boost = 1.0;

  bool operator==(const WeatherModel&) const = default;
};

/// Fixed mounting of the PV module.
struct PlaneOfArray {
  /// Tilt from horizontal [deg]; 90 = vertical (paper's catenary-mast
  /// mounting). The plane always faces the equator (the paper's
  /// mounting): the transposition has no azimuth.
  double tilt_deg = 90.0;
  /// Ground albedo for the reflected component.
  double albedo = 0.2;

  bool operator==(const PlaneOfArray&) const = default;
};

/// One simulated day of irradiance, hour by hour.
struct DailyIrradiance {
  int day_of_year = 1;
  double clearness = 0.0;
  /// Global horizontal per hour [Wh/m^2], index = hour 0..23 (solar time).
  std::array<double, 24> ghi_wh_m2{};
  /// Plane-of-array per hour [Wh/m^2].
  std::array<double, 24> poa_wh_m2{};

  [[nodiscard]] double daily_ghi_wh_m2() const;
  [[nodiscard]] double daily_poa_wh_m2() const;
};

/// Erbs et al. daily diffuse fraction from the daily clearness index.
double erbs_daily_diffuse_fraction(double kt, double sunset_hour_angle_rad);

/// Collares-Pereira & Rabl ratio of hourly to daily global irradiation.
double collares_pereira_rt(double hour_angle_rad, double sunset_hour_angle_rad);

/// Liu-Jordan ratio of hourly to daily diffuse irradiation.
double liu_jordan_rd(double hour_angle_rad, double sunset_hour_angle_rad);

/// Generates a year (365 days) of synthetic hourly irradiance.
class IrradianceSynthesizer {
 public:
  IrradianceSynthesizer(Location location, PlaneOfArray plane,
                        WeatherModel weather = WeatherModel{});

  /// Simulate one year with the given random stream.
  [[nodiscard]] std::vector<DailyIrradiance> synthesize_year(Rng& rng) const;

  /// Deterministic variant: every day uses exactly the monthly mean
  /// clearness (no weather noise); used by tests for reproducible bounds.
  [[nodiscard]] std::vector<DailyIrradiance> synthesize_mean_year() const;

  [[nodiscard]] const Location& location() const { return location_; }
  [[nodiscard]] const PlaneOfArray& plane() const { return plane_; }

 private:
  [[nodiscard]] DailyIrradiance make_day(int doy, double kt) const;

  Location location_;
  PlaneOfArray plane_;
  WeatherModel weather_;
};

/// The weather-independent half of the synthesis for one (location,
/// plane): per day of year the extraterrestrial irradiation, sunset
/// hour angle, seasonal sigma factor and the month's mean clearness;
/// per hour the Collares-Pereira and Liu-Jordan profiles, whether the
/// sun is meaningfully above the horizon and the capped beam
/// transposition ratio. Studies that share a site and plane but differ
/// in weather, seed or years (sizing sweeps) build it once and pay
/// only the AR(1) clearness draws and a few products per hour.
class SkyTable {
 public:
  SkyTable(const Location& location, const PlaneOfArray& plane);

  /// The days synthesize_days(location, plane, weather, seed, years)
  /// returns, bit for bit: the same clearness draws, then the same
  /// per-hour expressions in the same order over the tabulated terms.
  [[nodiscard]] std::vector<DailyIrradiance> synthesize_days(
      const WeatherModel& weather, std::uint64_t seed, int years) const;

 private:
  struct Day {
    double h0 = 0.0;       ///< daily extraterrestrial irradiation
    double ws = 0.0;       ///< sunset hour angle [rad]
    double mean_kt = 0.0;  ///< the month's mean clearness
    double season = 0.0;   ///< cos(pi (doy - 15) / 365)
    std::array<double, 24> rt{};          ///< hourly / daily global
    std::array<double, 24> rd{};          ///< hourly / daily diffuse
    std::array<double, 24> beam_ratio{};  ///< capped R_b where sun_up
    std::array<bool, 24> sun_up{};        ///< cos(zenith) > 0.017
  };

  PlaneOfArray plane_;
  double sky_view_ = 0.0;     ///< 1 + cos(tilt)
  double ground_view_ = 0.0;  ///< 1 - cos(tilt)
  std::vector<Day> days_;     ///< index = day of year - 1
};

}  // namespace railcorr::solar
