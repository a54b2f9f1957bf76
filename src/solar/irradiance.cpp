#include "solar/irradiance.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "obs/metrics.hpp"
#include "solar/geometry.hpp"
#include "util/constants.hpp"
#include "util/contracts.hpp"

namespace railcorr::solar {

using constants::kDegToRad;
using constants::kPi;

namespace {

void expect_valid(const PlaneOfArray& plane) {
  RAILCORR_EXPECTS(plane.tilt_deg >= 0.0 && plane.tilt_deg <= 90.0);
  RAILCORR_EXPECTS(plane.albedo >= 0.0 && plane.albedo <= 1.0);
}

void expect_valid(const WeatherModel& weather) {
  RAILCORR_EXPECTS(weather.kt_sigma >= 0.0);
  RAILCORR_EXPECTS(weather.kt_autocorrelation >= 0.0 &&
                   weather.kt_autocorrelation < 1.0);
  RAILCORR_EXPECTS(weather.kt_min > 0.0 && weather.kt_min < weather.kt_max);
}

}  // namespace

double DailyIrradiance::daily_ghi_wh_m2() const {
  double sum = 0.0;
  for (const double v : ghi_wh_m2) sum += v;
  return sum;
}

double DailyIrradiance::daily_poa_wh_m2() const {
  double sum = 0.0;
  for (const double v : poa_wh_m2) sum += v;
  return sum;
}

double erbs_daily_diffuse_fraction(double kt, double sunset_hour_angle_rad) {
  RAILCORR_EXPECTS(kt >= 0.0 && kt <= 1.0);
  // Erbs, Klein & Duffie (1982) daily correlation, two seasons by sunset
  // hour angle (81.4 deg threshold).
  const double ws_deg = sunset_hour_angle_rad / kDegToRad;
  double fd = 0.0;
  if (ws_deg < 81.4) {
    if (kt < 0.715) {
      fd = 1.0 - 0.2727 * kt + 2.4495 * kt * kt - 11.9514 * kt * kt * kt +
           9.3879 * kt * kt * kt * kt;
    } else {
      fd = 0.143;
    }
  } else {
    if (kt < 0.722) {
      fd = 1.0 + 0.2832 * kt - 2.5557 * kt * kt + 0.8448 * kt * kt * kt;
    } else {
      fd = 0.175;
    }
  }
  return std::clamp(fd, 0.0, 1.0);
}

double collares_pereira_rt(double hour_angle_rad,
                           double sunset_hour_angle_rad) {
  const double ws = sunset_hour_angle_rad;
  const double w = hour_angle_rad;
  if (std::abs(w) >= ws || ws <= 0.0) return 0.0;
  const double a = 0.409 + 0.5016 * std::sin(ws - 60.0 * kDegToRad);
  const double b = 0.6609 - 0.4767 * std::sin(ws - 60.0 * kDegToRad);
  const double denominator = std::sin(ws) - ws * std::cos(ws);
  if (denominator <= 0.0) return 0.0;
  const double rt = kPi / 24.0 * (a + b * std::cos(w)) *
                    (std::cos(w) - std::cos(ws)) / denominator;
  return std::max(0.0, rt);
}

double liu_jordan_rd(double hour_angle_rad, double sunset_hour_angle_rad) {
  const double ws = sunset_hour_angle_rad;
  const double w = hour_angle_rad;
  if (std::abs(w) >= ws || ws <= 0.0) return 0.0;
  const double denominator = std::sin(ws) - ws * std::cos(ws);
  if (denominator <= 0.0) return 0.0;
  const double rd =
      kPi / 24.0 * (std::cos(w) - std::cos(ws)) / denominator;
  return std::max(0.0, rd);
}

IrradianceSynthesizer::IrradianceSynthesizer(Location location,
                                             PlaneOfArray plane,
                                             WeatherModel weather)
    : location_(std::move(location)), plane_(plane), weather_(weather) {
  expect_valid(plane_);
  expect_valid(weather_);
}

DailyIrradiance IrradianceSynthesizer::make_day(int doy, double kt) const {
  DailyIrradiance day;
  day.day_of_year = doy;
  day.clearness = kt;

  const double phi = location_.latitude_deg * kDegToRad;
  const double delta = declination_rad(doy);
  const double ws = sunset_hour_angle_rad(phi, delta);
  const double h0 = daily_extraterrestrial_wh_m2(phi, doy);
  const double daily_ghi = kt * h0;
  const double diffuse_fraction = erbs_daily_diffuse_fraction(kt, ws);
  const double daily_dhi = diffuse_fraction * daily_ghi;
  const double beta = plane_.tilt_deg * kDegToRad;

  for (int h = 0; h < 24; ++h) {
    const double w = hour_angle_rad(static_cast<double>(h) + 0.5);
    const double ghi_h = daily_ghi * collares_pereira_rt(w, ws);
    const double dhi_h =
        std::min(ghi_h, daily_dhi * liu_jordan_rd(w, ws));
    const double bhi_h = std::max(0.0, ghi_h - dhi_h);
    day.ghi_wh_m2[static_cast<std::size_t>(h)] = ghi_h;

    // Transpose to the plane of array (isotropic sky).
    const double cz = cos_zenith(phi, delta, w);
    double poa = 0.0;
    if (ghi_h > 0.0 && cz > 0.017) {  // sun meaningfully above horizon
      const double ci = cos_incidence_equator_facing(phi, delta, w, beta);
      const double rb = std::max(0.0, ci) / cz;
      const double rb_capped = std::min(rb, 10.0);  // sunrise/sunset spikes
      poa = bhi_h * rb_capped + dhi_h * (1.0 + std::cos(beta)) / 2.0 +
            ghi_h * plane_.albedo * (1.0 - std::cos(beta)) / 2.0;
    } else if (ghi_h > 0.0) {
      poa = dhi_h * (1.0 + std::cos(beta)) / 2.0;
    }
    day.poa_wh_m2[static_cast<std::size_t>(h)] = poa;
  }
  return day;
}

std::vector<DailyIrradiance> IrradianceSynthesizer::synthesize_year(
    Rng& rng) const {
  std::vector<DailyIrradiance> year;
  year.reserve(365);
  // All 365 unit normals for the AR(1) clearness deviation come from one
  // batched draw; the seasonal sigma scales each one below.
  std::vector<double> noise(365);
  rng.normal_batch(noise);
  double deviation = 0.0;  // AR(1) state of the clearness deviation
  const double rho = weather_.kt_autocorrelation;
  for (int doy = 1; doy <= 365; ++doy) {
    const int month = month_of_day(doy);
    const double mean_kt = location_.monthly_clearness(month);
    // Seasonal sigma: overcast spells are deeper/longer in winter.
    const double season =
        std::cos(kPi * (static_cast<double>(doy) - 15.0) / 365.0);
    const double sigma =
        weather_.kt_sigma * (1.0 + weather_.winter_sigma_boost * season * season);
    deviation = rho * deviation +
                std::sqrt(1.0 - rho * rho) *
                    (sigma * noise[static_cast<std::size_t>(doy - 1)]);
    const double kt =
        std::clamp(mean_kt + deviation, weather_.kt_min, weather_.kt_max);
    year.push_back(make_day(doy, kt));
  }
  return year;
}

std::vector<DailyIrradiance> IrradianceSynthesizer::synthesize_mean_year()
    const {
  std::vector<DailyIrradiance> year;
  year.reserve(365);
  for (int doy = 1; doy <= 365; ++doy) {
    const double kt = std::clamp(
        location_.monthly_clearness(month_of_day(doy)), weather_.kt_min,
        weather_.kt_max);
    year.push_back(make_day(doy, kt));
  }
  return year;
}

SkyTable::SkyTable(const Location& location, const PlaneOfArray& plane)
    : plane_(plane), days_(365) {
  expect_valid(plane_);
  static obs::Counter& tables_counter =
      obs::MetricsRegistry::instance().counter("solar.sky_tables");
  // make_day's weather-independent terms, evaluated by the same calls.
  const double phi = location.latitude_deg * kDegToRad;
  const double beta = plane_.tilt_deg * kDegToRad;
  sky_view_ = 1.0 + std::cos(beta);
  ground_view_ = 1.0 - std::cos(beta);
  for (int doy = 1; doy <= 365; ++doy) {
    Day& day = days_[static_cast<std::size_t>(doy - 1)];
    const double delta = declination_rad(doy);
    day.ws = sunset_hour_angle_rad(phi, delta);
    day.h0 = daily_extraterrestrial_wh_m2(phi, doy);
    day.mean_kt = location.monthly_clearness(month_of_day(doy));
    day.season = std::cos(kPi * (static_cast<double>(doy) - 15.0) / 365.0);
    for (std::size_t h = 0; h < 24; ++h) {
      const double w = hour_angle_rad(static_cast<double>(h) + 0.5);
      day.rt[h] = collares_pereira_rt(w, day.ws);
      day.rd[h] = liu_jordan_rd(w, day.ws);
      const double cz = cos_zenith(phi, delta, w);
      day.sun_up[h] = cz > 0.017;
      if (day.sun_up[h]) {
        const double ci = cos_incidence_equator_facing(phi, delta, w, beta);
        day.beam_ratio[h] = std::min(std::max(0.0, ci) / cz, 10.0);
      }
    }
  }
  tables_counter.add();
}

std::vector<DailyIrradiance> SkyTable::synthesize_days(
    const WeatherModel& weather, std::uint64_t seed, int years) const {
  RAILCORR_EXPECTS(years >= 1);
  expect_valid(weather);
  static obs::Counter& syntheses_counter =
      obs::MetricsRegistry::instance().counter("solar.weather_syntheses");
  std::vector<DailyIrradiance> out;
  out.reserve(static_cast<std::size_t>(years) * 365);
  Rng rng(seed);
  std::vector<double> noise(365);
  const double rho = weather.kt_autocorrelation;
  const double innovation = std::sqrt(1.0 - rho * rho);
  for (int y = 0; y < years; ++y) {
    // synthesize_year's AR(1) clearness: one batched draw per year,
    // the state restarting at zero.
    rng.normal_batch(noise);
    double deviation = 0.0;
    for (int doy = 1; doy <= 365; ++doy) {
      const Day& sky = days_[static_cast<std::size_t>(doy - 1)];
      const double sigma =
          weather.kt_sigma *
          (1.0 + weather.winter_sigma_boost * sky.season * sky.season);
      deviation = rho * deviation +
                  innovation *
                      (sigma * noise[static_cast<std::size_t>(doy - 1)]);
      const double kt =
          std::clamp(sky.mean_kt + deviation, weather.kt_min, weather.kt_max);

      // make_day over the tabulated terms.
      DailyIrradiance& day = out.emplace_back();
      day.day_of_year = doy;
      day.clearness = kt;
      const double daily_ghi = kt * sky.h0;
      const double daily_dhi =
          erbs_daily_diffuse_fraction(kt, sky.ws) * daily_ghi;
      for (std::size_t h = 0; h < 24; ++h) {
        const double ghi_h = daily_ghi * sky.rt[h];
        const double dhi_h = std::min(ghi_h, daily_dhi * sky.rd[h]);
        const double bhi_h = std::max(0.0, ghi_h - dhi_h);
        day.ghi_wh_m2[h] = ghi_h;
        double poa = 0.0;
        if (ghi_h > 0.0 && sky.sun_up[h]) {
          poa = bhi_h * sky.beam_ratio[h] + dhi_h * sky_view_ / 2.0 +
                ghi_h * plane_.albedo * ground_view_ / 2.0;
        } else if (ghi_h > 0.0) {
          poa = dhi_h * sky_view_ / 2.0;
        }
        day.poa_wh_m2[h] = poa;
      }
    }
  }
  syntheses_counter.add();
  return out;
}

}  // namespace railcorr::solar
