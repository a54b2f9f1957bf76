#include "solar/offgrid.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"
#include "solar/battery.hpp"
#include "util/contracts.hpp"

namespace railcorr::solar {

std::vector<DailyIrradiance> synthesize_days(const Location& location,
                                             const PlaneOfArray& plane,
                                             const WeatherModel& weather,
                                             std::uint64_t seed, int years) {
  RAILCORR_EXPECTS(years >= 1);
  static obs::Counter& syntheses_counter =
      obs::MetricsRegistry::instance().counter("solar.weather_syntheses");
  IrradianceSynthesizer synth(location, plane, weather);
  Rng rng(seed);
  std::vector<DailyIrradiance> days;
  days.reserve(static_cast<std::size_t>(years) * 365);
  for (int y = 0; y < years; ++y) {
    auto year = synth.synthesize_year(rng);
    days.insert(days.end(), year.begin(), year.end());
  }
  syntheses_counter.add();
  return days;
}

namespace {

/// One case of simulate_cases through `days`; adds the days it
/// simulated to `simulated_days`.
OffGridReport simulate_case(std::span<const DailyIrradiance> days,
                            const OffGridCase& cell,
                            std::uint64_t& simulated_days) {
  const OffGridSystem& system = cell.system;
  RAILCORR_EXPECTS(system.battery_capacity_wh > 0.0);
  RAILCORR_EXPECTS(system.battery_cutoff >= 0.0 && system.battery_cutoff < 1.0);
  constexpr double kChargeEff = Battery::kDefaultChargeEfficiency;
  constexpr double kDischargeEff = Battery::kDefaultDischargeEfficiency;
  const double capacity = system.battery_capacity_wh;
  const double cutoff_wh = system.battery_cutoff * capacity;
  const double full_level = capacity * (1.0 - 1e-9);
  const double pv_wp = system.array.peak_power_wp();
  const double one_minus_loss = 1.0 - system.array.system_loss();
  const auto& hourly_load = cell.consumption.hourly_watts;

  double soc = capacity;  // state of charge [Wh]; starts full
  double annual_pv = 0.0;
  double annual_load = 0.0;
  double curtailed = 0.0;
  double unserved = 0.0;
  // Minimum state of charge [Wh], starting at the capacity as the
  // fraction starts at 1. Correctly rounded division by the positive
  // capacity is monotone, so min_soc / capacity equals the running
  // minimum of 1 and every hour's soc / capacity, bit for bit.
  double min_soc = capacity;
  int downtime_hours = 0;
  int downtime_days = 0;
  int full_days = 0;
  std::size_t day_count = 0;
  for (const auto& day : days) {
    bool reached_full = false;
    bool any_unmet = false;
    for (std::size_t h = 0; h < 24; ++h) {
      // PvArray::hourly_energy, with (1 - loss) hoisted (same value
      // every hour, so the product is unchanged).
      const double pv = pv_wp * day.poa_wh_m2[h] / 1000.0 * one_minus_loss;
      const double load = hourly_load[h];
      annual_pv += pv;
      annual_load += load;
      if (pv >= load) {
        // Battery::charge on the surplus; the load is served directly.
        const double stored_if_all = (pv - load) * kChargeEff;
        const double stored = std::min(stored_if_all, capacity - soc);
        soc += stored;
        curtailed += (stored_if_all - stored) / kChargeEff;
      } else {
        // Battery::discharge toward the deficit.
        const double deficit = load - pv;
        const double wanted_from_cells = deficit / kDischargeEff;
        const double available = std::max(0.0, soc - cutoff_wh);
        const double drawn = std::min(wanted_from_cells, available);
        soc -= drawn;
        const double delivered = drawn * kDischargeEff;
        if (delivered < deficit - 1e-9) {
          any_unmet = true;
          ++downtime_hours;
          unserved += deficit - delivered;
        }
      }
      if (soc >= full_level) reached_full = true;
      min_soc = std::min(min_soc, soc);
    }
    ++day_count;
    if (reached_full) ++full_days;
    if (any_unmet) {
      ++downtime_days;
      if (cell.stop_at_first_outage) break;
    }
  }
  simulated_days += day_count;

  OffGridReport report;
  report.days_with_full_battery_pct = 100.0 * static_cast<double>(full_days) /
                                      static_cast<double>(day_count);
  report.downtime_days = downtime_days;
  report.downtime_hours = downtime_hours;
  report.unserved_energy = WattHours(unserved);
  report.annual_pv_energy = WattHours(annual_pv);
  report.annual_load = WattHours(annual_load);
  report.curtailed_energy = WattHours(curtailed);
  report.min_soc_fraction = min_soc / capacity;
  return report;
}

}  // namespace

std::vector<OffGridReport> simulate_cases(
    std::span<const DailyIrradiance> days,
    std::span<const OffGridCase> cases) {
  RAILCORR_EXPECTS(!days.empty());
  static obs::Counter& case_days_counter =
      obs::MetricsRegistry::instance().counter("solar.case_days");
  std::vector<OffGridReport> reports;
  reports.reserve(cases.size());
  std::uint64_t simulated_days = 0;
  for (const OffGridCase& cell : cases) {
    reports.push_back(simulate_case(days, cell, simulated_days));
  }
  case_days_counter.add(simulated_days);
  return reports;
}

OffGridSimulator::OffGridSimulator(Location location, OffGridSystem system,
                                   ConsumptionProfile consumption,
                                   WeatherModel weather)
    : location_(std::move(location)),
      system_(system),
      consumption_(consumption),
      weather_(weather) {
  RAILCORR_EXPECTS(system_.battery_capacity_wh > 0.0);
}

OffGridReport OffGridSimulator::simulate_days(
    std::span<const DailyIrradiance> days) const {
  const OffGridCase single{system_, consumption_};
  return simulate_cases(days, std::span<const OffGridCase>(&single, 1))
      .front();
}

OffGridReport OffGridSimulator::simulate(std::uint64_t seed, int years) const {
  return simulate_days(
      synthesize_days(location_, system_.plane, weather_, seed, years));
}

OffGridReport OffGridSimulator::simulate_mean_year() const {
  IrradianceSynthesizer synth(location_, system_.plane, weather_);
  return simulate_days(synth.synthesize_mean_year());
}

}  // namespace railcorr::solar
