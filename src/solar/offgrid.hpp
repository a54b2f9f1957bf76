/// \file offgrid.hpp
/// \brief Hourly year-long simulation of an off-grid PV + battery system
///        powering a repeater node — the engine behind Table IV.
#pragma once

#include <span>
#include <vector>

#include "solar/battery.hpp"
#include "solar/consumption.hpp"
#include "solar/irradiance.hpp"
#include "solar/pv.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace railcorr::solar {

/// Complete description of one off-grid installation.
struct OffGridSystem {
  PvArray array = PvArray::paper_array();
  /// Battery nameplate capacity [Wh] (paper: 720 or 1440).
  double battery_capacity_wh = 720.0;
  /// Discharge cutoff limit (paper: 40 %).
  double battery_cutoff = 0.4;
  PlaneOfArray plane;  ///< default: vertical, equator-facing
};

/// Year-level outcome of an off-grid simulation.
struct OffGridReport {
  /// Percentage of days on which the battery reached full charge.
  double days_with_full_battery_pct = 0.0;
  /// Days with at least one hour of unmet load (down-time days).
  int downtime_days = 0;
  /// Hours of unmet load across the year.
  int downtime_hours = 0;
  /// Total unserved energy [Wh].
  WattHours unserved_energy{0.0};
  /// Annual PV DC production [Wh].
  WattHours annual_pv_energy{0.0};
  /// Annual load [Wh].
  WattHours annual_load{0.0};
  /// PV energy that could not be stored (battery full) [Wh].
  WattHours curtailed_energy{0.0};
  /// Minimum state of charge observed [fraction of capacity].
  double min_soc_fraction = 1.0;

  [[nodiscard]] bool continuous_operation() const { return downtime_hours == 0; }
};

/// The synthesized day sequence OffGridSimulator::simulate evaluates
/// for (location, plane, weather, seed, years): `years` stochastic
/// weather years from one RNG stream, concatenated. Exposed so callers
/// evaluating many systems against the same climate (the sizing ladder)
/// can synthesize the weather once and share it across every system via
/// simulate_cases. This is the reference synthesis, with the sun
/// geometry recomputed per hour; SkyTable::synthesize_days returns the
/// same days from a per-(location, plane) table. Counted in the metrics
/// counter `solar.weather_syntheses`.
[[nodiscard]] std::vector<DailyIrradiance> synthesize_days(
    const Location& location, const PlaneOfArray& plane,
    const WeatherModel& weather, std::uint64_t seed, int years);

/// One system of a batched off-grid run. The weather (and with it the
/// mounting plane) is supplied by the caller's day sequence, so
/// `system.plane` is not consulted here.
struct OffGridCase {
  OffGridSystem system;
  ConsumptionProfile consumption;
  /// Stop at the end of the first day with unmet load, for callers that
  /// only need to know whether the system runs without downtime (a
  /// sizing rung that is not the ladder's last). The report then covers
  /// the simulated days only: downtime_days == 1 and
  /// days_with_full_battery_pct is relative to the days simulated. A
  /// case that never fails runs every day and reports exactly what an
  /// unflagged case does.
  bool stop_at_first_outage = false;
};

/// Off-grid simulation of many systems over the same shared `days`:
/// each case in turn steps hour by hour through the days with its
/// battery and report state in locals. The per-hour arithmetic is that
/// of Battery::charge / Battery::discharge and PvArray::hourly_energy
/// in chronological order, so each case's report is bit-identical to
/// running that system on its own. The days simulated, summed over
/// cases, are counted in the metrics counter `solar.case_days`.
[[nodiscard]] std::vector<OffGridReport> simulate_cases(
    std::span<const DailyIrradiance> days,
    std::span<const OffGridCase> cases);

/// Simulates an off-grid system through a synthetic weather year.
class OffGridSimulator {
 public:
  OffGridSimulator(Location location, OffGridSystem system,
                   ConsumptionProfile consumption,
                   WeatherModel weather = WeatherModel{});

  /// Run `years` weather years (each 365 days) with the given seed; the
  /// report aggregates all simulated days. More years = tighter estimate
  /// of the rare-event downtime statistics. Equivalent to simulate_days
  /// over synthesize_days(location, system.plane, weather, seed, years).
  [[nodiscard]] OffGridReport simulate(std::uint64_t seed, int years = 1) const;

  /// Run a single deterministic mean-climatology year (no weather noise).
  [[nodiscard]] OffGridReport simulate_mean_year() const;

  /// Run this system/consumption over caller-provided days (shared
  /// weather); the single-case view of simulate_cases.
  [[nodiscard]] OffGridReport simulate_days(
      std::span<const DailyIrradiance> days) const;

  [[nodiscard]] const OffGridSystem& system() const { return system_; }
  [[nodiscard]] const Location& location() const { return location_; }

 private:
  Location location_;
  OffGridSystem system_;
  ConsumptionProfile consumption_;
  WeatherModel weather_;
};

}  // namespace railcorr::solar
