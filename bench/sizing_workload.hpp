/// \file sizing_workload.hpp
/// \brief The batched-vs-per-cell sizing workload of
///        bench_parallel_scaling: the 8-cell sweep slice and the
///        bit-identity check.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "power/earth_model.hpp"
#include "solar/consumption.hpp"
#include "solar/sizing.hpp"
#include "traffic/timetable.hpp"

namespace railcorr::bench {

/// A sweep-slice of sizing jobs sharing the weather tuple: cells vary
/// only in consumption (as traffic axes would), so the batched path
/// synthesizes each location's weather once for the whole set.
inline std::vector<solar::SizingJob> sizing_sweep_cells(
    const solar::ConsumptionProfile& base,
    const solar::SizingOptions& options, int cells) {
  std::vector<solar::SizingJob> jobs;
  for (int c = 0; c < cells; ++c) {
    solar::SizingJob job;
    job.locations = solar::paper_locations();
    job.consumption = base;
    for (auto& w : job.consumption.hourly_watts) w *= 1.0 + 0.02 * c;
    job.options = options;
    jobs.push_back(job);
  }
  return jobs;
}

/// Evaluate the jobs through the per-cell walk (the batched path's
/// reference).
inline std::vector<std::vector<solar::SizingResult>> sizing_per_cell(
    const std::vector<solar::SizingJob>& jobs) {
  std::vector<std::vector<solar::SizingResult>> results;
  results.reserve(jobs.size());
  for (const auto& job : jobs) {
    results.push_back(solar::size_locations(job.locations, job.consumption,
                                            job.options, job.ladder));
  }
  return results;
}

/// Bitwise equality of two per-job result sets: chosen config, ladder
/// state and every report field.
inline bool sizing_results_identical(
    const std::vector<std::vector<solar::SizingResult>>& a,
    const std::vector<std::vector<solar::SizingResult>>& b) {
  const auto same = [](double x, double y) {
    return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
  };
  if (a.size() != b.size()) return false;
  for (std::size_t j = 0; j < a.size(); ++j) {
    if (a[j].size() != b[j].size()) return false;
    for (std::size_t l = 0; l < a[j].size(); ++l) {
      const auto& x = a[j][l];
      const auto& y = b[j][l];
      if (!same(x.chosen.pv_wp, y.chosen.pv_wp) ||
          !same(x.chosen.battery_wh, y.chosen.battery_wh) ||
          x.ladder_exhausted != y.ladder_exhausted ||
          !same(x.report.days_with_full_battery_pct,
                y.report.days_with_full_battery_pct) ||
          x.report.downtime_days != y.report.downtime_days ||
          x.report.downtime_hours != y.report.downtime_hours ||
          !same(x.report.unserved_energy.value(),
                y.report.unserved_energy.value()) ||
          !same(x.report.annual_pv_energy.value(),
                y.report.annual_pv_energy.value()) ||
          !same(x.report.annual_load.value(), y.report.annual_load.value()) ||
          !same(x.report.curtailed_energy.value(),
                y.report.curtailed_energy.value()) ||
          !same(x.report.min_soc_fraction, y.report.min_soc_fraction)) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace railcorr::bench
