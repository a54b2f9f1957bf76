#include "solar/sizing.hpp"

#include <algorithm>

#include "exec/parallel.hpp"
#include "util/contracts.hpp"

namespace railcorr::solar {

namespace {

/// The off-grid system of one (candidate, options) pair.
OffGridSystem system_of(const SizingCandidate& candidate,
                        const SizingOptions& options) {
  OffGridSystem system;
  system.array = PvArray(candidate.pv_wp);
  system.battery_capacity_wh = candidate.battery_wh;
  system.plane = options.plane;
  return system;
}

bool locations_equal(const Location& a, const Location& b) {
  return a.name == b.name && a.latitude_deg == b.latitude_deg &&
         a.longitude_deg == b.longitude_deg &&
         a.monthly_ghi_wh_m2_day == b.monthly_ghi_wh_m2_day;
}

bool planes_equal(const PlaneOfArray& a, const PlaneOfArray& b) {
  return a.tilt_deg == b.tilt_deg && a.azimuth_deg == b.azimuth_deg &&
         a.albedo == b.albedo;
}

bool weather_equal(const WeatherModel& a, const WeatherModel& b) {
  return a.kt_sigma == b.kt_sigma &&
         a.kt_autocorrelation == b.kt_autocorrelation &&
         a.kt_min == b.kt_min && a.kt_max == b.kt_max &&
         a.winter_sigma_boost == b.winter_sigma_boost;
}

/// One distinct weather synthesis of a batched run, with the grid
/// cells that consume it.
struct WeatherGroup {
  const Location* location = nullptr;
  const SizingOptions* options = nullptr;  // plane/weather/seed/years key
  /// (job, location index within the job) pairs sharing this weather.
  std::vector<std::pair<std::size_t, std::size_t>> members;
};

bool same_weather_tuple(const WeatherGroup& group, const Location& location,
                        const SizingOptions& options) {
  return locations_equal(*group.location, location) &&
         planes_equal(group.options->plane, options.plane) &&
         weather_equal(group.options->weather, options.weather) &&
         group.options->seed == options.seed &&
         group.options->years == options.years;
}

/// One sizing study sharing a weather-day sequence: ladder + inputs in,
/// SizingResult out.
struct LadderCell {
  const std::vector<SizingCandidate>* ladder = nullptr;
  const ConsumptionProfile* consumption = nullptr;
  const SizingOptions* options = nullptr;
  const Location* location = nullptr;
};

/// Size every cell against the shared `days`, walking the ladders in
/// rung waves: wave r simulates rung r of every still-unresolved cell
/// as one SoA batch, and cells whose rung runs without downtime drop
/// out. This does exactly the simulations of the sequential early-exit
/// walk (and so chooses identical configurations, bit for bit) while
/// keeping the SoA batch as wide as the unresolved set.
std::vector<SizingResult> size_cells_shared(
    std::span<const DailyIrradiance> days,
    std::span<const LadderCell> cells) {
  std::vector<SizingResult> results(cells.size());
  std::vector<std::size_t> unresolved(cells.size());
  for (std::size_t c = 0; c < cells.size(); ++c) {
    results[c].location = *cells[c].location;
    unresolved[c] = c;
  }

  std::vector<OffGridCase> wave;
  std::vector<std::size_t> next;
  for (std::size_t rung = 0; !unresolved.empty(); ++rung) {
    wave.clear();
    for (const std::size_t c : unresolved) {
      const SizingCandidate& candidate = (*cells[c].ladder)[rung];
      wave.push_back(OffGridCase{system_of(candidate, *cells[c].options),
                                 *cells[c].consumption});
    }
    const auto reports = simulate_cases(days, wave);
    next.clear();
    for (std::size_t i = 0; i < unresolved.size(); ++i) {
      const std::size_t c = unresolved[i];
      const std::vector<SizingCandidate>& ladder = *cells[c].ladder;
      results[c].chosen = ladder[rung];
      results[c].report = reports[i];
      if (reports[i].continuous_operation()) {
        results[c].ladder_exhausted = false;
      } else if (rung + 1 < ladder.size()) {
        results[c].ladder_exhausted = true;  // provisional; more rungs left
        next.push_back(c);
      } else {
        results[c].ladder_exhausted = true;  // largest candidate failed
      }
    }
    unresolved.swap(next);
  }
  return results;
}

}  // namespace

std::vector<SizingCandidate> paper_sizing_ladder() {
  return {
      {540.0, 720.0},
      {540.0, 1440.0},
      {600.0, 1440.0},
      {600.0, 2160.0},
      {720.0, 2160.0},
  };
}

SizingResult size_for_location(const Location& location,
                               const ConsumptionProfile& consumption,
                               const SizingOptions& options,
                               const std::vector<SizingCandidate>& ladder) {
  RAILCORR_EXPECTS(!ladder.empty());
  // One weather synthesis feeds every ladder candidate (the historical
  // per-candidate simulate() calls re-synthesized the identical days
  // from the same seed, so sharing them is bit-identical and removes
  // the dominant cost from all rungs after the first).
  const auto days = synthesize_days(location, options.plane,
                                    options.weather, options.seed,
                                    options.years);
  SizingResult result;
  result.location = location;
  for (const auto& candidate : ladder) {
    const OffGridCase cell{system_of(candidate, options), consumption};
    const auto report =
        simulate_cases(days, std::span<const OffGridCase>(&cell, 1))
            .front();
    result.chosen = candidate;
    result.report = report;
    if (report.continuous_operation()) {
      result.ladder_exhausted = false;
      return result;
    }
    result.ladder_exhausted = true;
  }
  return result;  // largest candidate, possibly still with downtime
}

std::vector<SizingResult> size_locations(
    const std::vector<Location>& locations,
    const ConsumptionProfile& consumption, const SizingOptions& options,
    const std::vector<SizingCandidate>& ladder) {
  RAILCORR_EXPECTS(!ladder.empty());
  // With one thread — or inside a nested parallel region, where
  // parallel_map executes inline — the sequential early-exit walk does
  // strictly less work for the identical result (pinned by
  // tests/solar/sizing_test.cpp).
  if (exec::in_parallel_region() || exec::default_thread_count() <= 1) {
    std::vector<SizingResult> results;
    results.reserve(locations.size());
    for (const auto& location : locations) {
      results.push_back(
          size_for_location(location, consumption, options, ladder));
    }
    return results;
  }

  // Parallel grid: one task per location synthesizes that site's
  // weather once and walks the ladder against it (wave early-exit, one
  // cell). Identical to the sequential walk at any thread count.
  const auto per_location =
      exec::parallel_map(locations.size(), [&](std::size_t l) {
        const auto days =
            synthesize_days(locations[l], options.plane, options.weather,
                            options.seed, options.years);
        const LadderCell cell{&ladder, &consumption, &options,
                              &locations[l]};
        return size_cells_shared(days,
                                 std::span<const LadderCell>(&cell, 1))
            .front();
      });
  return per_location;
}

std::vector<SizingResult> size_paper_locations(
    const ConsumptionProfile& consumption, const SizingOptions& options) {
  return size_locations(paper_locations(), consumption, options);
}

std::vector<std::vector<SizingResult>> size_jobs(
    std::span<const SizingJob> jobs) {
  // Group every (job, location) cell by its weather tuple so each
  // distinct synthesis happens once across the whole batch.
  std::vector<WeatherGroup> groups;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    RAILCORR_EXPECTS(!jobs[j].ladder.empty());
    for (std::size_t l = 0; l < jobs[j].locations.size(); ++l) {
      const Location& location = jobs[j].locations[l];
      WeatherGroup* group = nullptr;
      for (auto& candidate : groups) {
        if (same_weather_tuple(candidate, location, jobs[j].options)) {
          group = &candidate;
          break;
        }
      }
      if (group == nullptr) {
        groups.push_back(WeatherGroup{&location, &jobs[j].options, {}});
        group = &groups.back();
      }
      group->members.emplace_back(j, l);
    }
  }

  // One parallel task per weather group: synthesize the shared days
  // once, then wave-walk every member cell's ladder against them
  // (size_cells_shared keeps the SoA batch as wide as the unresolved
  // member set per rung).
  const auto group_results = exec::parallel_map(
      groups.size(), [&](std::size_t g) {
        const WeatherGroup& group = groups[g];
        const SizingOptions& options = *group.options;
        const auto days =
            synthesize_days(*group.location, options.plane, options.weather,
                            options.seed, options.years);
        std::vector<LadderCell> cells;
        cells.reserve(group.members.size());
        for (const auto& [job, location] : group.members) {
          cells.push_back(LadderCell{&jobs[job].ladder,
                                     &jobs[job].consumption,
                                     &jobs[job].options,
                                     &jobs[job].locations[location]});
        }
        return size_cells_shared(days, cells);
      });

  // Scatter the per-group results back into per-job location order.
  std::vector<std::vector<SizingResult>> results(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    results[j].resize(jobs[j].locations.size());
  }
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const WeatherGroup& group = groups[g];
    for (std::size_t m = 0; m < group.members.size(); ++m) {
      const auto& [job, location] = group.members[m];
      results[job][location] = group_results[g][m];
    }
  }
  return results;
}

}  // namespace railcorr::solar
