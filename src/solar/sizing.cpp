#include "solar/sizing.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "exec/parallel.hpp"
#include "obs/trace.hpp"
#include "solar/sizing_lanes.hpp"
#include "util/contracts.hpp"
#include "util/vmath.hpp"

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

/// One distinct weather synthesis of a batched run, with the grid
/// cells that consume it.
struct WeatherGroup {
  const Location* location = nullptr;
  const SizingOptions* options = nullptr;  // plane/weather/seed/years key
  /// Index of the sky table of its (location, plane).
  std::size_t sky = 0;
  /// (job, location index within the job) pairs sharing this weather.
  std::vector<std::pair<std::size_t, std::size_t>> members;
};

/// Walk one study's ladder against its shared `days`. Every rung but
/// the last stops at its first outage day: a failing intermediate
/// rung's report is discarded, and a passing one runs every day. The
/// last rung always runs in full, so an exhausted ladder keeps its full
/// report. Chooses the rung size_for_location chooses, with the same
/// report, bit for bit.
SizingResult walk_ladder(std::span<const DailyIrradiance> days,
                         const Location& location,
                         const ConsumptionProfile& consumption,
                         const SizingOptions& options,
                         const std::vector<SizingCandidate>& ladder) {
  SizingResult result;
  result.location = location;
  for (std::size_t rung = 0; rung < ladder.size(); ++rung) {
    OffGridCase cell{system_of(ladder[rung], options), consumption};
    cell.stop_at_first_outage = rung + 1 < ladder.size();
    result.chosen = ladder[rung];
    result.report =
        simulate_cases(days, std::span<const OffGridCase>(&cell, 1)).front();
    result.ladder_exhausted = !result.report.continuous_operation();
    if (!result.ladder_exhausted) break;
  }
  return result;
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
  return exec::parallel_map(locations.size(), [&](std::size_t l) {
    return size_for_location(locations[l], consumption, options, ladder);
  });
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
    // A non-finite size would turn a dark hour's pv into NaN, where
    // the SIMD lanes' dark-hour shortcut is no longer exact.
    for (const SizingCandidate& rung : jobs[j].ladder) {
      RAILCORR_EXPECTS(std::isfinite(rung.pv_wp) &&
                       std::isfinite(rung.battery_wh));
    }
    for (std::size_t l = 0; l < jobs[j].locations.size(); ++l) {
      const Location& location = jobs[j].locations[l];
      WeatherGroup* group = nullptr;
      for (auto& candidate : groups) {
        if (*candidate.location == location &&
            *candidate.options == jobs[j].options) {
          group = &candidate;
          break;
        }
      }
      if (group == nullptr) {
        groups.push_back(WeatherGroup{&location, &jobs[j].options, 0, {}});
        group = &groups.back();
      }
      group->members.emplace_back(j, l);
    }
  }

  // One sky table per distinct (location, plane), shared by every
  // weather tuple at that site.
  std::vector<const WeatherGroup*> sky_keys;
  for (auto& group : groups) {
    const auto same_sky = [&](const WeatherGroup* key) {
      return *key->location == *group.location &&
             key->options->plane == group.options->plane;
    };
    const auto it = std::find_if(sky_keys.begin(), sky_keys.end(), same_sky);
    group.sky = static_cast<std::size_t>(it - sky_keys.begin());
    if (it == sky_keys.end()) sky_keys.push_back(&group);
  }
  const auto skies = [&] {
    const obs::ObsSpan span("sky_tables", "solar", "tables",
                            sky_keys.size());
    return exec::parallel_map(sky_keys.size(), [&](std::size_t s) {
      return std::optional<SkyTable>(std::in_place, *sky_keys[s]->location,
                                     sky_keys[s]->options->plane);
    });
  }();

  // One parallel task per weather group: synthesize the shared days
  // from the site's sky table, then walk every member cell's ladder
  // against them — on the AVX2 lanes when the group has walks enough
  // to fill them, else one walk at a time.
  const auto group_results = exec::parallel_map(
      groups.size(), [&](std::size_t g) {
        const WeatherGroup& group = groups[g];
        const obs::ObsSpan span("weather_group", "solar", "walks",
                                group.members.size());
        const SizingOptions& options = *group.options;
        const auto days = [&] {
          const obs::ObsSpan synthesis("synthesis", "solar", "years",
                                       static_cast<std::uint64_t>(
                                           options.years));
          return skies[group.sky]->synthesize_days(
              options.weather, options.seed, options.years);
        }();
#if defined(RAILCORR_HAVE_AVX2)
        if (group.members.size() >= 2 &&
            vmath::active_simd_level() == vmath::SimdLevel::kAvx2) {
          return detail::walk_ladders_avx2(days, jobs, group.members);
        }
#endif
        std::vector<SizingResult> results;
        results.reserve(group.members.size());
        for (const auto& [job, location] : group.members) {
          results.push_back(walk_ladder(days, jobs[job].locations[location],
                                        jobs[job].consumption,
                                        jobs[job].options, jobs[job].ladder));
        }
        return results;
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
