/// \file sizing.hpp
/// \brief PV/battery sizing search reproducing Table IV: the smallest
///        standard configuration that achieves zero-downtime operation.
///
/// The paper starts from 540 Wp / 720 Wh (three standard modules, one
/// battery) and, where winter resource is insufficient (Vienna, Berlin),
/// doubles the battery and/or moves to slightly larger modules (600 Wp).
#pragma once

#include <span>
#include <vector>

#include "solar/offgrid.hpp"

namespace railcorr::solar {

/// One candidate configuration on the sizing ladder.
struct SizingCandidate {
  double pv_wp = 540.0;
  double battery_wh = 720.0;
};

/// The paper's ladder, in increasing cost order:
/// 540/720 -> 540/1440 -> 600/1440 -> 600/2160 -> 720/2160.
std::vector<SizingCandidate> paper_sizing_ladder();

/// Result of sizing one location.
struct SizingResult {
  Location location;
  SizingCandidate chosen;
  OffGridReport report;
  /// True when even the largest ladder entry had downtime.
  bool ladder_exhausted = false;
};

/// Options for the sizing run.
struct SizingOptions {
  /// Weather years simulated per candidate (more years -> stricter
  /// zero-downtime requirement).
  int years = 3;
  /// Calibration constant: together with the WeatherModel defaults this
  /// seed reproduces Table IV's ladder exactly (see irradiance.hpp).
  /// Re-pinned when the batched normal sampler changed the draw
  /// sequence (ARCHITECTURE.md, "Random variates").
  std::uint64_t seed = 0x5EEDC003ULL;
  WeatherModel weather;
  PlaneOfArray plane;  ///< vertical, equator-facing by default

  /// Field by field: the batch shares a weather synthesis between cells
  /// whose (location, options) are equal, so a field added here is
  /// part of that key by construction.
  bool operator==(const SizingOptions&) const = default;
};

/// Walk the ladder until a configuration runs without downtime: one
/// reference weather synthesis (synthesize_days), then every rung
/// simulated in full until one passes. This is the naive per-cell
/// path — the sweep's per-cell evaluator, Table IV and the differential
/// oracle of size_jobs.
SizingResult size_for_location(const Location& location,
                               const ConsumptionProfile& consumption,
                               const SizingOptions& options = SizingOptions{},
                               const std::vector<SizingCandidate>& ladder =
                                   paper_sizing_ladder());

/// size_for_location for each site, one exec::parallel_map task per
/// site (inline at one thread or inside a parallel region).
/// Bit-identical at any thread count: every site depends only on its
/// fixed seed.
std::vector<SizingResult> size_locations(
    const std::vector<Location>& locations,
    const ConsumptionProfile& consumption,
    const SizingOptions& options = SizingOptions{},
    const std::vector<SizingCandidate>& ladder = paper_sizing_ladder());

/// Size all four paper locations (Table IV).
std::vector<SizingResult> size_paper_locations(
    const ConsumptionProfile& consumption,
    const SizingOptions& options = SizingOptions{});

/// One study of a batched sizing run: a locations x ladder grid with
/// its own consumption profile and options — e.g. one `--include-sizing`
/// sweep cell.
struct SizingJob {
  std::vector<Location> locations;
  ConsumptionProfile consumption;
  SizingOptions options;
  std::vector<SizingCandidate> ladder = paper_sizing_ladder();
};

/// Run many sizing studies as one batch that does only the work a row
/// needs:
///  - one SkyTable per distinct (location, plane) across all jobs,
///    counted in `solar.sky_tables`;
///  - one weather synthesis from that table per distinct (location,
///    plane, weather, seed, years) tuple, counted in
///    `solar.weather_syntheses`;
///  - every cell sharing a tuple walks its own ladder against those
///    days, each rung but the last stopping at its first outage day
///    (simulate_cases' `stop_at_first_outage`; days counted in
///    `solar.case_days`). At SIMD level AVX2, a tuple's walks run four
///    cases to a register when there are at least two of them
///    (solar/sizing_lanes.hpp; lane-day slots counted in
///    `solar.lane_days`), else one case at a time.
/// Sweep grids whose cells vary only non-sizing axes therefore pay for
/// each site's sun geometry once and each weather tuple once.
/// `result[j]` equals `size_locations(jobs[j].locations, ...)`
/// element-wise, bit for bit, at any thread count and SIMD level.
/// Every rung's sizes must be finite.
std::vector<std::vector<SizingResult>> size_jobs(
    std::span<const SizingJob> jobs);

}  // namespace railcorr::solar
