/// \file sizing_lanes.hpp
/// \brief The AVX2 lane of size_jobs' ladder walks (internal to
///        solar/sizing.cpp).
///
/// The scalar lane is sizing.cpp's walk_ladder over simulate_cases; this
/// lane runs the same cases four at a time and returns the same results,
/// bit for bit. size_jobs dispatches a weather group here when the
/// active SIMD level is AVX2 and the group has at least two walks.
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "solar/irradiance.hpp"
#include "solar/sizing.hpp"

namespace railcorr::solar::detail {

#if defined(RAILCORR_HAVE_AVX2)
/// Walk the ladders of one weather group against its shared `days`;
/// `walks[w]` is the (job, location index) of member cell w. Each of
/// four AVX2 lanes holds one walk's current rung as an off-grid case.
/// When a case ends, its lane restarts at day 0 with that walk's next
/// rung, or with the group's next unstarted walk. The lanes step the
/// hours in lockstep, each on its own day. Every rung but the last
/// stops at its first outage day, as in walk_ladder.
///
/// `result[w]` equals walk_ladder for walk w, bit for bit. Adds the
/// simulated case-days to `solar.case_days`, as simulate_cases does,
/// and the lane-day slots stepped (four per lockstep day) to
/// `solar.lane_days`.
[[nodiscard]] std::vector<SizingResult> walk_ladders_avx2(
    std::span<const DailyIrradiance> days, std::span<const SizingJob> jobs,
    std::span<const std::pair<std::size_t, std::size_t>> walks);
#endif

}  // namespace railcorr::solar::detail
