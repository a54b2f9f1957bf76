/// Golden digests of the canonical sweep plans: the integrity trailer
/// (FNV-1a 64) of each whole-grid shard document, pinned as literals.
/// Unlike the sweep tests that compare one code path of the runner
/// against another, these digests do not move when the optimized runner
/// moves, so any byte change in the emitted rows fails here.
///
/// The first three plans are the seed-0 plans of the end-to-end
/// benchmark workloads: a 256-cell grid with 32 distinct radio inputs,
/// a 64-cell arctic sizing sweep sharing one radio input, and a
/// 256-cell 10-segment corridor where every cell has its own radio
/// input. Two small 2- and 3-segment corridors pin the corridor check
/// at the segment counts next to its single-segment shortcut.
#include <gtest/gtest.h>

#include <string>

#include "core/sweep_runner.hpp"
#include "exec/parallel.hpp"
#include "util/durable_io.hpp"

namespace railcorr::core {
namespace {

struct GoldenPlan {
  const char* name;
  const char* spec;
  bool include_sizing;
  const char* trailer;
};

const GoldenPlan kGoldenPlans[] = {
    {"grid_shared",
     "base = paper\n"
     "axis radio.lp_eirp_dbm = 30, 32, 34, 36, 38, 40, 42, 44\n"
     "axis timetable.trains_per_hour = 2, 4, 6, 8, 10, 12, 14, 16\n"
     "axis radio.hp_eirp_dbm = 55, 58, 61, 64\n",
     false, "@railcorr-crc b3f8eedc803c1f6b"},
    {"sizing_climate",
     "base = arctic-climate\n"
     "axis sizing.seed = 1, 2, 3, 4\n"
     "axis sizing.weather.kt_sigma = 0.10, 0.13, 0.16, 0.19\n"
     "axis timetable.trains_per_hour = 4, 8, 12, 16\n",
     true, "@railcorr-crc 381955ef60ddd70a"},
    {"radio_distinct_fleet",
     "base = long-corridor\n"
     "axis radio.lp_eirp_dbm = 30, 32, 34, 36, 38, 40, 42, 44\n"
     "axis radio.hp_eirp_dbm = 55, 58, 61, 64\n"
     "axis link.noise.nf_repeater_db = 4, 5, 6, 7, 8, 9, 10, 11\n",
     false, "@railcorr-crc 384ef207158a99a9"},
    {"corridor_2_segments",
     "base = paper\n"
     "set corridor.segments = 2\n"
     "axis radio.lp_eirp_dbm = 30, 34, 38, 42\n"
     "axis link.noise.nf_repeater_db = 4, 7, 10\n",
     false, "@railcorr-crc c3e641c37f7eebaf"},
    {"corridor_3_segments",
     "base = long-corridor\n"
     "set corridor.segments = 3\n"
     "axis radio.hp_eirp_dbm = 55, 61\n"
     "axis radio.lp_eirp_dbm = 30, 36, 42\n"
     "axis link.noise.nf_repeater_db = 5, 9\n",
     false, "@railcorr-crc 7c59b6c5e99820f5"},
};

TEST(SweepGolden, CanonicalPlansMatchPinnedDigests) {
  for (const GoldenPlan& golden : kGoldenPlans) {
    const auto plan = corridor::SweepPlan::from_spec(golden.spec);
    SweepRunOptions options;
    options.include_sizing = golden.include_sizing;
    for (const std::size_t threads : {1u, 4u}) {
      exec::set_default_thread_count(threads);
      const std::string document =
          run_sweep_shard(plan, corridor::ShardSpec{0, 1}, options);
      EXPECT_EQ(util::integrity_trailer_line(document), golden.trailer)
          << golden.name << " at " << threads << " thread(s)";
    }
  }
  exec::set_default_thread_count(0);
}

}  // namespace
}  // namespace railcorr::core
