/// The incremental re-sweep property: against a persistent result
/// cache, randomized plan-edit sequences (flip either of two axis
/// values, revert) must always produce output byte-identical to a
/// cold cache-less sweep — and the hit count of every run must
/// equal the model's prediction of how many cells were already cached
/// (the unchanged-cell overlap with everything swept before).
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "cache/result_cache.hpp"
#include "core/sweep_runner.hpp"
#include "corridor/sweep.hpp"
#include "util/rng.hpp"

namespace railcorr::cache {
namespace {

namespace fs = std::filesystem;

/// The editable plan state: two flippable axis values. Cheap evaluation
/// settings keep the 8-cell grid fast.
struct PlanState {
  double lp_first = 37.0;
  int trains_last = 12;

  [[nodiscard]] std::string spec() const {
    std::string text =
        "base = paper\n"
        "set max_repeaters = 2\n"
        "set isd_search.isd_step_m = 100\n"
        "set isd_search.sample_step_m = 50\n";
    text += "axis radio.lp_eirp_dbm = " + std::to_string(lp_first) +
            ", 38, 39, 40\n";
    text += "axis timetable.trains_per_hour = 6, " +
            std::to_string(trains_last) + "\n";
    return text;
  }

  bool operator==(const PlanState&) const = default;
};

TEST(IncrementalProperty, EditSequencesStayByteIdenticalWithPredictedHits) {
  const fs::path dir =
      fs::temp_directory_path() /
      ("railcorr_cache_property_" + std::to_string(::getpid()));
  fs::remove_all(dir);

  SplitMix64 rng(0x1ced0001);
  PlanState state;
  std::vector<PlanState> history = {state};
  /// The model: every cell key ever published to the store.
  std::set<std::uint64_t> cached_keys;
  bool any_full_reuse = false;
  bool any_cold_start = false;

  for (int round = 0; round < 10; ++round) {
    // Random edit (round 0 sweeps the initial plan as-is).
    if (round > 0) {
      switch (rng.next() % 3) {
        case 0:  // Flip one axis value.
          state.lp_first = state.lp_first == 37.0 ? 37.5 : 37.0;
          break;
        case 1:  // Flip the other.
          state.trains_last = state.trains_last == 12 ? 10 : 12;
          break;
        default:  // Revert to a random earlier state.
          state = history[rng.next() % history.size()];
          break;
      }
      history.push_back(state);
    }

    const auto plan = corridor::SweepPlan::from_spec(state.spec());
    const corridor::ShardSpec whole_grid;

    // Model prediction: cells whose key the store already holds.
    core::SweepRunOptions options;
    const std::string banner = corridor::shard_banner(plan);
    const std::string header =
        corridor::shard_header(plan, core::sweep_metric_columns(options));
    std::size_t predicted_hits = 0;
    for (std::size_t index = 0; index < plan.size(); ++index) {
      if (cached_keys.count(cell_key(banner, index, header)) > 0) {
        ++predicted_hits;
      }
    }

    const std::string cold = core::run_sweep_shard(plan, whole_grid, options);

    ResultCache cache;
    ASSERT_TRUE(cache.open({dir.string(), 0}));
    options.cache = &cache;
    const std::string warm = core::run_sweep_shard(plan, whole_grid, options);

    EXPECT_EQ(warm, cold) << "round " << round
                          << ": cached sweep diverged from cold sweep";
    EXPECT_EQ(cache.stats().hits, predicted_hits) << "round " << round;
    EXPECT_EQ(cache.stats().misses, plan.size() - predicted_hits)
        << "round " << round;

    if (predicted_hits == plan.size()) any_full_reuse = true;
    if (predicted_hits == 0) any_cold_start = true;
    for (std::size_t index = 0; index < plan.size(); ++index) {
      cached_keys.insert(cell_key(banner, index, header));
    }
  }

  // The seeded sequence must actually have exercised both extremes:
  // a fully-reused sweep (a revert or repeat) and a cold one (a fresh
  // plan state).
  EXPECT_TRUE(any_full_reuse);
  EXPECT_TRUE(any_cold_start);

  fs::remove_all(dir);
}

TEST(IncrementalProperty, ARepeatedSweepIsAllHits) {
  const fs::path dir =
      fs::temp_directory_path() /
      ("railcorr_cache_repeat_" + std::to_string(::getpid()));
  fs::remove_all(dir);

  const PlanState state;
  const auto plan = corridor::SweepPlan::from_spec(state.spec());
  core::SweepRunOptions options;

  ResultCache first;
  ASSERT_TRUE(first.open({dir.string(), 0}));
  options.cache = &first;
  const std::string cold = core::run_sweep_shard(plan, {}, options);
  EXPECT_EQ(first.stats().hits, 0u);
  EXPECT_EQ(first.stats().misses, plan.size());

  ResultCache second;
  ASSERT_TRUE(second.open({dir.string(), 0}));
  options.cache = &second;
  const std::string warm = core::run_sweep_shard(plan, {}, options);
  EXPECT_EQ(second.stats().hits, plan.size());
  EXPECT_EQ(second.stats().misses, 0u);
  EXPECT_EQ(warm, cold);

  fs::remove_all(dir);
}

}  // namespace
}  // namespace railcorr::cache
