/// The sweep runner's cross-process determinism contract: rows are pure
/// functions of (plan, index), shards merge back to the single-process
/// document byte for byte, and cells materialize the right scenarios.
#include "core/sweep_runner.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "exec/parallel.hpp"
#include "util/config.hpp"

namespace railcorr::core {
namespace {

/// A grid that evaluates in milliseconds: shallow repeater sweep and
/// coarse search steps.
corridor::SweepPlan tiny_plan() {
  return corridor::SweepPlan::from_spec(
      "base = paper\n"
      "set max_repeaters = 2\n"
      "set isd_search.isd_step_m = 100\n"
      "set isd_search.sample_step_m = 50\n"
      "axis radio.lp_eirp_dbm = 37, 40\n"
      "axis timetable.trains_per_hour = 8, 12\n");
}

TEST(SweepRunner, ScenarioAtAppliesBaseFixedAndAxes) {
  const auto plan = tiny_plan();
  const Scenario cell3 = scenario_at(plan, 3);  // (40 dBm, 12 trains/h)
  EXPECT_EQ(cell3.max_repeaters, 2);
  EXPECT_DOUBLE_EQ(cell3.isd_search.isd_step_m, 100.0);
  EXPECT_DOUBLE_EQ(cell3.radio.lp_eirp.value(), 40.0);
  EXPECT_DOUBLE_EQ(cell3.timetable.trains_per_hour, 12.0);
}

TEST(SweepRunner, RowsArePureFunctionsOfPlanAndIndex) {
  const auto plan = tiny_plan();
  for (std::size_t i = 0; i < plan.size(); ++i) {
    EXPECT_EQ(evaluate_sweep_cell(plan, i), evaluate_sweep_cell(plan, i));
  }
}

TEST(SweepRunner, RowsAreThreadCountInvariant) {
  const auto plan = tiny_plan();
  exec::set_default_thread_count(1);
  const std::string one_thread = evaluate_sweep_cell(plan, 0);
  exec::set_default_thread_count(0);
  const std::string many_threads = evaluate_sweep_cell(plan, 0);
  EXPECT_EQ(one_thread, many_threads);
}

TEST(SweepRunner, ShardedRunsMergeToSingleProcessBytes) {
  const auto plan = tiny_plan();
  const std::string shard0 =
      run_sweep_shard(plan, corridor::ShardSpec{0, 2});
  const std::string shard1 =
      run_sweep_shard(plan, corridor::ShardSpec{1, 2});
  const std::string full = run_sweep_shard(plan, corridor::ShardSpec{0, 1});

  const auto sharded = corridor::merge_shards({shard0, shard1});
  ASSERT_TRUE(sharded.ok) << (sharded.errors.empty() ? ""
                                                     : sharded.errors[0]);
  const auto single = corridor::merge_shards({full});
  ASSERT_TRUE(single.ok);
  EXPECT_EQ(sharded.merged, single.merged);
}

TEST(SweepRunner, HeaderNamesEveryColumn) {
  const auto plan = tiny_plan();
  const std::string document =
      run_sweep_shard(plan, corridor::ShardSpec{0, 1});
  const std::size_t header_start = document.find('\n') + 1;
  const std::string header = document.substr(
      header_start, document.find('\n', header_start) - header_start);
  EXPECT_EQ(header.rfind("index,radio.lp_eirp_dbm,timetable.trains_per_hour,",
                         0),
            0u);
  // One comma-separated column per header entry in every row.
  const auto columns = static_cast<std::size_t>(
      std::count(header.begin(), header.end(), ',') + 1);
  std::size_t row_start = document.find('\n', header_start) + 1;
  while (row_start < document.size()) {
    const std::size_t row_end = document.find('\n', row_start);
    const std::string row = document.substr(row_start, row_end - row_start);
    EXPECT_EQ(static_cast<std::size_t>(
                  std::count(row.begin(), row.end(), ',') + 1),
              columns)
        << row;
    row_start = row_end + 1;
  }
}

TEST(SweepRunner, MetricColumnsMatchOptions) {
  SweepRunOptions with_sizing;
  with_sizing.include_sizing = true;
  EXPECT_EQ(sweep_metric_columns({}).size() + 2,
            sweep_metric_columns(with_sizing).size());
}

TEST(SweepRunner, ListValuedKeysSweepViaSemicolonSpelling) {
  // An axis over a list-valued key must use ';' inside each axis value
  // (the axis parser splits on commas): two cells, each with its whole
  // ladder intact.
  const auto plan = corridor::SweepPlan::from_spec(
      "base = paper\n"
      "axis sizing.ladder = 540:720;540:1440, 600:1440\n");
  ASSERT_EQ(plan.size(), 2u);
  const Scenario cell0 = scenario_at(plan, 0);
  ASSERT_EQ(cell0.sizing_ladder.size(), 2u);
  EXPECT_DOUBLE_EQ(cell0.sizing_ladder[1].battery_wh, 1440.0);
  const Scenario cell1 = scenario_at(plan, 1);
  ASSERT_EQ(cell1.sizing_ladder.size(), 1u);
  EXPECT_DOUBLE_EQ(cell1.sizing_ladder[0].pv_wp, 600.0);
}

TEST(SweepRunner, BadCellReportsTheLowestIndexErrorAtAnyThreadCount) {
  // Cell 7 is the first bad cell (its LP value); cells 8..15 carry a
  // bad trains/h value, which fails first in their override order. The
  // scenarios build in parallel, yet the error must be cell 7's, as a
  // serial build would report.
  const auto plan = corridor::SweepPlan::from_spec(
      "base = paper\n"
      "axis timetable.trains_per_hour = 8, many\n"
      "axis radio.lp_eirp_dbm = 34, 35, 36, 37, 38, 39, 40, loud\n");
  for (const std::size_t threads : {1u, 4u}) {
    exec::set_default_thread_count(threads);
    try {
      (void)run_sweep_shard(plan, corridor::ShardSpec{0, 1});
      ADD_FAILURE() << "a plan with bad axis values evaluated";
    } catch (const util::ConfigError& error) {
      EXPECT_NE(std::string(error.what()).find("radio.lp_eirp_dbm"),
                std::string::npos)
          << threads << " thread(s): " << error.what();
    }
  }
  exec::set_default_thread_count(0);
}

TEST(SweepRunner, BatchedSizingShardMatchesPerCellRowsByteExact) {
  // --include-sizing shards run ONE batched off-grid simulation across
  // all owned cells (shared weather per location); the emitted rows
  // must be byte-identical to the per-cell pure-function path, or the
  // merge determinism contract would see the batching.
  const auto plan = corridor::SweepPlan::from_spec(
      "base = paper\n"
      "set max_repeaters = 2\n"
      "set isd_search.isd_step_m = 100\n"
      "set isd_search.sample_step_m = 50\n"
      "set sizing.years = 1\n"
      "axis timetable.trains_per_hour = 6, 10, 14\n");
  SweepRunOptions options;
  options.include_sizing = true;
  const std::string document =
      run_sweep_shard(plan, corridor::ShardSpec{0, 1}, options);

  std::string expected = corridor::shard_banner(plan) + "\n" +
                         corridor::shard_header(
                             plan, sweep_metric_columns(options)) +
                         "\n";
  for (std::size_t i = 0; i < plan.size(); ++i) {
    expected += evaluate_sweep_cell(plan, i, options) + "\n";
  }
  EXPECT_EQ(document, expected);
}

}  // namespace
}  // namespace railcorr::core
