/// The recorded-baseline perf gate: JSON round-trip through the
/// harness's own format and the floor/tolerance semantics CI relies on.
#include "baseline_gate.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "bench_harness.hpp"

namespace railcorr::bench {
namespace {

BenchResult make_result(const std::string& name, std::size_t threads,
                        double ns_per_op,
                        std::vector<std::pair<std::string, double>> metrics) {
  BenchResult r;
  r.name = name;
  r.threads = threads;
  r.iterations = 10;
  r.ns_per_op = ns_per_op;
  r.ops_per_second = 1e9 / ns_per_op;
  r.metrics = std::move(metrics);
  return r;
}

TEST(BaselineGate, ParsesHarnessJsonRoundTrip) {
  BenchHarness harness("suite");
  harness.add_context("simd", "avx2");
  auto& r = harness.run("kernel", 2, [] {}, 0.0);
  r.metrics.emplace_back("speedup_vs_scalar", 31.5);

  const auto parsed = parse_harness_json(harness.json());
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].name, "kernel");
  EXPECT_EQ(parsed[0].threads, 2u);
  ASSERT_TRUE(parsed[0].metrics.count("speedup_vs_scalar"));
  EXPECT_DOUBLE_EQ(parsed[0].metrics.at("speedup_vs_scalar"), 31.5);
  ASSERT_TRUE(parsed[0].metrics.count("ns_per_op"));
}

TEST(BaselineGate, ParsesHandWrittenBaseline) {
  const std::string json = R"({
  "suite": "parallel_scaling",
  "benchmarks": [
    {"name": "a", "threads": 1, "ns_per_op": 100.0,
     "speedup_vs_scalar": 20.0},
    {"name": "a", "threads": 4, "ns_per_op": 30.0,
     "speedup_vs_1_thread": 3.0}
  ]
})";
  const auto parsed = parse_harness_json(json);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].threads, 1u);
  EXPECT_DOUBLE_EQ(parsed[0].metrics.at("speedup_vs_scalar"), 20.0);
  EXPECT_EQ(parsed[1].threads, 4u);
  EXPECT_DOUBLE_EQ(parsed[1].metrics.at("speedup_vs_1_thread"), 3.0);
}

TEST(BaselineGate, PassesWithinToleranceBand) {
  const std::vector<BenchResult> current = {
      make_result("kernel", 1, 100.0, {{"speedup_vs_scalar", 15.0}})};
  std::vector<BaselineEntry> baseline(1);
  baseline[0].name = "kernel";
  baseline[0].threads = 1;
  baseline[0].metrics["speedup_vs_scalar"] = 20.0;

  std::ostringstream log;
  // 15 >= 20 / (1 + 0.5) = 13.33 -> pass.
  const auto gate = check_against_baseline(current, baseline, 0.5, log);
  EXPECT_EQ(gate.checked, 1);
  EXPECT_TRUE(gate.passed());
}

TEST(BaselineGate, FailsBeyondToleranceBand) {
  const std::vector<BenchResult> current = {
      make_result("kernel", 1, 100.0, {{"speedup_vs_scalar", 5.0}})};
  std::vector<BaselineEntry> baseline(1);
  baseline[0].name = "kernel";
  baseline[0].threads = 1;
  baseline[0].metrics["speedup_vs_scalar"] = 20.0;

  std::ostringstream log;
  const auto gate = check_against_baseline(current, baseline, 0.5, log);
  EXPECT_FALSE(gate.passed());
  EXPECT_NE(log.str().find("PERF GATE"), std::string::npos);
}

TEST(BaselineGate, MissingBenchmarkIsAViolation) {
  const std::vector<BenchResult> current;
  std::vector<BaselineEntry> baseline(1);
  baseline[0].name = "vanished";
  baseline[0].metrics["speedup_vs_scalar"] = 2.0;

  std::ostringstream log;
  const auto gate = check_against_baseline(current, baseline, 0.5, log);
  EXPECT_EQ(gate.violations, 1);
}

TEST(BaselineGate, MissingSpeedupMetricIsAViolation) {
  const std::vector<BenchResult> current = {make_result("kernel", 1, 100.0, {})};
  std::vector<BaselineEntry> baseline(1);
  baseline[0].name = "kernel";
  baseline[0].metrics["speedup_vs_scalar"] = 2.0;

  std::ostringstream log;
  const auto gate = check_against_baseline(current, baseline, 10.0, log);
  EXPECT_EQ(gate.violations, 1);
}

TEST(BaselineGate, EveryRecordedBaselineFileParses) {
  // The fixture list of recorded baselines CI gates against: each file
  // must exist and parse to a non-empty benchmark list, and every entry
  // must carry at least one metric (a floor with nothing to enforce is
  // a recording mistake). A new baseline file must be added here.
  const char* files[] = {"cache.json", "parallel_scaling.json",
                         "robustness_mc.json"};
  for (const char* name : files) {
    const std::string path = std::string(RAILCORR_BASELINE_DIR) + "/" + name;
    std::ifstream file(path);
    ASSERT_TRUE(file.good()) << "missing recorded baseline " << path;
    std::ostringstream text;
    text << file.rdbuf();
    const auto parsed = parse_harness_json(text.str());
    EXPECT_FALSE(parsed.empty()) << name << " parses to no benchmarks";
    for (const auto& entry : parsed) {
      EXPECT_FALSE(entry.metrics.empty())
          << name << " entry " << entry.name << " has no metrics";
    }
  }
}

TEST(BaselineGate, AbsoluteTimesOnlyCheckedOnRequest) {
  const std::vector<BenchResult> current = {
      make_result("kernel", 1, 1000.0, {})};
  std::vector<BaselineEntry> baseline(1);
  baseline[0].name = "kernel";
  baseline[0].threads = 1;
  baseline[0].metrics["ns_per_op"] = 100.0;

  std::ostringstream log;
  // Default: absolute times ignored (cross-machine comparison unsafe).
  EXPECT_TRUE(check_against_baseline(current, baseline, 0.5, log).passed());
  // Opt-in: 1000 > 100 * 1.5 -> violation.
  EXPECT_FALSE(
      check_against_baseline(current, baseline, 0.5, log, true).passed());
}

}  // namespace
}  // namespace railcorr::bench
