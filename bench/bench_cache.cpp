/// Result-cache benchmark: the incremental re-sweep payoff, measured.
/// Times the 64-cell sweep grid three ways — cold (every cell
/// evaluated), warm (every cell answered from a primed content-
/// addressed store), and the store-open cost alone — verifies the warm
/// run's bytes are identical to the cold run's (the contract that makes
/// caching legal at all), and emits the warm-vs-cold speedup as a
/// machine-readable metric.
///
/// The speedup is the metric CI gates against a recorded floor
/// (bench/baselines/cache.json): a warm re-sweep of an unchanged grid
/// must stay decisively faster than recomputing it, or the cache has
/// regressed into decoration. Each warm iteration re-opens the store
/// from disk, so the measured figure includes the open-time directory
/// read and the first hit's load and trailer hash — the real cost a
/// `sweep --cache-dir` re-run pays, not an in-memory best case.
///
/// Usage: bench_cache [--json=PATH] [--min-seconds=S]
///          [--baseline=PATH] [--baseline-tolerance=F] [--check-abs-times]
///
/// Exit status: 0 ok, 1 determinism violation, 2 usage error,
/// 3 perf regression against the baseline.
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "baseline_gate.hpp"
#include "bench_harness.hpp"
#include "cache/result_cache.hpp"
#include "core/sweep_runner.hpp"
#include "corridor/sweep.hpp"
#include "exec/parallel.hpp"

namespace {

using namespace railcorr;
namespace fs = std::filesystem;

/// The same cheap 64-cell grid as the orchestrate/chaos/cache smokes:
/// shallow repeater sweep, coarse search steps, 4x4x2x2 axes.
constexpr const char* kPlanSpec =
    "base = paper\n"
    "set max_repeaters = 2\n"
    "set isd_search.isd_step_m = 100\n"
    "set isd_search.sample_step_m = 50\n"
    "axis radio.lp_eirp_dbm = 37, 38, 39, 40\n"
    "axis timetable.trains_per_hour = 6, 8, 10, 12\n"
    "axis timetable.night_hours = 4, 5\n"
    "axis radio.hp_eirp_dbm = 60, 61\n";

}  // namespace

int main(int argc, char** argv) {
  std::optional<std::string> json_path;
  std::optional<std::string> baseline_path;
  double baseline_tolerance = 0.5;
  bool check_abs_times = false;
  double min_seconds = 0.2;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = std::string(argv[i] + 7);
    } else if (std::strncmp(argv[i], "--baseline=", 11) == 0) {
      baseline_path = std::string(argv[i] + 11);
    } else if (std::strncmp(argv[i], "--baseline-tolerance=", 21) == 0) {
      try {
        baseline_tolerance = std::stod(argv[i] + 21);
      } catch (const std::exception&) {
        std::cerr << "invalid --baseline-tolerance value: " << (argv[i] + 21)
                  << '\n';
        return 2;
      }
      if (baseline_tolerance < 0.0) {
        std::cerr << "--baseline-tolerance must be >= 0 (got "
                  << baseline_tolerance << ")\n";
        return 2;
      }
    } else if (std::strcmp(argv[i], "--check-abs-times") == 0) {
      check_abs_times = true;
    } else if (std::strncmp(argv[i], "--min-seconds=", 14) == 0) {
      try {
        min_seconds = std::stod(argv[i] + 14);
      } catch (const std::exception&) {
        std::cerr << "invalid --min-seconds value: " << (argv[i] + 14) << '\n';
        return 2;
      }
    } else {
      std::cerr << "unknown argument: " << argv[i]
                << " (usage: bench_cache [--json=PATH] [--min-seconds=S]"
                   " [--baseline=PATH] [--baseline-tolerance=F]"
                   " [--check-abs-times])\n";
      return 2;
    }
  }

  const auto plan = corridor::SweepPlan::from_spec(kPlanSpec);
  const corridor::ShardSpec whole_grid;
  // Every sweep below runs on one thread, as the entries' thread
  // column says: the warm path is serial work, so a multi-threaded cold
  // reference would make the gated ratio depend on the runner's core
  // count rather than on the work each path does.
  exec::set_default_thread_count(1);
  const fs::path dir = fs::temp_directory_path() /
                       ("railcorr_bench_cache_" + std::to_string(::getpid()));
  fs::remove_all(dir);

  bench::BenchHarness harness("cache");
  harness.add_context("grid_cells", std::to_string(plan.size()));
  bool deterministic = true;

  // ---- Cold: every cell evaluated ------------------------------------
  // The cache-less path is the cold reference: a cold *cached* run pays
  // this plus the store publish, so gating warm against the cache-less
  // time understates the speedup — the recorded floor stays honest.
  std::string cold_doc;
  const auto& cold = harness.run(
      "sweep_cold_64cells", 1,
      [&] { cold_doc = core::run_sweep_shard(plan, whole_grid, {}); },
      min_seconds);

  // Prime the store once; the priming run must also byte-match.
  {
    cache::ResultCache primer;
    if (!primer.open({dir.string(), 0})) {
      std::cerr << "failed to open cache store at " << dir << '\n';
      return 2;
    }
    core::SweepRunOptions options;
    options.cache = &primer;
    const std::string primed =
        core::run_sweep_shard(plan, whole_grid, options);
    if (primed != cold_doc) {
      std::cerr << "DETERMINISM VIOLATION: cold cached sweep differs from"
                   " the cache-less sweep\n";
      deterministic = false;
    }
  }

  // ---- Warm: every cell answered from the primed store ---------------
  // Re-opening per iteration charges the warm path its true cost:
  // the directory read and check, 64 lookups, the first of which loads
  // the segment and hashes it against its trailer.
  std::string warm_doc;
  std::size_t warm_hits = 0;
  auto& warm = harness.run(
      "sweep_warm_64cells", 1,
      [&] {
        cache::ResultCache store;
        store.open({dir.string(), 0});
        core::SweepRunOptions options;
        options.cache = &store;
        warm_doc = core::run_sweep_shard(plan, whole_grid, options);
        warm_hits = store.stats().hits;
      },
      min_seconds);
  warm.metrics.emplace_back("warm_speedup_vs_cold",
                            cold.ns_per_op / warm.ns_per_op);
  if (warm_doc != cold_doc) {
    std::cerr << "DETERMINISM VIOLATION: warm cached sweep differs from"
                 " the cache-less sweep\n";
    deterministic = false;
  }
  if (warm_hits != plan.size()) {
    std::cerr << "DETERMINISM VIOLATION: warm sweep answered only "
              << warm_hits << "/" << plan.size() << " cells from the store\n";
    deterministic = false;
  }

  // ---- Store open alone ----------------------------------------------
  // The fixed per-process tax a warm run pays before its first lookup
  // (the segment's load and trailer hash wait for that lookup).
  harness.run(
      "cache_open_64rows", 1,
      [&] {
        cache::ResultCache store;
        store.open({dir.string(), 0});
      },
      min_seconds);

  fs::remove_all(dir);

  harness.write_json(std::cout);
  if (json_path && !harness.write_json_file(*json_path)) {
    std::cerr << "failed to write " << *json_path << '\n';
    return 2;
  }
  if (!deterministic) return 1;

  if (baseline_path) {
    std::ifstream file(*baseline_path);
    if (!file) {
      std::cerr << "failed to read baseline " << *baseline_path << '\n';
      return 2;
    }
    std::ostringstream text;
    text << file.rdbuf();
    const auto baseline = bench::parse_harness_json(text.str());
    if (baseline.empty()) {
      std::cerr << "baseline " << *baseline_path
                << " contains no benchmarks\n";
      return 2;
    }
    const auto gate = bench::check_against_baseline(
        harness.results(), baseline, baseline_tolerance, std::cerr,
        check_abs_times);
    std::cerr << "perf gate: " << gate.checked << " checks, "
              << gate.violations << " violations (tolerance "
              << baseline_tolerance << ")\n";
    if (!gate.passed()) return 3;
  }
  return 0;
}
