/// Parallel-scaling benchmark of the deterministic evaluation engine:
/// times the dominant workloads — shadowing Monte Carlo, max-ISD sweep,
/// multi-segment corridor scan, uplink corridor scan, PV sizing grid,
/// and the multi-day DES campaign — at 1, 2, 4, and hardware thread
/// counts, verifies that every thread count produces bit-identical
/// numeric results, and emits a machine-readable JSON report (ns/op,
/// throughput, speedup vs the single-thread baseline). A second section
/// times the SoA batch kernels at one thread: seed-style scalar
/// dB-domain evaluation vs the batched linear-domain kernel, and the
/// forced-scalar kernel vs the SIMD-dispatched one. A third section
/// times the shared-weather batched off-grid sizing (size_jobs) against
/// the per-cell walk over an 8-cell sweep slice, and size_jobs' AVX2
/// ladder lanes against its scalar lane on that slice at four weather
/// years, and checks each pair agrees bit for bit.
///
/// Usage: bench_parallel_scaling [--json=PATH] [--min-seconds=S]
///          [--baseline=PATH] [--baseline-tolerance=F] [--check-abs-times]
///
/// With --baseline, the run is additionally gated against a recorded
/// baseline JSON (see bench/baselines/ and bench/baseline_gate.hpp):
/// speedup metrics must stay within the tolerance band of the recorded
/// floors. Exit status: 0 ok, 1 determinism violation, 2 usage error,
/// 3 perf regression against the baseline.
#include <algorithm>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "baseline_gate.hpp"
#include "bench_harness.hpp"
#include "sizing_workload.hpp"
#include "corridor/isd_search.hpp"
#include "corridor/multi_segment.hpp"
#include "corridor/robustness.hpp"
#include "exec/parallel.hpp"
#include "power/earth_model.hpp"
#include "rf/batch_kernel.hpp"
#include "rf/uplink.hpp"
#include "sim/corridor_sim.hpp"
#include "solar/consumption.hpp"
#include "solar/sizing.hpp"
#include "traffic/timetable.hpp"
#include "util/vmath.hpp"

namespace {

using namespace railcorr;

corridor::RobustnessConfig robustness_config() {
  corridor::RobustnessConfig config;
  config.sigma_db = 4.0;
  config.realizations = 200;
  return config;
}

/// Exact (bitwise) equality of two robustness reports.
bool reports_identical(const corridor::RobustnessReport& a,
                       const corridor::RobustnessReport& b) {
  return a.min_snr_db.count() == b.min_snr_db.count() &&
         a.min_snr_db.mean() == b.min_snr_db.mean() &&
         a.min_snr_db.min() == b.min_snr_db.min() &&
         a.min_snr_db.max() == b.min_snr_db.max() &&
         a.pass_probability == b.pass_probability &&
         a.outage_fraction == b.outage_fraction &&
         a.mean_margin_db == b.mean_margin_db;
}

bool sweeps_identical(const std::vector<corridor::MaxIsdResult>& a,
                      const std::vector<corridor::MaxIsdResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].repeater_count != b[i].repeater_count ||
        a[i].max_isd_m != b[i].max_isd_m ||
        a[i].min_snr_at_max.value() != b[i].min_snr_at_max.value()) {
      return false;
    }
  }
  return true;
}

bool segments_identical(const std::vector<corridor::SegmentCapacity>& a,
                        const std::vector<corridor::SegmentCapacity>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].segment_index != b[i].segment_index ||
        a[i].min_snr.value() != b[i].min_snr.value() ||
        a[i].mean_snr_db.value() != b[i].mean_snr_db.value()) {
      return false;
    }
  }
  return true;
}

bool sizings_identical(const std::vector<solar::SizingResult>& a,
                       const std::vector<solar::SizingResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].chosen.pv_wp != b[i].chosen.pv_wp ||
        a[i].chosen.battery_wh != b[i].chosen.battery_wh ||
        a[i].ladder_exhausted != b[i].ladder_exhausted ||
        a[i].report.unserved_energy.value() !=
            b[i].report.unserved_energy.value() ||
        a[i].report.days_with_full_battery_pct !=
            b[i].report.days_with_full_battery_pct) {
      return false;
    }
  }
  return true;
}

bool campaigns_identical(const sim::CampaignReport& a,
                         const sim::CampaignReport& b) {
  if (a.days != b.days ||
      a.total_mains_energy.value() != b.total_mains_energy.value() ||
      a.degraded_seconds != b.degraded_seconds ||
      a.missed_wakes != b.missed_wakes ||
      a.events_processed != b.events_processed ||
      a.train_snr_db.count() != b.train_snr_db.count() ||
      a.train_snr_db.mean() != b.train_snr_db.mean()) {
    return false;
  }
  for (std::size_t d = 0; d < a.day_reports.size(); ++d) {
    if (a.day_reports[d].mains_energy.value() !=
        b.day_reports[d].mains_energy.value()) {
      return false;
    }
  }
  return true;
}

std::vector<std::size_t> thread_counts() {
  std::vector<std::size_t> counts = {1, 2, 4, exec::hardware_thread_count()};
  std::sort(counts.begin(), counts.end());
  counts.erase(std::unique(counts.begin(), counts.end()), counts.end());
  return counts;
}

void add_speedup(bench::BenchHarness& harness, bench::BenchResult& result,
                 const std::string& name) {
  if (const auto* base = harness.find(name, 1)) {
    result.metrics.emplace_back("speedup_vs_1_thread",
                                base->ns_per_op / result.ns_per_op);
  }
}

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
                << " (usage: bench_parallel_scaling [--json=PATH]"
                   " [--min-seconds=S] [--baseline=PATH]"
                   " [--baseline-tolerance=F] [--check-abs-times])\n";
      return 2;
    }
  }

  bench::BenchHarness harness("parallel_scaling");
  harness.add_context("simd",
                      std::string(rf::simd_level_name(rf::active_simd_level())));
  harness.add_context("hardware_threads",
                      std::to_string(exec::hardware_thread_count()));
  bool deterministic = true;

  const auto deployment = corridor::SegmentDeployment::with_repeaters(2400.0, 8);
  const corridor::RobustnessAnalyzer analyzer(rf::LinkModelConfig{},
                                              robustness_config());
  const corridor::IsdSearch search(corridor::CapacityAnalyzer::paper_analyzer(),
                                   corridor::IsdSearchConfig{});
  const corridor::MultiSegmentAnalyzer ms_analyzer(rf::LinkModelConfig{});
  const auto corridor5 = corridor::CorridorDeployment::repeat(deployment, 5);
  rf::LinkModelConfig link_config;
  const rf::UplinkModel uplink(link_config,
                               deployment.transmitters(link_config.carrier));
  const auto consumption = solar::repeater_consumption(
      power::EarthPowerModel::paper_low_power_repeater(),
      traffic::TimetableConfig::paper_timetable(), 200.0);
  solar::SizingOptions sizing_options;
  sizing_options.years = 1;  // one weather year per cell keeps CI fast
  sim::SimulationConfig sim_config;
  sim_config.deployment = deployment;
  sim_config.poisson_timetable = true;
  sim_config.detector_miss_probability = 0.02;
  const sim::CorridorSimulation des(sim_config);
  constexpr int kCampaignDays = 4;

  corridor::RobustnessReport robustness_baseline;
  std::vector<corridor::MaxIsdResult> sweep_baseline;
  std::vector<corridor::SegmentCapacity> segments_baseline;
  double uplink_baseline = 0.0;
  std::vector<solar::SizingResult> sizing_baseline;
  sim::CampaignReport campaign_baseline;

  auto flag_violation = [&](const char* what, std::size_t threads) {
    std::cerr << "DETERMINISM VIOLATION: " << what << " at " << threads
              << " threads differs from the 1-thread baseline\n";
    deterministic = false;
  };

  for (const std::size_t threads : thread_counts()) {
    exec::set_default_thread_count(threads);

    corridor::RobustnessReport report;
    auto& mc = harness.run(
        "robustness_monte_carlo", threads,
        [&] { report = analyzer.study(deployment); }, min_seconds);
    add_speedup(harness, mc, "robustness_monte_carlo");
    if (threads == 1) {
      robustness_baseline = report;
    } else if (!reports_identical(robustness_baseline, report)) {
      flag_violation("robustness report", threads);
    }

    std::vector<corridor::MaxIsdResult> sweep;
    auto& sw = harness.run(
        "max_isd_sweep", threads, [&] { sweep = search.sweep(1, 10); },
        min_seconds);
    add_speedup(harness, sw, "max_isd_sweep");
    if (threads == 1) {
      sweep_baseline = sweep;
    } else if (!sweeps_identical(sweep_baseline, sweep)) {
      flag_violation("max-ISD sweep", threads);
    }

    std::vector<corridor::SegmentCapacity> segments;
    auto& ms = harness.run(
        "multi_segment_per_segment", threads,
        [&] { segments = ms_analyzer.per_segment(corridor5); }, min_seconds);
    add_speedup(harness, ms, "multi_segment_per_segment");
    if (threads == 1) {
      segments_baseline = segments;
    } else if (!segments_identical(segments_baseline, segments)) {
      flag_violation("multi-segment scan", threads);
    }

    double uplink_min = 0.0;
    auto& ul = harness.run(
        "uplink_min_snr_sweep", threads,
        [&] { uplink_min = uplink.min_snr(0.0, 2400.0, 0.25).value(); },
        min_seconds);
    add_speedup(harness, ul, "uplink_min_snr_sweep");
    if (threads == 1) {
      uplink_baseline = uplink_min;
    } else if (uplink_baseline != uplink_min) {
      flag_violation("uplink corridor scan", threads);
    }

    std::vector<solar::SizingResult> sizing;
    auto& pv = harness.run(
        "pv_sizing_grid", threads,
        [&] { sizing = solar::size_paper_locations(consumption,
                                                   sizing_options); },
        min_seconds);
    add_speedup(harness, pv, "pv_sizing_grid");
    if (threads == 1) {
      sizing_baseline = sizing;
    } else if (!sizings_identical(sizing_baseline, sizing)) {
      flag_violation("PV sizing grid", threads);
    }

    sim::CampaignReport campaign;
    auto& dc = harness.run(
        "des_campaign_4days", threads,
        [&] { campaign = des.run_campaign(kCampaignDays); }, min_seconds);
    add_speedup(harness, dc, "des_campaign_4days");
    if (threads == 1) {
      campaign_baseline = campaign;
    } else if (!campaigns_identical(campaign_baseline, campaign)) {
      flag_violation("DES campaign", threads);
    }
  }
  exec::set_default_thread_count(0);  // restore automatic resolution

  // ---- Single-thread kernel comparisons -------------------------------
  // (a) seed-style scalar dB-domain evaluation vs the batched kernel,
  // (b) forced-scalar kernel vs the SIMD-dispatched kernel, for both the
  // dB profile (log10-bound) and the min reduction (kernel-bound), and
  // (c) the scalar uplink reference vs the batched uplink path.
  {
    const rf::CorridorLinkModel model(
        link_config, deployment.transmitters(link_config.carrier));
    constexpr std::size_t kPositions = 10000;
    std::vector<double> positions(kPositions);
    std::vector<double> snr_db(kPositions);
    for (std::size_t i = 0; i < kPositions; ++i) {
      positions[i] = 2400.0 * static_cast<double>(i) /
                     static_cast<double>(kPositions - 1);
    }
    double sink = 0.0;

    harness.run(
        "snr_scalar_10k", 1,
        [&] {
          for (const double p : positions) sink += model.snr(p).value();
        },
        min_seconds);
    auto& batch = harness.run(
        "snr_batch_10k", 1, [&] { model.snr_batch(positions, snr_db); },
        min_seconds);
    if (const auto* scalar = harness.find("snr_scalar_10k", 1)) {
      batch.metrics.emplace_back("speedup_vs_scalar",
                                 scalar->ns_per_op / batch.ns_per_op);
    }

    rf::force_simd_level(rf::SimdLevel::kScalar);
    harness.run(
        "min_snr_kernel_scalar_10k", 1,
        [&] { sink += model.min_snr(positions).value(); }, min_seconds);
    harness.run(
        "snr_batch_kernel_scalar_10k", 1,
        [&] { model.snr_batch(positions, snr_db); }, min_seconds);
    rf::reset_simd_level();
    auto& min_simd = harness.run(
        "min_snr_kernel_simd_10k", 1,
        [&] { sink += model.min_snr(positions).value(); }, min_seconds);
    if (const auto* scalar = harness.find("min_snr_kernel_scalar_10k", 1)) {
      min_simd.metrics.emplace_back("simd_speedup_vs_scalar_kernel",
                                    scalar->ns_per_op / min_simd.ns_per_op);
    }
    auto& batch_simd = harness.run(
        "snr_batch_kernel_simd_10k", 1,
        [&] { model.snr_batch(positions, snr_db); }, min_seconds);
    if (const auto* scalar = harness.find("snr_batch_kernel_scalar_10k", 1)) {
      batch_simd.metrics.emplace_back("simd_speedup_vs_scalar_kernel",
                                      scalar->ns_per_op / batch_simd.ns_per_op);
    }

    harness.run(
        "uplink_scalar_10k", 1,
        [&] {
          for (const double p : positions) sink += uplink.snr(p).value();
        },
        min_seconds);
    auto& uplink_batch = harness.run(
        "uplink_batch_10k", 1, [&] { uplink.snr_batch(positions, snr_db); },
        min_seconds);
    if (const auto* scalar = harness.find("uplink_scalar_10k", 1)) {
      uplink_batch.metrics.emplace_back("speedup_vs_scalar",
                                        scalar->ns_per_op /
                                            uplink_batch.ns_per_op);
    }

    if (sink == 42.0) std::cerr << "";  // keep the scalar loops observable
  }

  // ---- Batched off-grid sizing across sweep cells ----------------------
  // Eight cells sharing the weather tuple (only the load differs, as a
  // traffic-axis sweep would): the size_jobs batch synthesizes each
  // location's weather once for the whole set, vs once per cell on the
  // per-cell path. Workload and identity check live in
  // bench/sizing_workload.hpp.
  {
    const auto jobs = bench::sizing_sweep_cells(consumption, sizing_options,
                                                8);
    std::vector<std::vector<solar::SizingResult>> per_cell;
    harness.run(
        "pv_sizing_per_cell_8cells", 1,
        [&] { per_cell = bench::sizing_per_cell(jobs); }, min_seconds);
    std::vector<std::vector<solar::SizingResult>> batched;
    auto& sizing_batched = harness.run(
        "pv_sizing_batched_8cells", 1,
        [&] { batched = solar::size_jobs(jobs); }, min_seconds);
    if (const auto* cell = harness.find("pv_sizing_per_cell_8cells", 1)) {
      sizing_batched.metrics.emplace_back(
          "batched_speedup_vs_per_cell",
          cell->ns_per_op / sizing_batched.ns_per_op);
    }
    if (!bench::sizing_results_identical(per_cell, batched)) {
      std::cerr << "DETERMINISM VIOLATION: batched sizing differs from"
                   " the per-cell walk\n";
      deterministic = false;
    }
  }

  // ---- Sizing ladder lanes: AVX2 vs scalar -----------------------------
  // The 8-cell slice through size_jobs at each forced SIMD level, on one
  // thread: each paper site's group of 8 walks runs four cases to a
  // register on the AVX2 lanes, or one case at a time on the scalar
  // lane. Four weather years keep the site's sky table, which both
  // levels build alike, from dominating the ratio.
  {
    solar::SizingOptions lanes_options = sizing_options;
    lanes_options.years = 4;
    const auto jobs =
        bench::sizing_sweep_cells(consumption, lanes_options, 8);
    exec::set_default_thread_count(1);
    std::vector<std::vector<solar::SizingResult>> scalar_lane;
    vmath::force_simd_level(vmath::SimdLevel::kScalar);
    harness.run(
        "pv_sizing_scalar_lane_8cells", 1,
        [&] { scalar_lane = solar::size_jobs(jobs); }, min_seconds);
    std::vector<std::vector<solar::SizingResult>> simd_lanes;
    vmath::force_simd_level(vmath::SimdLevel::kAvx2);
    auto& lanes = harness.run(
        "pv_sizing_lanes_8cells", 1,
        [&] { simd_lanes = solar::size_jobs(jobs); }, min_seconds);
    vmath::reset_simd_level();
    exec::set_default_thread_count(0);
    if (const auto* scalar = harness.find("pv_sizing_scalar_lane_8cells", 1)) {
      lanes.metrics.emplace_back("lanes_speedup_vs_scalar",
                                 scalar->ns_per_op / lanes.ns_per_op);
    }
    if (!bench::sizing_results_identical(scalar_lane, simd_lanes)) {
      std::cerr << "DETERMINISM VIOLATION: the AVX2 sizing lanes differ from"
                   " the scalar lane\n";
      deterministic = false;
    }
  }

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
