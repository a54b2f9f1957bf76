/// Robustness Monte-Carlo benchmark: the batched SoA shadowing
/// regeneration (Rng::normal_batch + ShadowingTrace::resample_from)
/// against the historical per-draw scalar path, the full
/// RobustnessAnalyzer::study workload, and the batched AR(1) irradiance
/// synthesis — and verifies, in the same run, that the batched draws
/// are bit-identical between the scalar and AVX2 lanes, and that the
/// robustness study is byte-identical at every thread count and SIMD
/// level.
///
/// Usage: bench_robustness_mc [--json=PATH] [--min-seconds=S]
///          [--baseline=PATH] [--baseline-tolerance=F] [--check-abs-times]
///
/// With --baseline, speedup metrics are gated against recorded floors
/// (bench/baselines/robustness_mc.json). Exit status: 0 ok, 1
/// determinism-contract violation, 2 usage error, 3 perf regression
/// against the baseline.
#include <cmath>
#include <cstddef>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "baseline_gate.hpp"
#include "bench_harness.hpp"
#include "corridor/deployment.hpp"
#include "corridor/robustness.hpp"
#include "exec/parallel.hpp"
#include "rf/fading.hpp"
#include "rf/link.hpp"
#include "solar/irradiance.hpp"
#include "solar/locations.hpp"
#include "util/rng.hpp"
#include "util/vmath.hpp"

namespace {

using namespace railcorr;

/// Attach `speedup_key = reference.ns_per_op / result.ns_per_op`.
void add_speedup(bench::BenchHarness& harness, bench::BenchResult& result,
                 const std::string& reference, const char* key) {
  if (const auto* base = harness.find(reference, 1)) {
    result.metrics.emplace_back(key, base->ns_per_op / result.ns_per_op);
  }
}

/// The pre-batching per-draw regeneration: one Rng::normal round-trip
/// per grid sample through the cached-pair Box-Muller path. Kept here
/// as the reference workload the recorded speedup floor is against.
void regen_per_call(std::vector<double>& values, double sigma_db,
                    double d_corr_m, double step_m, Rng& rng) {
  const double rho = std::exp(-step_m / d_corr_m);
  const double innovation = sigma_db * std::sqrt(1.0 - rho * rho);
  values[0] = rng.normal(0.0, sigma_db);
  for (std::size_t k = 1; k < values.size(); ++k) {
    values[k] = rho * values[k - 1] + rng.normal(0.0, innovation);
  }
}

bool reports_identical(const corridor::RobustnessReport& a,
                       const corridor::RobustnessReport& b) {
  return a.min_snr_db.mean() == b.min_snr_db.mean() &&
         a.min_snr_db.min() == b.min_snr_db.min() &&
         a.min_snr_db.max() == b.min_snr_db.max() &&
         a.pass_probability == b.pass_probability &&
         a.outage_fraction == b.outage_fraction &&
         a.mean_margin_db == b.mean_margin_db;
}

bool years_identical(const std::vector<solar::DailyIrradiance>& a,
                     const std::vector<solar::DailyIrradiance>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t d = 0; d < a.size(); ++d) {
    if (a[d].clearness != b[d].clearness) return false;
    for (int h = 0; h < 24; ++h) {
      const auto hh = static_cast<std::size_t>(h);
      if (a[d].ghi_wh_m2[hh] != b[d].ghi_wh_m2[hh]) return false;
      if (a[d].poa_wh_m2[hh] != b[d].poa_wh_m2[hh]) return false;
    }
  }
  return true;
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
                << " (usage: bench_robustness_mc [--json=PATH]"
                   " [--min-seconds=S] [--baseline=PATH]"
                   " [--baseline-tolerance=F] [--check-abs-times])\n";
      return 2;
    }
  }

  bench::BenchHarness harness("robustness_mc");
  harness.add_context(
      "simd", std::string(vmath::simd_level_name(vmath::active_simd_level())));
  bool contract_ok = true;
  const auto violate = [&](const std::string& what) {
    std::cerr << "DETERMINISM CONTRACT VIOLATION: " << what << '\n';
    contract_ok = false;
  };

  // ---- SoA shadowing regeneration: per-draw vs batched -----------------
  // One long trace per "realization": 50 km at 1 m sampling, the shape
  // of the robust_max_isd inner loop scaled up so the draw path
  // dominates the AR(1) recursion it feeds.
  constexpr double kSigmaDb = 4.0;
  constexpr double kDecorrM = 50.0;
  constexpr double kStepM = 1.0;
  constexpr double kLengthM = 50000.0;
  const std::size_t samples = rf::ShadowingTrace::sample_count(kLengthM, kStepM);
  std::vector<double> per_call_values(samples);
  double sink = 0.0;
  {
    Rng rng(0x5EED);
    harness.run(
        "shadow_regen_per_call_50k", 1,
        [&] {
          regen_per_call(per_call_values, kSigmaDb, kDecorrM, kStepM, rng);
          sink += per_call_values.back();
        },
        min_seconds);
  }
  {
    Rng rng(0x5EED);
    rf::ShadowingTrace trace(kSigmaDb, kDecorrM, kStepM, kLengthM, rng);
    auto& batched = harness.run(
        "shadow_regen_batched_50k", 1,
        [&] {
          trace.resample(rng);
          sink += trace.at(kLengthM).value();
        },
        min_seconds);
    add_speedup(harness, batched, "shadow_regen_per_call_50k",
                "batched_speedup_vs_scalar_draws");
  }

  // In-run lane equivalence: the batched draws behind the regeneration
  // must be bit-identical between the scalar reference lane and
  // whatever lane the dispatch picked above.
  {
    std::vector<double> scalar_lane(4099);
    std::vector<double> active_lane(4099);
    vmath::force_simd_level(vmath::SimdLevel::kScalar);
    Rng a(0xD1CE);
    a.normal_batch(scalar_lane);
    vmath::reset_simd_level();
    Rng b(0xD1CE);
    b.normal_batch(active_lane);
    for (std::size_t i = 0; i < scalar_lane.size(); ++i) {
      if (scalar_lane[i] != active_lane[i]) {
        violate("normal_batch lanes disagree at index " + std::to_string(i));
        break;
      }
    }
  }

  // ---- full robustness study -------------------------------------------
  const auto deployment = corridor::SegmentDeployment::with_repeaters(2400.0, 8);
  rf::LinkModelConfig link_config;
  corridor::RobustnessConfig config;
  config.realizations = 100;
  const corridor::RobustnessAnalyzer analyzer(link_config, config);
  corridor::RobustnessReport report;
  harness.run(
      "robustness_study_100r", 1, [&] { report = analyzer.study(deployment); },
      min_seconds);

  // Byte-identical at every thread count...
  const auto saved_threads = exec::default_thread_count();
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}}) {
    exec::set_default_thread_count(threads);
    const auto probe = analyzer.study(deployment);
    if (!reports_identical(report, probe)) {
      violate("robustness study differs at thread count " +
              std::to_string(threads));
    }
  }
  exec::set_default_thread_count(saved_threads);

  // ...and at every SIMD level.
  for (const vmath::SimdLevel level :
       {vmath::SimdLevel::kScalar, vmath::SimdLevel::kAvx2}) {
    vmath::force_simd_level(level);
    const auto probe = analyzer.study(deployment);
    if (!reports_identical(report, probe)) {
      violate(std::string("robustness study differs at SIMD level ") +
              std::string(vmath::simd_level_name(level)));
    }
  }
  vmath::reset_simd_level();

  // ---- irradiance synthesis (batched AR(1) weather) --------------------
  const solar::IrradianceSynthesizer synth(solar::madrid(),
                                           solar::PlaneOfArray{});
  {
    Rng rng(0xA11CE);
    std::vector<solar::DailyIrradiance> year;
    harness.run(
        "irradiance_year_madrid", 1,
        [&] {
          year = synth.synthesize_year(rng);
          sink += year.back().daily_poa_wh_m2();
        },
        min_seconds);
  }
  // Same seed, same year, at both SIMD levels.
  {
    vmath::force_simd_level(vmath::SimdLevel::kScalar);
    Rng a(0xFACADE);
    const auto year_scalar = synth.synthesize_year(a);
    vmath::force_simd_level(vmath::SimdLevel::kAvx2);
    Rng b(0xFACADE);
    const auto year_simd = synth.synthesize_year(b);
    vmath::reset_simd_level();
    if (!years_identical(year_scalar, year_simd)) {
      violate("irradiance synthesis differs between SIMD levels");
    }
  }

  if (sink == 42.0) std::cerr << "";  // keep the workloads observable

  harness.write_json(std::cout);
  if (json_path && !harness.write_json_file(*json_path)) {
    std::cerr << "failed to write " << *json_path << '\n';
    return 2;
  }
  if (!contract_ok) return 1;

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
