/// \file evaluator.hpp
/// \brief One-call reproduction of the paper's evaluation section: each
///        method regenerates one table or figure from a Scenario.
#pragma once

#include <optional>
#include <vector>

#include "core/scenario.hpp"
#include "corridor/planner.hpp"
#include "rf/link.hpp"
#include "solar/sizing.hpp"

namespace railcorr::core {

/// One row of Fig. 3's series: signal/noise levels at a track position.
struct Fig3Row {
  double position_m = 0.0;
  Dbm hp_left{0.0};
  Dbm hp_right{0.0};
  /// Strongest single repeater contribution at this position.
  Dbm strongest_lp{0.0};
  Dbm total_signal{0.0};
  Dbm total_noise{0.0};
  Db snr{0.0};
};

/// One bar group of Fig. 4.
struct Fig4Entry {
  /// 0 = conventional baseline.
  int repeater_count = 0;
  double isd_m = 0.0;
  /// Wh per km and hour, per operating regime.
  double continuous_wh_km_h = 0.0;
  double sleep_wh_km_h = 0.0;
  double solar_wh_km_h = 0.0;
  /// Savings vs the baseline, per regime (0 for the baseline row).
  double continuous_savings = 0.0;
  double sleep_savings = 0.0;
  double solar_savings = 0.0;
};

/// Derived Table III quantities (the paper's text around it).
struct TrafficDerived {
  double full_load_s_at_conventional = 0.0;  ///< ~16 s (500 m)
  double full_load_s_at_max_isd = 0.0;       ///< ~55 s (2650 m)
  double duty_at_conventional = 0.0;         ///< ~2.85 %
  double duty_at_max_isd = 0.0;              ///< ~9.66 %
  double lp_sleep_mode_avg_w = 0.0;          ///< ~5.17 W
  double lp_sleep_mode_wh_day = 0.0;         ///< ~124.1 Wh
};

/// Every table/figure of the paper's evaluation in one aggregate, as
/// produced by PaperEvaluator::run_all().
struct PaperResults {
  std::vector<Fig3Row> fig3;
  std::vector<corridor::MaxIsdResult> max_isd;
  std::vector<Fig4Entry> fig4;
  TrafficDerived traffic;
  std::vector<solar::SizingResult> table4;
};

/// Reproduces every experiment of the paper from one Scenario.
class PaperEvaluator {
 public:
  explicit PaperEvaluator(Scenario scenario = Scenario::paper());

  /// E1 / Fig. 3: signal & noise profile for the given deployment
  /// (defaults: ISD 2400 m, N = 8, 10 m sampling).
  [[nodiscard]] std::vector<Fig3Row> fig3_profile(double isd_m = 2400.0,
                                                  int repeaters = 8,
                                                  double step_m = 10.0) const;

  /// E2: max-ISD sweep, N = 1..max_repeaters (model-derived).
  [[nodiscard]] std::vector<corridor::MaxIsdResult> max_isd_sweep() const;

  /// The deepest deployment of max_isd_sweep(): its last entry with a
  /// max ISD, or none, searched top-down without the rest of the sweep
  /// (corridor::IsdSearch::deepest_feasible).
  [[nodiscard]] std::optional<corridor::MaxIsdResult> deepest_feasible() const;

  /// E3 / Fig. 4: energy bars. `source` selects model-derived or
  /// paper-published max ISDs per N.
  [[nodiscard]] std::vector<Fig4Entry> fig4_energy(
      corridor::IsdSource source = corridor::IsdSource::kModelSearch) const;

  /// E6: Table III derived quantities.
  [[nodiscard]] TrafficDerived traffic_derived() const;

  /// E7 / Table IV: off-grid PV sizing for the four regions.
  [[nodiscard]] std::vector<solar::SizingResult> table4_sizing() const;

  /// Run the full evaluation. The independent experiments (Fig. 3
  /// profile, max-ISD sweep, traffic quantities, PV sizing) execute as
  /// parallel tasks on the shared engine; Fig. 4 reuses the sweep's
  /// ISDs instead of re-searching. Results are identical to calling
  /// each method sequentially. Callers that do not consume the Fig. 3
  /// series (e.g. the table-only report) pass `include_fig3 = false`
  /// to skip that experiment; `PaperResults::fig3` is then empty.
  [[nodiscard]] PaperResults run_all(
      corridor::IsdSource source = corridor::IsdSource::kModelSearch,
      bool include_fig3 = true) const;

  [[nodiscard]] const Scenario& scenario() const { return scenario_; }

 private:
  /// Fig. 4 energy bars for the given per-N max ISDs (isds[i] = N i+1).
  [[nodiscard]] std::vector<Fig4Entry> fig4_from_isds(
      const std::vector<double>& isds) const;

  /// The max-ISD search over the scenario's link, radio and search
  /// settings.
  [[nodiscard]] corridor::IsdSearch isd_search() const;

  /// Max ISD per N for Fig. 4: the paper's published list (truncated to
  /// max_repeaters) or the ISDs found by `sweep`.
  [[nodiscard]] std::vector<double> resolve_isds(
      corridor::IsdSource source,
      const std::vector<corridor::MaxIsdResult>& sweep) const;

  Scenario scenario_;
};

}  // namespace railcorr::core
