#include "core/evaluator.hpp"

#include <algorithm>
#include <utility>

#include "exec/parallel.hpp"
#include "traffic/duty.hpp"
#include "util/constants.hpp"
#include "util/contracts.hpp"
#include "util/grid.hpp"

namespace railcorr::core {

PaperEvaluator::PaperEvaluator(Scenario scenario)
    : scenario_(std::move(scenario)) {}

std::vector<Fig3Row> PaperEvaluator::fig3_profile(double isd_m, int repeaters,
                                                  double step_m) const {
  RAILCORR_EXPECTS(isd_m > 0.0);
  RAILCORR_EXPECTS(repeaters >= 0);
  RAILCORR_EXPECTS(step_m > 0.0);

  corridor::SegmentDeployment deployment;
  deployment.geometry.isd_m = isd_m;
  deployment.geometry.repeater_count = repeaters;
  deployment.geometry.repeater_spacing_m = scenario_.repeater_spacing_m;
  deployment.radio = scenario_.radio;
  const rf::CorridorLinkModel link(
      scenario_.link, deployment.transmitters(scenario_.link.carrier));

  std::vector<Fig3Row> rows;
  for (const double d : arange_inclusive(0.0, isd_m, step_m)) {
    Fig3Row row;
    row.position_m = d;
    row.hp_left = link.rsrp_of(0, d);
    row.hp_right = link.rsrp_of(1, d);
    Dbm strongest{-300.0};
    for (std::size_t i = 2; i < link.transmitters().size(); ++i) {
      strongest = std::max(strongest, link.rsrp_of(i, d));
    }
    row.strongest_lp = strongest;
    row.total_signal = link.total_signal(d).to_dbm();
    row.total_noise = link.total_noise(d).to_dbm();
    row.snr = row.total_signal - row.total_noise;
    rows.push_back(row);
  }
  return rows;
}

corridor::IsdSearch PaperEvaluator::isd_search() const {
  corridor::IsdSearchConfig config = scenario_.isd_search;
  config.repeater_spacing_m = scenario_.repeater_spacing_m;
  return corridor::IsdSearch(scenario_.make_analyzer(), config,
                             scenario_.radio);
}

std::vector<corridor::MaxIsdResult> PaperEvaluator::max_isd_sweep() const {
  return isd_search().sweep(1, scenario_.max_repeaters);
}

std::optional<corridor::MaxIsdResult> PaperEvaluator::deepest_feasible()
    const {
  return isd_search().deepest_feasible(1, scenario_.max_repeaters);
}

std::vector<Fig4Entry> PaperEvaluator::fig4_energy(
    corridor::IsdSource source) const {
  std::vector<corridor::MaxIsdResult> sweep;
  if (source == corridor::IsdSource::kModelSearch) sweep = max_isd_sweep();
  return fig4_from_isds(resolve_isds(source, sweep));
}

std::vector<double> PaperEvaluator::resolve_isds(
    corridor::IsdSource source,
    const std::vector<corridor::MaxIsdResult>& sweep) const {
  std::vector<double> isds;
  if (source == corridor::IsdSource::kPaperPublished) {
    isds = corridor::paper_published_max_isds();
    isds.resize(std::min<std::size_t>(
        isds.size(), static_cast<std::size_t>(scenario_.max_repeaters)));
  } else {
    for (const auto& r : sweep) {
      if (r.max_isd_m.has_value()) isds.push_back(*r.max_isd_m);
    }
  }
  return isds;
}

std::vector<Fig4Entry> PaperEvaluator::fig4_from_isds(
    const std::vector<double>& isds) const {
  const auto energy_model = scenario_.make_energy_model();
  const auto baseline = energy_model.conventional_baseline();

  std::vector<Fig4Entry> entries;
  {
    Fig4Entry conventional;
    conventional.repeater_count = 0;
    conventional.isd_m = corridor::kConventionalIsdM;
    const double base = baseline.mains_wh_per_km_hour().value();
    conventional.continuous_wh_km_h = base;
    conventional.sleep_wh_km_h = base;
    conventional.solar_wh_km_h = base;
    entries.push_back(conventional);
  }

  for (std::size_t i = 0; i < isds.size(); ++i) {
    const int n = static_cast<int>(i) + 1;
    corridor::SegmentGeometry geometry;
    geometry.isd_m = isds[i];
    geometry.repeater_count = n;
    geometry.repeater_spacing_m = scenario_.repeater_spacing_m;
    Fig4Entry e;
    e.repeater_count = n;
    e.isd_m = isds[i];
    const auto continuous = energy_model.evaluate(
        geometry, corridor::RepeaterOperationMode::kContinuous);
    const auto sleep = energy_model.evaluate(
        geometry, corridor::RepeaterOperationMode::kSleepMode);
    const auto solar = energy_model.evaluate(
        geometry, corridor::RepeaterOperationMode::kSolarPowered);
    e.continuous_wh_km_h = continuous.mains_wh_per_km_hour().value();
    e.sleep_wh_km_h = sleep.mains_wh_per_km_hour().value();
    e.solar_wh_km_h = solar.mains_wh_per_km_hour().value();
    e.continuous_savings = continuous.savings_vs(baseline);
    e.sleep_savings = sleep.savings_vs(baseline);
    e.solar_savings = solar.savings_vs(baseline);
    entries.push_back(e);
  }
  return entries;
}

TrafficDerived PaperEvaluator::traffic_derived() const {
  TrafficDerived d;
  const auto& tt = scenario_.timetable;
  const double max_isd = corridor::paper_published_max_isds().back();
  d.full_load_s_at_conventional =
      tt.train.occupancy_seconds(corridor::kConventionalIsdM);
  d.full_load_s_at_max_isd = tt.train.occupancy_seconds(max_isd);
  d.duty_at_conventional =
      traffic::full_load_fraction(tt, corridor::kConventionalIsdM);
  d.duty_at_max_isd = traffic::full_load_fraction(tt, max_isd);

  const Watts avg = traffic::average_unit_power(
      scenario_.energy.lp_node, tt, scenario_.repeater_spacing_m,
      /*sleep_when_idle=*/true);
  d.lp_sleep_mode_avg_w = avg.value();
  d.lp_sleep_mode_wh_day = avg.value() * constants::kHoursPerDay;
  return d;
}

std::vector<solar::SizingResult> PaperEvaluator::table4_sizing() const {
  // Locations and ladder come from the scenario (spec keys
  // sizing.locations / sizing.ladder); the defaults are the paper's
  // four sites and Table IV ladder.
  return solar::size_locations(scenario_.sizing_locations,
                               scenario_.repeater_consumption_profile(),
                               scenario_.sizing, scenario_.sizing_ladder);
}

PaperResults PaperEvaluator::run_all(corridor::IsdSource source,
                                     bool include_fig3) const {
  PaperResults results;
  // The heavy experiments are independent; run them as one task batch.
  // Each writes only its own member, so the aggregate is identical to
  // the sequential evaluation at any thread count. Each task's inner
  // loops run inline on its own thread, the sweep (task 0, on the
  // caller) included: a paper-scenario search takes ~2 ms on one
  // thread, far less than the Table IV sizing task running beside it.
  const std::size_t tasks = include_fig3 ? 4 : 3;
  exec::parallel_for(tasks, [&](std::size_t task) {
    switch (task) {
      case 0:
        results.max_isd = max_isd_sweep();
        break;
      case 1:
        results.traffic = traffic_derived();
        break;
      case 2:
        results.table4 = table4_sizing();
        break;
      default:
        results.fig3 = fig3_profile();
        break;
    }
  });
  // Fig. 4 reuses the sweep's ISDs (cheap energy arithmetic on top).
  results.fig4 = fig4_from_isds(resolve_isds(source, results.max_isd));
  return results;
}

}  // namespace railcorr::core
