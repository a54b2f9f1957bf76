/// Plan a real corridor: given a line length and service pattern, choose
/// the repeater count / ISD, lay out every mast and node position, check
/// capacity, and report the yearly energy bill vs the conventional build.
///
///   $ ./corridor_planner [line_km] [trains_per_hour]
///
/// Defaults: 60 km line (roughly a Zurich-Bern class segment), paper
/// traffic (8 trains/h).
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iostream>

#include "core/railcorr.hpp"

int main(int argc, char** argv) {
  using namespace railcorr;

  const double line_km = argc > 1 ? std::atof(argv[1]) : 60.0;
  const double trains_per_hour = argc > 2 ? std::atof(argv[2]) : 8.0;
  if (line_km <= 0.0 || trains_per_hour <= 0.0) {
    std::cerr << "usage: corridor_planner [line_km > 0] [trains_per_hour > 0]\n";
    return 1;
  }

  core::Scenario scenario = core::Scenario::paper();
  scenario.timetable.trains_per_hour = trains_per_hour;

  const corridor::CorridorPlanner planner(
      scenario.make_analyzer(), scenario.make_energy_model(),
      scenario.isd_search);
  const auto plan = planner.plan(corridor::RepeaterOperationMode::kSleepMode);
  const auto& best = plan.best();

  std::cout << "=== corridor plan: " << line_km << " km line, "
            << trains_per_hour << " trains/h ===\n\n";

  TextTable options("evaluated options (sleep-mode repeaters)");
  options.set_header({"N", "ISD [m]", "min SNR [dB]", "Wh/km/h", "savings"});
  for (const auto& o : plan.options) {
    options.add_row({std::to_string(o.repeater_count),
                     TextTable::num(o.isd_m, 0),
                     TextTable::num(o.min_snr.value(), 2),
                     TextTable::num(o.energy.total_mains_per_km().value(), 1),
                     TextTable::num(100.0 * o.savings, 1) + " %"});
  }
  std::cout << options << '\n';

  // Materialize the chosen deployment on the line.
  corridor::CorridorGeometry line;
  line.segment.isd_m = best.isd_m;
  line.segment.repeater_count = best.repeater_count;
  line.segments =
      static_cast<int>(std::max(1.0, line_km * 1000.0 / best.isd_m));
  const auto masts = line.mast_positions();
  const auto repeaters = line.repeater_positions();

  std::cout << "chosen: N = " << best.repeater_count << " repeaters per "
            << TextTable::num(best.isd_m, 0) << " m segment\n"
            << "  " << masts.size() << " HP masts, " << repeaters.size()
            << " service repeater nodes over "
            << TextTable::num(line.length_m() / 1000.0, 1) << " km\n";
  const int conventional_masts =
      static_cast<int>(line_km * 1000.0 / corridor::kConventionalIsdM) + 1;
  std::cout << "  conventional build would need " << conventional_masts
            << " HP masts\n\n";

  const double plan_kwh_year =
      best.energy.total_mains_per_km().value() * line_km * 24.0 * 365.0 / 1000.0;
  const double base_kwh_year = plan.baseline.total_mains_per_km().value() *
                               line_km * 24.0 * 365.0 / 1000.0;
  std::cout << "yearly mains energy: "
            << TextTable::num(plan_kwh_year / 1000.0, 1) << " MWh vs "
            << TextTable::num(base_kwh_year / 1000.0, 1)
            << " MWh conventional ("
            << TextTable::num(100.0 * best.savings, 1) << " % saved)\n";

  // Sanity: capacity holds everywhere on the planned segment.
  const auto analyzer = scenario.make_analyzer();
  const auto deployment = corridor::SegmentDeployment::with_repeaters(
      best.isd_m, best.repeater_count);
  const auto summary = analyzer.summarize(deployment);
  const bool criterion_met =
      summary.min_snr >= scenario.isd_search.snr_threshold;
  std::cout << "capacity check: min SNR "
            << TextTable::num(summary.min_snr.value(), 2) << " dB, min "
            << TextTable::num(summary.min_throughput_bps / 1e6, 0)
            << " Mbps -> paper criterion (SNR > 29 dB) "
            << (criterion_met ? "met everywhere" : "NOT met") << '\n';
  return 0;
}
