#include "corridor/energy.hpp"

#include "corridor/isd_search.hpp"
#include "traffic/duty.hpp"
#include "util/contracts.hpp"

namespace railcorr::corridor {

const char* to_string(RepeaterOperationMode mode) {
  switch (mode) {
    case RepeaterOperationMode::kContinuous:
      return "continuous";
    case RepeaterOperationMode::kSleepMode:
      return "sleep-mode";
    case RepeaterOperationMode::kSolarPowered:
      return "solar-powered";
  }
  return "?";
}

int donor_count_for(int service_nodes) {
  RAILCORR_EXPECTS(service_nodes >= 0);
  if (service_nodes == 0) return 0;
  return service_nodes == 1 ? 1 : 2;
}

CorridorEnergyModel::CorridorEnergyModel(EnergyConfig config,
                                         traffic::TimetableConfig timetable)
    : config_(config), timetable_(timetable) {
  RAILCORR_EXPECTS(config_.rrhs_per_mast >= 1);
}

Watts CorridorEnergyModel::hp_mast_average_power(double isd_m) const {
  const double f = traffic::full_load_fraction(timetable_, isd_m);
  return config_.hp_rrh.average_power(f, config_.hp_sleep_when_idle) *
         static_cast<double>(config_.rrhs_per_mast);
}

Watts CorridorEnergyModel::lp_service_average_power(
    double spacing_m, RepeaterOperationMode mode) const {
  const double f = traffic::full_load_fraction(timetable_, spacing_m);
  const bool sleeps = mode != RepeaterOperationMode::kContinuous;
  return config_.lp_node.average_power(f, sleeps);
}

Watts CorridorEnergyModel::lp_donor_average_power(
    int nodes_served, double spacing_m, RepeaterOperationMode mode) const {
  RAILCORR_EXPECTS(nodes_served >= 1);
  // The donor's active window spans the union of its served nodes'
  // sections: nodes_served x spacing metres of track.
  const double window_m = spacing_m * static_cast<double>(nodes_served);
  const double f = traffic::full_load_fraction(timetable_, window_m);
  const bool sleeps = mode != RepeaterOperationMode::kContinuous;
  return config_.lp_node.average_power(f, sleeps);
}

SegmentEnergyBreakdown CorridorEnergyModel::evaluate(
    const SegmentGeometry& geometry, RepeaterOperationMode mode) const {
  RAILCORR_EXPECTS(geometry.valid());
  SegmentEnergyBreakdown b;
  b.isd_m = geometry.isd_m;
  b.repeater_count = geometry.repeater_count;
  b.mode = mode;
  b.hp_full_load_fraction =
      traffic::full_load_fraction(timetable_, geometry.isd_m);

  const double masts_per_km = 1000.0 / geometry.isd_m;
  b.hp_mains_per_km = hp_mast_average_power(geometry.isd_m) * masts_per_km;

  const int n = geometry.repeater_count;
  if (n == 0) return b;

  const double spacing = geometry.repeater_spacing_m;
  const double per_km_scale = 1000.0 / geometry.isd_m;

  const Watts service_each = lp_service_average_power(spacing, mode);
  const Watts service_total = service_each * static_cast<double>(n) * per_km_scale;

  // Donors: one for N = 1; otherwise two, serving the half-clusters.
  Watts donor_total{0.0};
  const int donors = donor_count_for(n);
  if (donors == 1) {
    donor_total = lp_donor_average_power(n, spacing, mode) * per_km_scale;
  } else {
    const int left_nodes = (n + 1) / 2;
    const int right_nodes = n - left_nodes;
    donor_total = (lp_donor_average_power(left_nodes, spacing, mode) +
                   lp_donor_average_power(right_nodes, spacing, mode)) *
                  per_km_scale;
  }

  if (mode == RepeaterOperationMode::kSolarPowered) {
    b.lp_offgrid_per_km = service_total + donor_total;
  } else {
    b.lp_service_mains_per_km = service_total;
    b.lp_donor_mains_per_km = donor_total;
  }
  return b;
}

SegmentEnergyBreakdown CorridorEnergyModel::conventional_baseline() const {
  SegmentGeometry conventional;
  conventional.isd_m = kConventionalIsdM;
  conventional.repeater_count = 0;
  return evaluate(conventional, RepeaterOperationMode::kContinuous);
}

double SegmentEnergyBreakdown::savings_vs(
    const SegmentEnergyBreakdown& baseline) const {
  RAILCORR_EXPECTS(baseline.total_mains_per_km().value() > 0.0);
  return 1.0 - total_mains_per_km() / baseline.total_mains_per_km();
}

}  // namespace railcorr::corridor
