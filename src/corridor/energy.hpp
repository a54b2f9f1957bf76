/// \file energy.hpp
/// \brief The paper's §V-A energy evaluation (Fig. 4): average energy per
///        corridor-kilometre for the conventional deployment and for
///        repeater-aided deployments under three operating regimes.
///
/// Accounting rules (all from §V-A):
///  * A high-power mast (two RRHs, 560/336/224 W) is at full load while a
///    train overlaps its ISD-long coverage section — (ISD + train)/v per
///    train — and sleeps otherwise ("power-saving functions when there is
///    no data traffic" apply to the baseline too).
///  * A service repeater node covers one spacing-length section (200 m).
///  * Donor nodes: one for a single service node, two for two or more.
///    A donor is active whenever any of its served nodes is active.
///  * Continuous regime: repeaters never sleep (no-load power when idle).
///  * Sleep regime: repeaters sleep between trains (4.72 W).
///  * Solar regime: repeaters draw no mains power at all; only the HP
///    masts remain grid-connected.
#pragma once

#include "corridor/geometry.hpp"
#include "power/earth_model.hpp"
#include "traffic/timetable.hpp"
#include "util/units.hpp"

namespace railcorr::corridor {

/// How the low-power repeater nodes are operated / powered.
enum class RepeaterOperationMode {
  kContinuous,    ///< always powered; no-load power between trains
  kSleepMode,     ///< sleep between trains (wake on detection)
  kSolarPowered,  ///< sleep mode + off-grid PV supply (zero mains draw)
};

const char* to_string(RepeaterOperationMode mode);

/// Donor-node count rule from §V-A.
int donor_count_for(int service_nodes);

/// The power models and accounting rules of the energy model. The
/// timetable that drives every duty cycle is the model's other
/// constructor argument.
struct EnergyConfig {
  power::EarthPowerModel hp_rrh = power::EarthPowerModel::paper_high_power_rrh();
  int rrhs_per_mast = 2;
  power::EarthPowerModel lp_node = power::EarthPowerModel::paper_low_power_repeater();
  /// Baseline HP masts also sleep between trains (paper's assumption).
  bool hp_sleep_when_idle = true;

  [[nodiscard]] static EnergyConfig paper_config() { return EnergyConfig{}; }
};

/// Average-power breakdown of one segment configuration, normalized
/// per corridor kilometre.
struct SegmentEnergyBreakdown {
  double isd_m = 0.0;
  int repeater_count = 0;
  RepeaterOperationMode mode = RepeaterOperationMode::kContinuous;

  /// Fraction of the day the HP masts run at full load.
  double hp_full_load_fraction = 0.0;
  /// Mains power drawn by HP masts per km.
  Watts hp_mains_per_km{0.0};
  /// Mains power drawn by LP service nodes per km (zero in solar mode).
  Watts lp_service_mains_per_km{0.0};
  /// Mains power drawn by LP donor nodes per km (zero in solar mode).
  Watts lp_donor_mains_per_km{0.0};
  /// Off-grid (PV-supplied) power of all LP nodes per km; informational.
  Watts lp_offgrid_per_km{0.0};

  /// Total mains power per km.
  [[nodiscard]] Watts total_mains_per_km() const {
    return hp_mains_per_km + lp_service_mains_per_km + lp_donor_mains_per_km;
  }
  /// Average mains energy per km and hour (Fig. 4's y-axis).
  [[nodiscard]] WattHours mains_wh_per_km_hour() const {
    return WattHours(total_mains_per_km().value());
  }
  /// Mains energy per km and day.
  [[nodiscard]] WattHours mains_wh_per_km_day() const {
    return mains_wh_per_km_hour() * 24.0;
  }
  /// Relative saving vs a baseline breakdown (1 - this/baseline).
  [[nodiscard]] double savings_vs(const SegmentEnergyBreakdown& baseline) const;
};

/// Computes Fig. 4's bars: the power models of `config` at the duty
/// cycles `timetable` sets.
class CorridorEnergyModel {
 public:
  explicit CorridorEnergyModel(
      EnergyConfig config = EnergyConfig::paper_config(),
      traffic::TimetableConfig timetable =
          traffic::TimetableConfig::paper_timetable());

  /// Average power of one HP mast covering an ISD-long section.
  [[nodiscard]] Watts hp_mast_average_power(double isd_m) const;

  /// Average power of one LP service node covering one spacing section.
  [[nodiscard]] Watts lp_service_average_power(double spacing_m,
                                               RepeaterOperationMode mode) const;

  /// Average power of one donor node serving `nodes_served` service nodes
  /// (active window = the union of their sections).
  [[nodiscard]] Watts lp_donor_average_power(int nodes_served,
                                             double spacing_m,
                                             RepeaterOperationMode mode) const;

  /// Full per-km breakdown for a segment geometry and operating mode.
  [[nodiscard]] SegmentEnergyBreakdown evaluate(
      const SegmentGeometry& geometry, RepeaterOperationMode mode) const;

  /// The conventional 500 m HP-only corridor (Fig. 4's leftmost bar).
  [[nodiscard]] SegmentEnergyBreakdown conventional_baseline() const;

  [[nodiscard]] const EnergyConfig& config() const { return config_; }

 private:
  EnergyConfig config_;
  traffic::TimetableConfig timetable_;
};

}  // namespace railcorr::corridor
