/// \file battery.hpp
/// \brief Battery storage with charge/discharge efficiency and a
///        discharge cutoff (the paper's PVGIS runs use 720/1440 Wh with a
///        40 % cutoff limit).
#pragma once

#include "util/units.hpp"

namespace railcorr::solar {

/// A simple energy-reservoir battery model.
class Battery {
 public:
  /// Default round-trip efficiencies, shared with the off-grid kernel
  /// simulate_cases (solar/offgrid.hpp) so both run the exact same
  /// arithmetic.
  static constexpr double kDefaultChargeEfficiency = 0.95;
  static constexpr double kDefaultDischargeEfficiency = 0.95;

  /// \param capacity_wh      nameplate capacity [Wh], > 0
  /// \param cutoff_fraction  discharge cutoff as a fraction of capacity in
  ///                         [0, 1): state of charge never drops below it
  /// \param charge_efficiency    energy retained when charging, in (0, 1]
  /// \param discharge_efficiency energy delivered per stored energy, (0, 1]
  Battery(double capacity_wh, double cutoff_fraction = 0.4,
          double charge_efficiency = kDefaultChargeEfficiency,
          double discharge_efficiency = kDefaultDischargeEfficiency);

  /// Current state of charge [Wh]; starts full.
  [[nodiscard]] WattHours state_of_charge() const { return soc_; }
  /// SoC as a fraction of capacity.
  [[nodiscard]] double soc_fraction() const;
  [[nodiscard]] double capacity_wh() const { return capacity_wh_; }
  [[nodiscard]] double cutoff_fraction() const { return cutoff_fraction_; }
  /// Usable energy above the cutoff [Wh].
  [[nodiscard]] WattHours usable_energy() const;
  [[nodiscard]] bool is_full() const;
  [[nodiscard]] bool at_cutoff() const;

  /// Charge with `energy` (>= 0); returns the surplus that did not fit
  /// (after efficiency).
  WattHours charge(WattHours energy);

  /// Try to deliver `energy` (>= 0) to the load; returns the energy
  /// actually delivered (may be less when hitting the cutoff).
  WattHours discharge(WattHours energy);

  /// Reset to full.
  void reset();

 private:
  double capacity_wh_;
  double cutoff_fraction_;
  double charge_efficiency_;
  double discharge_efficiency_;
  WattHours soc_;
};

}  // namespace railcorr::solar
