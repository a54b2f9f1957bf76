/// \file deployment.hpp
/// \brief Radio parameters of a corridor deployment and conversion of a
///        segment into the RF link model's transmitter list.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "corridor/geometry.hpp"
#include "rf/carrier.hpp"
#include "rf/link.hpp"
#include "util/units.hpp"

namespace railcorr::corridor {

/// Radio-side parameters shared by all nodes of a deployment.
struct RadioParameters {
  /// High-power RRH EIRP (paper: 64 dBm = 2500 W).
  Dbm hp_eirp{64.0};
  /// Low-power repeater EIRP (paper: 40 dBm = 10 W).
  Dbm lp_eirp{40.0};
  /// Port-to-port calibration loss for HP sites (paper: 33 dB).
  Db hp_calibration{33.0};
  /// Port-to-port calibration loss for LP nodes (paper: 20 dB).
  Db lp_calibration{20.0};

  [[nodiscard]] static RadioParameters paper_parameters() {
    return RadioParameters{};
  }
};

/// A complete description of one corridor segment's radio deployment.
struct SegmentDeployment {
  SegmentGeometry geometry;
  RadioParameters radio = RadioParameters::paper_parameters();

  /// The conventional baseline: HP masts every 500 m, no repeaters.
  [[nodiscard]] static SegmentDeployment conventional_baseline();

  /// A repeater-aided segment with the given ISD and node count.
  [[nodiscard]] static SegmentDeployment with_repeaters(double isd_m,
                                                        int repeater_count);

  /// Build the transmitter list for the RF link model: the two bounding
  /// HP masts plus the service repeater nodes, each annotated with its
  /// donor fronthaul distance (to the nearest mast).
  [[nodiscard]] std::vector<rf::TrackTransmitter> transmitters(
      const rf::NrCarrier& carrier) const;
};

/// The downlink transmitter table of one radio configuration, filled one
/// transmitter at a time: the soa() a CorridorLinkModel of the same
/// transmitters in the same order builds, bit for bit, since it runs the
/// same rf::tx_gains, rf::place_tx and rf::soa_noise_gain. The mast and
/// repeater gains are computed once. A repeater's noise gain (a log10 in
/// the fronthaul SNR and a pow back to linear) is computed once per
/// distinct donor distance, keyed by the distance's exact bits: no
/// max-ISD walk of the `radio_distinct_fleet` plan meets more than 72
/// distances, and the 256 walks' 41,224 layouts place 287,880
/// repeaters. Without the memo, refilling was ~63 % of the search.
class TxTable {
 public:
  /// Slots of the noise-gain memo. It stores up to half as many
  /// distances; later distinct ones are computed each time.
  static constexpr std::size_t kMemoSlots = 256;

  /// `link` must outlive the table.
  TxTable(const rf::LinkModelConfig& link, const RadioParameters& radio);

  /// Drops every transmitter; the memo and the capacity stay.
  void clear();
  /// Appends a high-power mast at `position_m`.
  void add_mast(double position_m);
  /// Appends a repeater at `position_m` fed over a `donor_distance_m`
  /// (>= 0) donor link.
  void add_repeater(double position_m, double donor_distance_m);

  [[nodiscard]] const rf::DownlinkTxSoA& soa() const { return soa_; }

 private:
  [[nodiscard]] double repeater_noise_gain(double donor_distance_m);
  void add(double position_m, double signal_gain_lin, double noise_gain_lin);

  const rf::LinkModelConfig& link_;
  rf::TxKernel mast_;
  rf::TxKernel repeater_;
  double mast_noise_gain_ = 0.0;
  /// Open-addressing memo of repeater noise gains by donor-distance
  /// bits, at most half full.
  std::array<std::uint64_t, kMemoSlots> memo_keys_;
  std::array<double, kMemoSlots> memo_gains_{};
  std::size_t memo_size_ = 0;
  rf::DownlinkTxSoA soa_;
};

}  // namespace railcorr::corridor
