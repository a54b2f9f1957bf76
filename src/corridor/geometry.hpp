/// \file geometry.hpp
/// \brief Corridor segment geometry: where the high-power masts and the
///        low-power repeater nodes sit.
///
/// A corridor is a repetition of identical segments bounded by two
/// high-power masts an ISD apart. N service repeater nodes are placed as
/// a centred cluster with fixed spacing (paper Table III: 200 m), so the
/// edge gap to each mast is g = (ISD - (N-1) * spacing) / 2. The paper's
/// Fig. 3 example (ISD 2400 m, N = 8 -> nodes at 500..1900 m) follows
/// exactly this rule.
#pragma once

#include <vector>

namespace railcorr::corridor {

/// Geometry of one segment between two high-power masts.
struct SegmentGeometry {
  /// Inter-site distance between the bounding masts [m], > 0.
  double isd_m = 500.0;
  /// Number of low-power service repeater nodes in the segment, >= 0.
  int repeater_count = 0;
  /// Node-to-node spacing within the cluster [m] (paper: 200).
  double repeater_spacing_m = 200.0;

  /// Positions of the service nodes (centred cluster), ascending.
  [[nodiscard]] std::vector<double> repeater_positions() const;

  /// Position of service node `i` (0-based): repeater_positions()[i].
  [[nodiscard]] double repeater_position_m(int i) const;

  /// Edge gap between a mast and the nearest service node [m];
  /// equals isd for repeater_count == 0.
  [[nodiscard]] double edge_gap_m() const;

  /// Distance from the service node at `position_m` to the nearest mast,
  /// i.e. the donor fronthaul link length for that node.
  [[nodiscard]] double donor_distance_m(double position_m) const;

  /// True when the cluster fits between the masts with positive gaps.
  [[nodiscard]] bool valid() const;
};

/// A whole corridor: `segments` identical segments end to end.
struct CorridorGeometry {
  SegmentGeometry segment;
  int segments = 1;

  /// Total corridor length [m].
  [[nodiscard]] double length_m() const;
  /// Positions of all high-power masts (segments + 1 of them).
  [[nodiscard]] std::vector<double> mast_positions() const;
  /// Positions of all service repeater nodes in the corridor.
  [[nodiscard]] std::vector<double> repeater_positions() const;
  /// Masts per kilometre of corridor (amortized, one mast shared by two
  /// adjacent segments -> 1/ISD masts per metre).
  [[nodiscard]] double masts_per_km() const;
  /// Service nodes per kilometre.
  [[nodiscard]] double repeaters_per_km() const;
};

}  // namespace railcorr::corridor
