/// \file multi_segment.hpp
/// \brief Whole-corridor (multi-segment) capacity analysis.
///
/// The paper's criterion evaluates one segment between two masts in
/// isolation. In a deployed corridor every position also receives signal
/// from the neighbouring segments' masts and repeaters — and their
/// repeaters' noise. This module builds the full transmitter population
/// of a K-segment corridor and answers two questions the single-segment
/// model cannot:
///   * does the published operating point still hold with neighbours
///     present (boundary effect), and
///   * how do the outer (one-sided) segments compare to inner ones?
#pragma once

#include <vector>

#include "corridor/deployment.hpp"
#include "corridor/geometry.hpp"
#include "rf/link.hpp"
#include "rf/throughput.hpp"

namespace railcorr::corridor {

/// A corridor of identical repeater-aided segments.
struct CorridorDeployment {
  CorridorGeometry geometry;
  RadioParameters radio = RadioParameters::paper_parameters();

  /// Transmitters of the whole corridor: segments+1 masts (each shared by
  /// its neighbours) plus every segment's repeater cluster. Donor
  /// distances are to the nearest mast, as in the single-segment model.
  [[nodiscard]] std::vector<rf::TrackTransmitter> transmitters(
      const rf::NrCarrier& carrier) const;

  /// Convenience: K segments of the given single-segment layout.
  [[nodiscard]] static CorridorDeployment repeat(
      const SegmentDeployment& segment, int segments);
};

/// Per-segment capacity summary within the corridor.
struct SegmentCapacity {
  int segment_index = 0;
  Db min_snr{0.0};
  Db mean_snr_db{0.0};
};

/// Analyses whole corridors.
class MultiSegmentAnalyzer {
 public:
  MultiSegmentAnalyzer(rf::LinkModelConfig link_config,
                       double sample_step_m = 10.0);

  /// Link model over the full corridor.
  [[nodiscard]] rf::CorridorLinkModel link_model(
      const CorridorDeployment& corridor) const;

  /// Min/mean SNR of every segment, evaluated with all neighbours
  /// contributing.
  [[nodiscard]] std::vector<SegmentCapacity> per_segment(
      const CorridorDeployment& corridor) const;

  /// Worst SNR of the whole corridor: the minimum over per_segment()'s
  /// min_snr, bit for bit, without its mean scans.
  [[nodiscard]] Db min_snr(const CorridorDeployment& corridor) const;

  /// Boundary effect on an interior segment: its min SNR in the corridor
  /// minus the min SNR of the same segment in isolation [dB]. Positive
  /// means neighbours help.
  [[nodiscard]] Db interior_boundary_effect(
      const SegmentDeployment& segment, int segments = 5) const;

 private:
  rf::LinkModelConfig link_config_;
  double sample_step_m_;
};

}  // namespace railcorr::corridor
