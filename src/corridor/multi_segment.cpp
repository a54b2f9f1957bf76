#include "corridor/multi_segment.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "exec/parallel.hpp"
#include "obs/metrics.hpp"
#include "util/contracts.hpp"

namespace railcorr::corridor {

namespace {

/// Track span [lo, hi] of segment `s` in a corridor of `isd_m` segments.
std::pair<double, double> segment_span(double isd_m, std::size_t s) {
  const double lo = isd_m * static_cast<double>(s);
  return {lo, lo + isd_m};
}

/// Donor distance of a repeater at corridor position `p`: to the
/// nearer mast of its own segment.
double corridor_donor_distance(double p, double isd_m) {
  const double local = std::fmod(p, isd_m);
  return std::min(local, isd_m - local);
}

}  // namespace

std::vector<rf::TrackTransmitter> CorridorDeployment::transmitters(
    const rf::NrCarrier& carrier) const {
  RAILCORR_EXPECTS(geometry.segments >= 1);
  RAILCORR_EXPECTS(geometry.segment.valid());
  std::vector<rf::TrackTransmitter> txs;
  const Dbm hp_rstp = carrier.rstp_from_eirp(radio.hp_eirp);
  const Dbm lp_rstp = carrier.rstp_from_eirp(radio.lp_eirp);

  for (const double mast : geometry.mast_positions()) {
    rf::TrackTransmitter tx;
    tx.kind = rf::NodeKind::kHighPowerRrh;
    tx.position_m = mast;
    tx.rstp = hp_rstp;
    tx.calibration = radio.hp_calibration;
    txs.push_back(tx);
  }
  const double isd = geometry.segment.isd_m;
  for (const double p : geometry.repeater_positions()) {
    rf::TrackTransmitter tx;
    tx.kind = rf::NodeKind::kLowPowerRepeater;
    tx.position_m = p;
    tx.rstp = lp_rstp;
    tx.calibration = radio.lp_calibration;
    tx.donor_distance_m = corridor_donor_distance(p, isd);
    txs.push_back(tx);
  }
  return txs;
}

CorridorDeployment CorridorDeployment::repeat(
    const SegmentDeployment& segment, int segments) {
  RAILCORR_EXPECTS(segments >= 1);
  CorridorDeployment corridor;
  corridor.geometry.segment = segment.geometry;
  corridor.geometry.segments = segments;
  corridor.radio = segment.radio;
  return corridor;
}

MultiSegmentAnalyzer::MultiSegmentAnalyzer(rf::LinkModelConfig link_config,
                                           double sample_step_m)
    : link_config_(std::move(link_config)), sample_step_m_(sample_step_m) {
  RAILCORR_EXPECTS(sample_step_m_ > 0.0);
}

rf::CorridorLinkModel MultiSegmentAnalyzer::link_model(
    const CorridorDeployment& corridor) const {
  return rf::CorridorLinkModel(
      link_config_, corridor.transmitters(link_config_.carrier));
}

std::vector<SegmentCapacity> MultiSegmentAnalyzer::per_segment(
    const CorridorDeployment& corridor) const {
  const auto model = link_model(corridor);
  const double isd = corridor.geometry.segment.isd_m;
  // Segments are independent scans over the shared immutable link
  // model; each index writes only its own slot, so the result is
  // bit-identical at any thread count. Within a segment the scan runs
  // through the SIMD batch kernel.
  return exec::parallel_map(
      static_cast<std::size_t>(corridor.geometry.segments),
      [&](std::size_t s) {
        SegmentCapacity cap;
        cap.segment_index = static_cast<int>(s);
        const auto [lo, hi] = segment_span(isd, s);
        cap.min_snr = model.min_snr(lo, hi, sample_step_m_);
        cap.mean_snr_db = model.mean_snr_db(lo, hi, sample_step_m_);
        return cap;
      });
}

Db MultiSegmentAnalyzer::min_snr(const CorridorDeployment& corridor) const {
  static obs::Counter& samples_counter =
      obs::MetricsRegistry::instance().counter("corridor.check_samples");
  const CorridorGeometry& geometry = corridor.geometry;
  RAILCORR_EXPECTS(geometry.segments >= 1);
  RAILCORR_EXPECTS(geometry.segment.valid());
  // What per_segment's CalibratedPathLoss requires of the clamp.
  RAILCORR_EXPECTS(link_config_.min_distance_m > 0.0);
  const double isd = geometry.segment.isd_m;
  // The transmitters of transmitters(), in its order, without a
  // CorridorLinkModel: the K segments' repeaters share a handful of
  // donor distances.
  TxTable table(link_config_, corridor.radio);
  for (const double mast : geometry.mast_positions()) table.add_mast(mast);
  for (const double p : geometry.repeater_positions()) {
    table.add_repeater(p, corridor_donor_distance(p, isd));
  }
  // The end segments first: each has a mast with no neighbour beyond
  // it, and in all 256 `radio_distinct_fleet` corridors and 2,648
  // seeded random ones the minimum lies in one of them, so most
  // interior blocks clear it.
  const auto span_of = [isd](std::size_t s) {
    const auto [lo, hi] = segment_span(isd, s);
    return rf::TrackSpan{lo, hi};
  };
  const auto segments = static_cast<std::size_t>(geometry.segments);
  std::vector<rf::TrackSpan> spans = {span_of(0)};
  if (segments > 1) spans.push_back(span_of(segments - 1));
  for (std::size_t s = 1; s + 1 < segments; ++s) spans.push_back(span_of(s));
  rf::PrunedScanCounts counts;
  const double worst =
      rf::min_ratio_pruned(table.soa(), spans, sample_step_m_, counts);
  samples_counter.add(counts.exact_samples);
  // log10 is monotone, so converting the corridor's smallest ratio once
  // gives the minimum of the per-segment minima in dB.
  return Db(10.0 * std::log10(worst));
}

Db MultiSegmentAnalyzer::interior_boundary_effect(
    const SegmentDeployment& segment, int segments) const {
  RAILCORR_EXPECTS(segments >= 3);
  const auto corridor = CorridorDeployment::repeat(segment, segments);
  const auto capacities = per_segment(corridor);
  const auto& middle =
      capacities[static_cast<std::size_t>(segments / 2)];

  const rf::CorridorLinkModel isolated(
      link_config_, segment.transmitters(link_config_.carrier));
  const Db isolated_min =
      isolated.min_snr(0.0, segment.geometry.isd_m, sample_step_m_);
  return middle.min_snr - isolated_min;
}

}  // namespace railcorr::corridor
