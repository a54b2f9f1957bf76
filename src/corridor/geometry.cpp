#include "corridor/geometry.hpp"

#include <algorithm>
#include <cmath>

#include "util/contracts.hpp"

namespace railcorr::corridor {

std::vector<double> SegmentGeometry::repeater_positions() const {
  RAILCORR_EXPECTS(isd_m > 0.0);
  RAILCORR_EXPECTS(repeater_count >= 0);
  RAILCORR_EXPECTS(repeater_spacing_m > 0.0);
  std::vector<double> positions;
  positions.reserve(static_cast<std::size_t>(repeater_count));
  for (int i = 0; i < repeater_count; ++i) {
    positions.push_back(repeater_position_m(i));
  }
  return positions;
}

double SegmentGeometry::repeater_position_m(int i) const {
  return edge_gap_m() + repeater_spacing_m * static_cast<double>(i);
}

double SegmentGeometry::edge_gap_m() const {
  if (repeater_count == 0) return isd_m;
  const double span =
      repeater_spacing_m * static_cast<double>(repeater_count - 1);
  return (isd_m - span) / 2.0;
}

double SegmentGeometry::donor_distance_m(double position_m) const {
  RAILCORR_EXPECTS(position_m >= 0.0 && position_m <= isd_m);
  return std::min(position_m, isd_m - position_m);
}

bool SegmentGeometry::valid() const {
  if (isd_m <= 0.0 || repeater_count < 0 || repeater_spacing_m <= 0.0) {
    return false;
  }
  return repeater_count == 0 || edge_gap_m() > 0.0;
}

double CorridorGeometry::length_m() const {
  RAILCORR_EXPECTS(segments >= 1);
  return segment.isd_m * static_cast<double>(segments);
}

std::vector<double> CorridorGeometry::mast_positions() const {
  RAILCORR_EXPECTS(segments >= 1);
  std::vector<double> masts;
  masts.reserve(static_cast<std::size_t>(segments) + 1);
  for (int i = 0; i <= segments; ++i) {
    masts.push_back(segment.isd_m * static_cast<double>(i));
  }
  return masts;
}

std::vector<double> CorridorGeometry::repeater_positions() const {
  RAILCORR_EXPECTS(segments >= 1);
  std::vector<double> all;
  const auto local = segment.repeater_positions();
  all.reserve(local.size() * static_cast<std::size_t>(segments));
  for (int s = 0; s < segments; ++s) {
    const double offset = segment.isd_m * static_cast<double>(s);
    for (const double p : local) all.push_back(offset + p);
  }
  return all;
}

double CorridorGeometry::masts_per_km() const {
  return 1000.0 / segment.isd_m;
}

double CorridorGeometry::repeaters_per_km() const {
  return static_cast<double>(segment.repeater_count) * 1000.0 / segment.isd_m;
}

}  // namespace railcorr::corridor
