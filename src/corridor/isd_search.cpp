#include "corridor/isd_search.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <span>
#include <utility>

#include "exec/parallel.hpp"
#include "obs/metrics.hpp"
#include "rf/batch_kernel.hpp"
#include "util/contracts.hpp"

namespace railcorr::corridor {

namespace {

/// One (repeater count, candidate ISD) grid point of the sweep.
struct GridPoint {
  int repeater_count = 0;
  double isd_m = 0.0;
};

/// Samples per block of the reject probe's ordered scan.
constexpr std::size_t kProbeBlock = 16;

/// Samples the reject probe tests first: from two before to one after
/// the sample where the last rejected point first fell below the floor
/// (walking down the grid, that sample moves toward the first mast).
/// On `radio_distinct_fleet`'s 256 searches they decide 38,752 of the
/// 40,968 rejections, and the probe evaluates 255,648 samples where the
/// ordered scan alone evaluates 868,352.
constexpr std::size_t kHintSamples = 4;

/// How far below the threshold [dB] a probed sample must fall to reject
/// its point outright. log10's rounding is ~1e-14 dB, so every rejected
/// point also fails the exact min-SNR test, and a point whose exact
/// minimum equals the threshold is never rejected.
constexpr double kRejectMarginDb = 1e-6;

/// One segment's transmitters at any (N, ISD), in the order of
/// SegmentDeployment::transmitters (the two masts, then the cluster),
/// refilled into one reused table whose gains and noise-gain memo live
/// for the whole search.
class SegmentLayout {
 public:
  SegmentLayout(const rf::LinkModelConfig& link, const RadioParameters& radio,
                double spacing_m)
      : table_(link, radio), spacing_m_(spacing_m) {}

  /// The transmitters of `repeater_count` nodes at `isd_m` (a valid
  /// geometry), valid until the next call.
  const rf::DownlinkTxSoA& at(int repeater_count, double isd_m) {
    SegmentGeometry geometry;
    geometry.isd_m = isd_m;
    geometry.repeater_count = repeater_count;
    geometry.repeater_spacing_m = spacing_m_;
    table_.clear();
    table_.add_mast(0.0);
    table_.add_mast(isd_m);
    for (int i = 0; i < repeater_count; ++i) {
      const double p = geometry.repeater_position_m(i);
      table_.add_repeater(p, geometry.donor_distance_m(p));
    }
    return table_.soa();
  }

 private:
  TxTable table_;
  double spacing_m_;
};

/// deepest_feasible's exact reject probe: whether a sample of min_snr's
/// sequence over [0, isd_m] has an SNR ratio below `floor_ratio`.
///
/// The sequence is the accumulated steps d += step from 0, clamped to
/// the ISD and kept while d <= ISD + step/2. Its unclamped prefix does
/// not depend on the ISD, so it is accumulated once per search and
/// read clamped; sample k is never recomputed as k * step, which rounds
/// differently. The probe first tests the kHintSamples samples around
/// where the last rejected point first failed, then, only when none is
/// below the floor, scans the whole sequence in order kProbeBlock
/// samples at a time. Either way it answers whether *some* sample is
/// below the floor, so the hint changes only the work.
class RejectProbe {
 public:
  RejectProbe(double step_m, double floor_ratio)
      : step_m_(step_m), floor_ratio_(floor_ratio), steps_{0.0} {}

  /// True when `soa`'s sequence over [0, isd_m] holds a ratio below the
  /// floor.
  bool rejects(const rf::DownlinkTxSoA& soa, double isd_m) {
    const double end = isd_m + 0.5 * step_m_;
    while (steps_.back() <= end) steps_.push_back(steps_.back() + step_m_);
    const auto count = static_cast<std::size_t>(
        std::upper_bound(steps_.begin(), steps_.end(), end) - steps_.begin());
    if (has_hint_) {
      const std::size_t n = std::min(kHintSamples, count);
      const std::size_t first =
          std::min(hint_ - std::min<std::size_t>(hint_, 2), count - n);
      if (any_below(soa, isd_m, first, n)) return true;
    }
    for (std::size_t first = 0; first < count; first += kProbeBlock) {
      if (any_below(soa, isd_m, first, std::min(kProbeBlock, count - first))) {
        return true;
      }
    }
    return false;
  }

  /// Samples evaluated so far, hint samples included.
  [[nodiscard]] std::uint64_t samples() const { return samples_; }

 private:
  /// Tests samples [first, first + n) of the sequence over [0, isd_m];
  /// on a hit, the first sample below the floor becomes the hint.
  bool any_below(const rf::DownlinkTxSoA& soa, double isd_m,
                 std::size_t first, std::size_t n) {
    std::array<double, kProbeBlock> positions;
    std::array<double, kProbeBlock> ratios;
    for (std::size_t k = 0; k < n; ++k) {
      positions[k] = std::min(steps_[first + k], isd_m);
    }
    rf::snr_ratio_batch(soa, std::span<const double>(positions.data(), n),
                        std::span<double>(ratios.data(), n));
    samples_ += n;
    for (std::size_t k = 0; k < n; ++k) {
      if (ratios[k] < floor_ratio_) {
        has_hint_ = true;
        hint_ = first + k;
        return true;
      }
    }
    return false;
  }

  double step_m_;
  double floor_ratio_;
  /// The accumulated, unclamped sample positions 0, step, ... .
  std::vector<double> steps_;
  bool has_hint_ = false;
  std::size_t hint_ = 0;
  std::uint64_t samples_ = 0;
};

}  // namespace

IsdSearch::IsdSearch(CapacityAnalyzer analyzer, IsdSearchConfig config,
                     RadioParameters radio)
    : analyzer_(std::move(analyzer)), config_(config), radio_(radio) {
  RAILCORR_EXPECTS(config_.isd_step_m > 0.0);
  RAILCORR_EXPECTS(config_.max_isd_m > 0.0);
  RAILCORR_EXPECTS(config_.sample_step_m > 0.0);
  RAILCORR_EXPECTS(config_.repeater_spacing_m > 0.0);
}

MaxIsdResult IsdSearch::find_max_isd(int repeater_count) const {
  return sweep(repeater_count, repeater_count).front();
}

void IsdSearch::isd_grid(int n, std::vector<double>& isds) const {
  isds.clear();
  // Smallest geometrically valid ISD on the grid: the node cluster
  // span plus one spacing of edge gap on either side.
  const double span =
      n > 0 ? config_.repeater_spacing_m * static_cast<double>(n - 1) : 0.0;
  const double min_isd = std::max(
      config_.isd_step_m,
      std::ceil((span + 1.0) / config_.isd_step_m) * config_.isd_step_m);
  for (double isd = min_isd; isd <= config_.max_isd_m + 1e-9;
       isd += config_.isd_step_m) {
    SegmentGeometry geometry;
    geometry.isd_m = isd;
    geometry.repeater_count = n;
    geometry.repeater_spacing_m = config_.repeater_spacing_m;
    if (geometry.valid()) isds.push_back(isd);
  }
}

std::vector<MaxIsdResult> IsdSearch::sweep(int from, int to) const {
  RAILCORR_EXPECTS(from >= 0);
  RAILCORR_EXPECTS(to >= from);

  // Enumerate every valid (N, ISD) grid point up front. All points are
  // independent link-budget evaluations, so one flat parallel loop over
  // the whole sweep load-balances far better than parallelizing either
  // nesting level alone.
  std::vector<GridPoint> points;
  std::vector<std::size_t> first_point;  // per N, index into `points`
  first_point.reserve(static_cast<std::size_t>(to - from) + 2);
  std::vector<double> isds;
  for (int n = from; n <= to; ++n) {
    first_point.push_back(points.size());
    isd_grid(n, isds);
    for (const double isd : isds) points.push_back(GridPoint{n, isd});
  }
  first_point.push_back(points.size());

  // Evaluate the min-SNR criterion at every grid point in parallel;
  // each point writes only its own slot, so the result is independent
  // of the thread count.
  const std::vector<double> min_snrs = exec::parallel_map(
      points.size(), [&](std::size_t i) {
        SegmentDeployment deployment;
        deployment.geometry.isd_m = points[i].isd_m;
        deployment.geometry.repeater_count = points[i].repeater_count;
        deployment.geometry.repeater_spacing_m = config_.repeater_spacing_m;
        deployment.radio = radio_;
        const auto model = analyzer_.link_model(deployment);
        return model.min_snr(0.0, points[i].isd_m, config_.sample_step_m)
            .value();
      });

  // Deterministic reduction: scan each N's grid in ascending-ISD order;
  // the last passing point wins. No early exit: min-SNR is not strictly
  // monotone in ISD near the cluster-geometry transitions.
  std::vector<MaxIsdResult> results;
  results.reserve(static_cast<std::size_t>(to - from) + 1);
  for (int n = from; n <= to; ++n) {
    const std::size_t group = static_cast<std::size_t>(n - from);
    MaxIsdResult result;
    result.repeater_count = n;
    for (std::size_t i = first_point[group]; i < first_point[group + 1]; ++i) {
      const Db min_snr{min_snrs[i]};
      if (min_snr >= config_.snr_threshold) {
        result.max_isd_m = points[i].isd_m;
        result.min_snr_at_max = min_snr;
      }
    }
    results.push_back(result);
  }
  return results;
}

std::optional<MaxIsdResult> IsdSearch::deepest_feasible(int from,
                                                         int to) const {
  RAILCORR_EXPECTS(from >= 0);
  RAILCORR_EXPECTS(to >= from);
  auto& metrics = obs::MetricsRegistry::instance();
  static obs::Counter& points_counter = metrics.counter("corridor.isd_points");
  static obs::Counter& scans_counter =
      metrics.counter("corridor.isd_full_scans");
  static obs::Counter& probe_samples_counter =
      metrics.counter("corridor.isd_probe_samples");

  SegmentLayout layout(analyzer_.link_config(), radio_,
                       config_.repeater_spacing_m);
  RejectProbe probe(
      config_.sample_step_m,
      Db(config_.snr_threshold.value() - kRejectMarginDb).linear());
  std::uint64_t points = 0;
  std::uint64_t full_scans = 0;
  std::optional<MaxIsdResult> found;
  std::vector<double> isds;
  for (int n = to; n >= from && !found; --n) {
    isd_grid(n, isds);
    for (auto it = isds.rbegin(); it != isds.rend(); ++it) {
      ++points;
      const rf::DownlinkTxSoA& soa = layout.at(n, *it);
      if (probe.rejects(soa, *it)) continue;
      ++full_scans;
      const Db min_snr = rf::min_snr(soa, 0.0, *it, config_.sample_step_m);
      if (min_snr >= config_.snr_threshold) {
        found = MaxIsdResult{n, *it, min_snr};
        break;
      }
    }
  }
  points_counter.add(points);
  scans_counter.add(full_scans);
  probe_samples_counter.add(probe.samples());
  return found;
}

const std::vector<double>& paper_published_max_isds() {
  static const std::vector<double> kValues = {1250.0, 1450.0, 1600.0, 1800.0,
                                              1950.0, 2100.0, 2250.0, 2400.0,
                                              2500.0, 2650.0};
  return kValues;
}

}  // namespace railcorr::corridor
