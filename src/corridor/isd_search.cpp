#include "corridor/isd_search.hpp"

#include <algorithm>
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

/// Samples per block of deepest_feasible's early-reject probe.
constexpr std::size_t kProbeBlock = 16;

/// How far below the threshold [dB] a probed sample must fall to reject
/// its point outright. log10's rounding is ~1e-14 dB, so every rejected
/// point also fails the exact min-SNR test, and a point whose exact
/// minimum equals the threshold is never rejected.
constexpr double kRejectMarginDb = 1e-6;

/// One segment's transmitters at any (N, ISD), in the order of
/// SegmentDeployment::transmitters (the two masts, then the cluster),
/// refilled into one reused SoA table. The mast and repeater gains are
/// computed once; only positions and fronthaul factors change per
/// layout.
class SegmentLayout {
 public:
  SegmentLayout(const rf::LinkModelConfig& link, const RadioParameters& radio,
                double spacing_m)
      : link_(link), spacing_m_(spacing_m) {
    rf::TrackTransmitter mast;
    mast.kind = rf::NodeKind::kHighPowerRrh;
    mast.rstp = link.carrier.rstp_from_eirp(radio.hp_eirp);
    mast.calibration = radio.hp_calibration;
    mast_ = rf::tx_gains(link, mast);
    rf::TrackTransmitter repeater;
    repeater.kind = rf::NodeKind::kLowPowerRepeater;
    repeater.rstp = link.carrier.rstp_from_eirp(radio.lp_eirp);
    repeater.calibration = radio.lp_calibration;
    repeater_ = rf::tx_gains(link, repeater);
    soa_.terminal_noise_mw =
        link.noise.terminal_noise().to_milliwatts().value();
    soa_.min_distance_m = link.min_distance_m;
  }

  /// The transmitters of `repeater_count` nodes at `isd_m` (a valid
  /// geometry), valid until the next call.
  const rf::DownlinkTxSoA& at(int repeater_count, double isd_m) {
    SegmentGeometry geometry;
    geometry.isd_m = isd_m;
    geometry.repeater_count = repeater_count;
    geometry.repeater_spacing_m = spacing_m_;
    const std::size_t count = static_cast<std::size_t>(repeater_count) + 2;
    soa_.position_m.resize(count);
    soa_.signal_gain_lin.resize(count);
    soa_.noise_gain_lin.resize(count);
    set(0, rf::place_tx(link_, mast_, 0.0, 0.0));
    set(1, rf::place_tx(link_, mast_, isd_m, 0.0));
    for (int i = 0; i < repeater_count; ++i) {
      const double p = geometry.repeater_position_m(i);
      set(static_cast<std::size_t>(i) + 2,
          rf::place_tx(link_, repeater_, p, geometry.donor_distance_m(p)));
    }
    return soa_;
  }

 private:
  void set(std::size_t i, const rf::TxKernel& k) {
    soa_.position_m[i] = k.position_m;
    soa_.signal_gain_lin[i] = k.signal_gain_lin;
    soa_.noise_gain_lin[i] = rf::soa_noise_gain(link_, k);
  }

  const rf::LinkModelConfig& link_;
  double spacing_m_;
  rf::TxKernel mast_;
  rf::TxKernel repeater_;
  rf::DownlinkTxSoA soa_;
};

/// True when a sample of min_snr's sequence over [0, isd_m] has an SNR
/// ratio below `floor_ratio`. Scans kProbeBlock samples at a time and
/// stops after the first block holding one.
bool has_ratio_below(const rf::DownlinkTxSoA& soa, double isd_m,
                     double step_m, double floor_ratio) {
  bool below = false;
  rf::blocked_range_ratio_blocks<kProbeBlock>(
      0.0, isd_m, step_m,
      [&soa](std::span<const double> positions, std::span<double> out) {
        rf::snr_ratio_batch(soa, positions, out);
      },
      [&](std::span<const double> ratios) {
        below = std::any_of(ratios.begin(), ratios.end(), [&](double r) {
          return r < floor_ratio;
        });
        return !below;
      });
  return below;
}

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

  SegmentLayout layout(analyzer_.link_config(), radio_,
                       config_.repeater_spacing_m);
  const double reject_below =
      Db(config_.snr_threshold.value() - kRejectMarginDb).linear();
  std::uint64_t points = 0;
  std::uint64_t full_scans = 0;
  std::optional<MaxIsdResult> found;
  std::vector<double> isds;
  for (int n = to; n >= from && !found; --n) {
    isd_grid(n, isds);
    for (auto it = isds.rbegin(); it != isds.rend(); ++it) {
      ++points;
      const rf::DownlinkTxSoA& soa = layout.at(n, *it);
      if (has_ratio_below(soa, *it, config_.sample_step_m, reject_below)) {
        continue;
      }
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
  return found;
}

const std::vector<double>& paper_published_max_isds() {
  static const std::vector<double> kValues = {1250.0, 1450.0, 1600.0, 1800.0,
                                              1950.0, 2100.0, 2250.0, 2400.0,
                                              2500.0, 2650.0};
  return kValues;
}

}  // namespace railcorr::corridor
