#include "rf/uplink.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <utility>

#include "exec/parallel.hpp"
#include "util/constants.hpp"
#include "util/contracts.hpp"
#include "util/vmath.hpp"

namespace railcorr::rf {

namespace {

/// Positions per parallel chunk of the range-based min_snr: large
/// enough that chunk overhead never dominates, small enough that the
/// paper-scale ranges (a few hundred samples) still split across cores.
constexpr std::size_t kParallelChunk = 1024;

/// The dispatched uplink kernel bound to one model's SoA constants.
auto bound_kernel(const UplinkTxSoA& soa) {
  return [&soa](std::span<const double> positions, std::span<double> out) {
    uplink_best_ratio_batch(soa, positions, out);
  };
}

}  // namespace

UplinkModel::UplinkModel(LinkModelConfig config,
                         std::vector<TrackTransmitter> transmitters,
                         UplinkBudget budget)
    : config_(std::move(config)),
      transmitters_(std::move(transmitters)),
      budget_(budget) {
  RAILCORR_EXPECTS(!transmitters_.empty());
  RAILCORR_EXPECTS(budget_.allocated_subcarriers >= 1);
  const double wavelength = config_.carrier.wavelength_m();
  path_loss_.reserve(transmitters_.size());

  // SoA constants of the batch kernel: per path, the single-leg SNR is
  // UE RSTP over the port-to-port attenuation, the square-law distance
  // term, and the receiver noise floor; relayed paths additionally
  // carry 1/SNR_fh of their donor link for the amplify-and-forward
  // combination (0 for direct-to-mast paths).
  const double geometry_lin =
      (4.0 * constants::kPi / wavelength) * (4.0 * constants::kPi / wavelength);
  const double ue_rstp_mw = ue_rstp().to_milliwatts().value();
  const double mast_floor_mw =
      (config_.noise.thermal_per_subcarrier + budget_.rrh_noise_figure)
          .to_milliwatts()
          .value();
  const double repeater_floor_mw =
      (config_.noise.thermal_per_subcarrier + config_.noise.nf_repeater)
          .to_milliwatts()
          .value();

  for (const auto& tx : transmitters_) {
    path_loss_.emplace_back(wavelength, tx.calibration,
                            config_.min_distance_m);
    const bool repeater = tx.kind == NodeKind::kLowPowerRepeater;
    const double attenuation_lin = geometry_lin * tx.calibration.linear();
    const double floor_mw = repeater ? repeater_floor_mw : mast_floor_mw;
    soa_.position_m.push_back(tx.position_m);
    soa_.snr_gain_lin.push_back(ue_rstp_mw / attenuation_lin / floor_mw);
    soa_.inv_fronthaul_lin.push_back(
        repeater ? (-config_.fronthaul.snr_at(tx.donor_distance_m)).linear()
                 : 0.0);
  }
  soa_.min_distance_m = config_.min_distance_m;
}

Dbm UplinkModel::ue_rstp() const {
  return budget_.ue_eirp -
         Db(10.0 * std::log10(
                static_cast<double>(budget_.allocated_subcarriers)));
}

std::vector<UplinkPath> UplinkModel::paths(double position_m) const {
  std::vector<UplinkPath> out;
  const Dbm rstp = ue_rstp();
  // Per-subcarrier thermal floor at the base-station receiver.
  const Dbm mast_floor =
      config_.noise.thermal_per_subcarrier + budget_.rrh_noise_figure;
  const Dbm repeater_floor =
      config_.noise.thermal_per_subcarrier + config_.noise.nf_repeater;

  for (std::size_t i = 0; i < transmitters_.size(); ++i) {
    const auto& tx = transmitters_[i];
    const double distance = position_m - tx.position_m;
    // Channel reciprocity: the reverse link sees the same calibrated
    // port-to-port attenuation (wagon penetration included).
    const Dbm received = path_loss_[i].received(rstp, distance);
    UplinkPath path;
    path.node = i;
    if (tx.kind == NodeKind::kHighPowerRrh) {
      path.kind = UplinkPath::Kind::kDirectToMast;
      path.snr = received - mast_floor;
    } else {
      path.kind = UplinkPath::Kind::kViaRepeater;
      // Into the service node's UL chain, then over the fronthaul to the
      // donor: the end-to-end SNR is capped by both the access-leg SNR
      // at the repeater and the fronthaul SNR of its donor link
      // (amplify-and-forward: 1/SNR_tot ~= 1/SNR_access + 1/SNR_fh).
      const Db access = received - repeater_floor;
      const Db fronthaul = config_.fronthaul.snr_at(tx.donor_distance_m);
      const double combined =
          1.0 / (1.0 / access.linear() + 1.0 / fronthaul.linear());
      path.snr = Db(10.0 * std::log10(combined));
    }
    out.push_back(path);
  }
  return out;
}

Db UplinkModel::snr(double position_m) const {
  const auto all = paths(position_m);
  RAILCORR_ENSURES(!all.empty());
  Db best = all.front().snr;
  for (const auto& p : all) best = std::max(best, p.snr);
  return best;
}

void UplinkModel::snr_batch(std::span<const double> positions_m,
                            std::span<double> out_snr_db) const {
  RAILCORR_EXPECTS(out_snr_db.size() == positions_m.size());
  uplink_best_ratio_batch(soa_, positions_m, out_snr_db);
  // Batched dB pass: the historical 10*log10 libm loop bit for bit.
  vmath::ratio_to_db_batch(out_snr_db, out_snr_db);
}

Db UplinkModel::min_snr(std::span<const double> positions_m) const {
  RAILCORR_EXPECTS(!positions_m.empty());
  double worst_ratio = std::numeric_limits<double>::infinity();
  blocked_ratios(positions_m, bound_kernel(soa_), [&](double ratio) {
    worst_ratio = std::min(worst_ratio, ratio);
  });
  // log10 is monotone: the linear-domain min converts to the dB min.
  return Db(10.0 * std::log10(worst_ratio));
}

Db UplinkModel::min_snr(double lo_m, double hi_m, double step_m) const {
  RAILCORR_EXPECTS(step_m > 0.0);
  RAILCORR_EXPECTS(hi_m >= lo_m);
  // Sample count of the scan lo, lo+step, ... <= hi + step/2.
  const std::size_t n =
      static_cast<std::size_t>(
          std::floor((hi_m + 0.5 * step_m - lo_m) / step_m)) +
      1;
  // Chunk minima evaluate in parallel; positions regenerate inside each
  // chunk as a pure function of the sample index (index-based, not the
  // downlink's accumulated-step sequence — see the header's sampling
  // note), and the final min reduction is exact and commutative — O(1)
  // memory per chunk and a result independent of the thread count.
  const std::size_t chunks = (n + kParallelChunk - 1) / kParallelChunk;
  const auto minima = exec::parallel_map(chunks, [&](std::size_t c) {
    const std::size_t begin = c * kParallelChunk;
    const std::size_t end = std::min(n, begin + kParallelChunk);
    std::array<double, kParallelChunk> positions;
    for (std::size_t k = begin; k < end; ++k) {
      positions[k - begin] =
          std::min(lo_m + static_cast<double>(k) * step_m, hi_m);
    }
    return min_snr(std::span<const double>(positions.data(), end - begin))
        .value();
  });
  return Db(*std::min_element(minima.begin(), minima.end()));
}

bool UplinkModel::sustains(Db threshold, double lo_m, double hi_m,
                           double step_m) const {
  return min_snr(lo_m, hi_m, step_m) >= threshold;
}

}  // namespace railcorr::rf
