#include "rf/link.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <utility>

#include "util/constants.hpp"
#include "util/contracts.hpp"
#include "util/vmath.hpp"

namespace railcorr::rf {

namespace {

/// The dispatched downlink kernel bound to one model's SoA constants,
/// in the callable shape the blocked reductions consume.
auto bound_kernel(const DownlinkTxSoA& soa) {
  return [&soa](std::span<const double> positions, std::span<double> out) {
    snr_ratio_batch(soa, positions, out);
  };
}

}  // namespace

TxKernel tx_gains(const LinkModelConfig& config, const TrackTransmitter& tx) {
  // Geometry factor of Eq. (1): L(d) = (4 pi d / lambda)^2 * L_calib, so
  // every per-position term is <constant> / d_eff^2.
  const double wavelength = config.carrier.wavelength_m();
  const double geometry_lin =
      (4.0 * constants::kPi / wavelength) * (4.0 * constants::kPi / wavelength);
  const double attenuation_lin = geometry_lin * tx.calibration.linear();
  TxKernel k;
  k.repeater = tx.kind == NodeKind::kLowPowerRepeater;
  k.signal_gain_lin = tx.rstp.to_milliwatts().value() / attenuation_lin;
  if (k.repeater) {
    const Dbm repeater_floor =
        config.noise.thermal_per_subcarrier + config.noise.nf_repeater;
    k.literal_noise_gain_lin =
        repeater_floor.to_milliwatts().value() / attenuation_lin;
  }
  return k;
}

TxKernel place_tx(const LinkModelConfig& config, TxKernel gains,
                  double position_m, double donor_distance_m) {
  RAILCORR_EXPECTS(donor_distance_m >= 0.0);
  gains.position_m = position_m;
  if (gains.repeater) {
    gains.fronthaul_factor_lin =
        (-config.fronthaul.snr_at(donor_distance_m)).linear();
  }
  return gains;
}

double soa_noise_gain(const LinkModelConfig& config, const TxKernel& k) {
  // With the fronthaul-aware model the injected noise is
  // (literal + signal_gain * fronthaul_factor) / d_eff^2, under the
  // literal model only the first summand, and zero for RRHs.
  double noise_gain = k.literal_noise_gain_lin;
  if (k.repeater && config.noise_model == RepeaterNoiseModel::kFronthaulAware) {
    noise_gain += k.signal_gain_lin * k.fronthaul_factor_lin;
  }
  return noise_gain;
}

Db min_snr(const DownlinkTxSoA& soa, double lo_m, double hi_m,
           double step_m) {
  RAILCORR_EXPECTS(step_m > 0.0);
  RAILCORR_EXPECTS(hi_m >= lo_m);
  double worst_ratio = std::numeric_limits<double>::infinity();
  blocked_range_ratios(lo_m, hi_m, step_m, bound_kernel(soa),
                       [&](double ratio) {
                         worst_ratio = std::min(worst_ratio, ratio);
                       });
  return Db(10.0 * std::log10(worst_ratio));
}

double min_ratio_pruned(const DownlinkTxSoA& soa,
                        std::span<const TrackSpan> spans, double step_m,
                        PrunedScanCounts& counts) {
  RAILCORR_EXPECTS(!spans.empty());
  RAILCORR_EXPECTS(step_m > 0.0);
  // One bound call covers one block per AVX2 lane; the running minimum
  // it tests against moves between calls.
  constexpr std::size_t kBlocks = 4;
  constexpr std::size_t kSamples = kBlocks * kPruneBlock;
  double worst = std::numeric_limits<double>::infinity();
  std::uint64_t exact = 0;
  std::uint64_t cleared = 0;
  const auto keep_min = [&worst](std::span<const double> ratios) {
    for (const double r : ratios) worst = std::min(worst, r);
  };
  const TrackSpan& head = spans.front();
  RAILCORR_EXPECTS(head.hi_m >= head.lo_m);
  blocked_range_ratio_blocks(head.lo_m, head.hi_m, step_m, bound_kernel(soa),
                             [&](std::span<const double> ratios) {
                               exact += ratios.size();
                               keep_min(ratios);
                             });
  // A cleared block's slots read +inf: every ratio it holds lies above
  // `worst`, so the minimum is the one of the full scan.
  const auto evaluate_unproven = [&](std::span<const double> positions,
                                     std::span<double> out) {
    const std::size_t blocks =
        (positions.size() + kPruneBlock - 1) / kPruneBlock;
    std::array<double, kBlocks> first;
    std::array<double, kBlocks> last;
    std::array<std::uint8_t, kBlocks> clears;
    for (std::size_t b = 0; b < blocks; ++b) {
      first[b] = positions[b * kPruneBlock];
      last[b] = positions[std::min((b + 1) * kPruneBlock, positions.size()) -
                          1];
    }
    snr_ratio_block_clears_batch(
        soa, std::span<const double>(first.data(), blocks),
        std::span<const double>(last.data(), blocks), worst,
        std::span<std::uint8_t>(clears.data(), blocks));
    for (std::size_t b = 0; b < blocks; ++b) {
      const std::size_t begin = b * kPruneBlock;
      const std::size_t count = std::min(kPruneBlock, positions.size() - begin);
      const std::span<double> block_out = out.subspan(begin, count);
      if (clears[b] != 0) {
        std::fill(block_out.begin(), block_out.end(),
                  std::numeric_limits<double>::infinity());
        ++cleared;
      } else {
        snr_ratio_batch(soa, positions.subspan(begin, count), block_out);
        exact += count;
      }
    }
  };
  for (const TrackSpan& span : spans.subspan(1)) {
    RAILCORR_EXPECTS(span.hi_m >= span.lo_m);
    blocked_range_ratio_blocks<kSamples>(span.lo_m, span.hi_m, step_m,
                                         evaluate_unproven, keep_min);
  }
  counts.exact_samples += exact;
  counts.cleared_blocks += cleared;
  return worst;
}

CorridorLinkModel::CorridorLinkModel(LinkModelConfig config,
                                     std::vector<TrackTransmitter> transmitters)
    : config_(std::move(config)), transmitters_(std::move(transmitters)) {
  RAILCORR_EXPECTS(!transmitters_.empty());
  path_loss_.reserve(transmitters_.size());
  kernels_.reserve(transmitters_.size());
  const double wavelength = config_.carrier.wavelength_m();
  for (const auto& tx : transmitters_) {
    path_loss_.emplace_back(wavelength, tx.calibration, config_.min_distance_m);
    const TxKernel k = place_tx(config_, tx_gains(config_, tx), tx.position_m,
                                tx.donor_distance_m);
    kernels_.push_back(k);
    // The SoA mirror folds the two repeater-noise terms into one gain.
    soa_.position_m.push_back(k.position_m);
    soa_.signal_gain_lin.push_back(k.signal_gain_lin);
    soa_.noise_gain_lin.push_back(soa_noise_gain(config_, k));
  }
  terminal_noise_mw_ = config_.noise.terminal_noise().to_milliwatts().value();
  soa_.terminal_noise_mw = terminal_noise_mw_;
  soa_.min_distance_m = config_.min_distance_m;
}

void CorridorLinkModel::snr_batch(std::span<const double> positions_m,
                                  std::span<double> out_snr_db) const {
  RAILCORR_EXPECTS(out_snr_db.size() == positions_m.size());
  // Linear ratios land in the output slots; one batched dB pass
  // converts in place (this is why `out_snr_db` must not alias
  // `positions_m`). The pass is the historical 10*log10 libm loop bit
  // for bit (vmath.hpp).
  snr_ratio_batch(soa_, positions_m, out_snr_db);
  vmath::ratio_to_db_batch(out_snr_db, out_snr_db);
}

void CorridorLinkModel::snr_batch(std::span<const double> positions_m,
                                  std::span<const double> active,
                                  std::span<double> out_snr_db) const {
  RAILCORR_EXPECTS(out_snr_db.size() == positions_m.size());
  RAILCORR_EXPECTS(active.size() == transmitters_.size());
  snr_ratio_masked_batch(soa_, active, positions_m, out_snr_db);
  vmath::ratio_to_db_batch(out_snr_db, out_snr_db);
  for (double& v : out_snr_db) {
    // A fully dark corridor has zero signal, whose ratio converts to
    // -inf; report the scalar masked path's floor instead. (Positive
    // ratios always convert to finite dB, so only true zeros hit this.)
    if (std::isinf(v)) v = -200.0;
  }
}

Db CorridorLinkModel::min_snr(std::span<const double> positions_m) const {
  RAILCORR_EXPECTS(!positions_m.empty());
  double worst_ratio = std::numeric_limits<double>::infinity();
  blocked_ratios(positions_m, bound_kernel(soa_), [&](double ratio) {
    worst_ratio = std::min(worst_ratio, ratio);
  });
  // log10 is monotone, so reducing in the linear domain and converting
  // once yields exactly min over the per-position dB values.
  return Db(10.0 * std::log10(worst_ratio));
}

Dbm CorridorLinkModel::rsrp_of(std::size_t node, double position_m) const {
  RAILCORR_EXPECTS(node < transmitters_.size());
  const auto& tx = transmitters_[node];
  const double distance = position_m - tx.position_m;
  return path_loss_[node].received(tx.rstp, distance);
}

MilliWatts CorridorLinkModel::total_signal(double position_m) const {
  MilliWatts sum{0.0};
  for (std::size_t i = 0; i < transmitters_.size(); ++i) {
    sum += rsrp_of(i, position_m).to_milliwatts();
  }
  return sum;
}

MilliWatts CorridorLinkModel::total_signal(
    double position_m, const std::vector<bool>& active) const {
  RAILCORR_EXPECTS(active.size() == transmitters_.size());
  MilliWatts sum{0.0};
  for (std::size_t i = 0; i < transmitters_.size(); ++i) {
    if (!active[i]) continue;
    sum += rsrp_of(i, position_m).to_milliwatts();
  }
  return sum;
}

MilliWatts CorridorLinkModel::total_noise(double position_m) const {
  return total_noise(position_m,
                     std::vector<bool>(transmitters_.size(), true));
}

MilliWatts CorridorLinkModel::total_noise(
    double position_m, const std::vector<bool>& active) const {
  RAILCORR_EXPECTS(active.size() == transmitters_.size());
  MilliWatts noise = config_.noise.terminal_noise().to_milliwatts();
  const Dbm repeater_floor =
      config_.noise.thermal_per_subcarrier + config_.noise.nf_repeater;
  for (std::size_t i = 0; i < transmitters_.size(); ++i) {
    const auto& tx = transmitters_[i];
    if (tx.kind != NodeKind::kLowPowerRepeater || !active[i]) continue;
    const double distance = position_m - tx.position_m;
    // Literal Eq. (2) term: N_RSRP * NF_LP / L_LP,n(d).
    noise += (repeater_floor - path_loss_[i].at(distance)).to_milliwatts();
    if (config_.noise_model == RepeaterNoiseModel::kFronthaulAware) {
      // Amplified fronthaul noise: the node's received SNR contribution is
      // bounded by the donor-link SNR, so it retransmits
      // P_LP,RSTP / SNR_fh alongside the signal.
      const Db fronthaul_snr = config_.fronthaul.snr_at(tx.donor_distance_m);
      const Dbm received = path_loss_[i].received(tx.rstp, distance);
      noise += (received - fronthaul_snr).to_milliwatts();
    }
  }
  return noise;
}

Db CorridorLinkModel::snr(double position_m) const {
  const double ratio =
      total_signal(position_m).value() / total_noise(position_m).value();
  return Db(10.0 * std::log10(ratio));
}

Db CorridorLinkModel::snr(double position_m,
                          const std::vector<bool>& active) const {
  const double signal = total_signal(position_m, active).value();
  const double noise = total_noise(position_m, active).value();
  RAILCORR_EXPECTS(noise > 0.0);
  // A fully dark corridor has zero signal; report a floor instead of -inf.
  if (signal <= 0.0) return Db(-200.0);
  return Db(10.0 * std::log10(signal / noise));
}

SignalSample CorridorLinkModel::sample(double position_m) const {
  SignalSample s;
  s.position_m = position_m;
  s.total_signal = total_signal(position_m).to_dbm();
  s.total_noise = total_noise(position_m).to_dbm();
  s.snr = s.total_signal - s.total_noise;
  return s;
}

std::vector<SignalSample> CorridorLinkModel::profile(
    const std::vector<double>& positions_m) const {
  std::vector<SignalSample> out;
  out.reserve(positions_m.size());
  for (const double p : positions_m) out.push_back(sample(p));
  return out;
}

Db CorridorLinkModel::min_snr(double lo_m, double hi_m, double step_m) const {
  return rf::min_snr(soa_, lo_m, hi_m, step_m);
}

Db CorridorLinkModel::mean_snr_db(double lo_m, double hi_m,
                                  double step_m) const {
  RAILCORR_EXPECTS(step_m > 0.0);
  RAILCORR_EXPECTS(hi_m >= lo_m);
  // dB-domain sum in position order: deterministic and identical to
  // the historical per-position loop. Each ratio block converts to dB
  // through one batched vmath pass (the libm loop) before the ordered
  // accumulation.
  double sum = 0.0;
  std::size_t n = 0;
  std::array<double, kBatchBlock> db;
  blocked_range_ratio_blocks(
      lo_m, hi_m, step_m, bound_kernel(soa_),
      [&](std::span<const double> ratios) {
        const std::span<double> out(db.data(), ratios.size());
        vmath::ratio_to_db_batch(ratios, out);
        for (const double v : out) {
          sum += v;
          ++n;
        }
      });
  RAILCORR_ENSURES(n > 0);
  return Db(sum / static_cast<double>(n));
}

}  // namespace railcorr::rf
