#include "rf/batch_kernel.hpp"

#include <algorithm>
#include <cmath>

#include "util/contracts.hpp"

namespace railcorr::rf {

void snr_ratio_batch_scalar(const DownlinkTxSoA& tx,
                            std::span<const double> positions_m,
                            std::span<double> out_ratio) {
  RAILCORR_EXPECTS(out_ratio.size() == positions_m.size());
  const std::size_t n_tx = tx.size();
  const double* const tx_pos = tx.position_m.data();
  const double* const sg = tx.signal_gain_lin.data();
  const double* const ng = tx.noise_gain_lin.data();
  const double min_d = tx.min_distance_m;
  const double terminal = tx.terminal_noise_mw;
  for (std::size_t p = 0; p < positions_m.size(); ++p) {
    const double pos = positions_m[p];
    double signal = 0.0;
    double noise = terminal;
    for (std::size_t i = 0; i < n_tx; ++i) {
      const double d_eff = std::max(std::abs(pos - tx_pos[i]), min_d);
      const double inv_d2 = 1.0 / (d_eff * d_eff);
      signal += sg[i] * inv_d2;
      noise += ng[i] * inv_d2;
    }
    out_ratio[p] = signal / noise;
  }
}

void snr_ratio_masked_batch_scalar(const DownlinkTxSoA& tx,
                                   std::span<const double> active,
                                   std::span<const double> positions_m,
                                   std::span<double> out_ratio) {
  RAILCORR_EXPECTS(out_ratio.size() == positions_m.size());
  RAILCORR_EXPECTS(active.size() == tx.size());
  const std::size_t n_tx = tx.size();
  const double* const tx_pos = tx.position_m.data();
  const double* const sg = tx.signal_gain_lin.data();
  const double* const ng = tx.noise_gain_lin.data();
  const double* const mask = active.data();
  const double min_d = tx.min_distance_m;
  const double terminal = tx.terminal_noise_mw;
  for (std::size_t p = 0; p < positions_m.size(); ++p) {
    const double pos = positions_m[p];
    double signal = 0.0;
    double noise = terminal;
    for (std::size_t i = 0; i < n_tx; ++i) {
      const double d_eff = std::max(std::abs(pos - tx_pos[i]), min_d);
      const double inv_d2 = 1.0 / (d_eff * d_eff);
      // Gains scale by the mask *before* the per-position multiply, so
      // an all-ones mask reproduces snr_ratio_batch_scalar bit for bit.
      signal += (mask[i] * sg[i]) * inv_d2;
      noise += (mask[i] * ng[i]) * inv_d2;
    }
    out_ratio[p] = signal / noise;
  }
}

void uplink_best_ratio_batch_scalar(const UplinkTxSoA& tx,
                                    std::span<const double> positions_m,
                                    std::span<double> out_ratio) {
  RAILCORR_EXPECTS(out_ratio.size() == positions_m.size());
  const std::size_t n_tx = tx.size();
  const double* const tx_pos = tx.position_m.data();
  const double* const gain = tx.snr_gain_lin.data();
  const double* const inv_fh = tx.inv_fronthaul_lin.data();
  const double min_d = tx.min_distance_m;
  for (std::size_t p = 0; p < positions_m.size(); ++p) {
    const double pos = positions_m[p];
    double best = 0.0;  // path ratios are strictly positive
    for (std::size_t i = 0; i < n_tx; ++i) {
      const double d_eff = std::max(std::abs(pos - tx_pos[i]), min_d);
      const double x = gain[i] / (d_eff * d_eff);
      const double ratio = x / (1.0 + x * inv_fh[i]);
      best = std::max(best, ratio);
    }
    out_ratio[p] = best;
  }
}

void snr_ratio_batch(const DownlinkTxSoA& tx,
                     std::span<const double> positions_m,
                     std::span<double> out_ratio) {
#if defined(RAILCORR_HAVE_AVX2)
  if (active_simd_level() == SimdLevel::kAvx2) {
    snr_ratio_batch_avx2(tx, positions_m, out_ratio);
    return;
  }
#endif
  snr_ratio_batch_scalar(tx, positions_m, out_ratio);
}

void snr_ratio_masked_batch(const DownlinkTxSoA& tx,
                            std::span<const double> active,
                            std::span<const double> positions_m,
                            std::span<double> out_ratio) {
#if defined(RAILCORR_HAVE_AVX2)
  if (active_simd_level() == SimdLevel::kAvx2) {
    snr_ratio_masked_batch_avx2(tx, active, positions_m, out_ratio);
    return;
  }
#endif
  snr_ratio_masked_batch_scalar(tx, active, positions_m, out_ratio);
}

void uplink_best_ratio_batch(const UplinkTxSoA& tx,
                             std::span<const double> positions_m,
                             std::span<double> out_ratio) {
#if defined(RAILCORR_HAVE_AVX2)
  if (active_simd_level() == SimdLevel::kAvx2) {
    uplink_best_ratio_batch_avx2(tx, positions_m, out_ratio);
    return;
  }
#endif
  uplink_best_ratio_batch_scalar(tx, positions_m, out_ratio);
}

}  // namespace railcorr::rf
