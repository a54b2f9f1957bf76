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

// Why a cleared block holds no ratio at or below the floor M.
//
// Let M' = M·(1+δ), a = first_m[j] and b = last_m[j]. For a position p
// in [a, b], snr_ratio_batch_scalar computes per transmitter i the
// weight w_i(p) = 1/(d·d) with d = max(|p - x_i|, min_d), and returns
// the rounded sum of s_i·w_i over the rounded T + sum of n_i·w_i.
//
// 1. The weights lie in a box. Subtraction, abs, max, squaring and the
//    reciprocal are monotone IEEE operations, so on each side of x_i
//    the computed w_i(p) is monotone in p: it lies between its values
//    at a and b, and w_i(p) <= 1/(min_d·min_d) always. Writing
//    u = a - x_i and v = b - x_i (u <= v), the far end's distance is
//    max(-u, v) and gives the smallest weight lo_i; the near end's is
//    max(u, -v), negative exactly when x_i lies inside (a, b), where
//    the clamp gives the largest weight hi_i. These are the very
//    operations the kernel runs, so lo_i and hi_i are computed weights
//    the kernel can produce, not approximations of them.
// 2. The box minimum is exact. ratio > M' is
//      L(w) = -M'·T + sum_i c_i·w_i > 0, with c_i = s_i - M'·n_i,
//    linear in w, so its minimum over the box takes w_i = lo_i where
//    c_i >= 0 and w_i = hi_i where c_i < 0. IEEE subtraction rounds
//    with the sign of the exact difference, so the computed c_i picks
//    the right corner; the rounding of M'·n_i and M'·T only moves M' by
//    2⁻⁵³ relative per term.
// 3. The bound's own rounding is covered. Each term c_i/(d·d) is within
//    3 ulps of c_i·w_i at the chosen corner, and the rounded sum of the
//    n+1 terms is within ~(n+4)·2⁻⁵³ times the sum of their magnitudes
//    `mass` of the exact minimum, so `bound > kBlockBoundMargin·mass`
//    implies L > 0 over the whole box: a ratio above M'·(1 - 2⁻⁵³) at
//    every computed weight.
// 4. The kernel's rounding is covered. Its signal and noise sums of
//    non-negative terms and the final division are within
//    ~(2n+4)·2⁻⁵³ relative of the ratio at its own weights, which δ
//    dwarfs, so every computed ratio in the block exceeds M.
//
// The AVX2 lane runs these operations in this order with one block per
// lane, so both lanes clear the same blocks. NaN anywhere fails the
// final comparison, and a block that is not proven is never cleared.
void snr_ratio_block_clears_batch_scalar(const DownlinkTxSoA& tx,
                                         std::span<const double> first_m,
                                         std::span<const double> last_m,
                                         double floor_ratio,
                                         std::span<std::uint8_t> out_clears) {
  RAILCORR_EXPECTS(last_m.size() == first_m.size());
  RAILCORR_EXPECTS(out_clears.size() == first_m.size());
  const std::size_t n_tx = tx.size();
  const double* const tx_pos = tx.position_m.data();
  const double* const sg = tx.signal_gain_lin.data();
  const double* const ng = tx.noise_gain_lin.data();
  const double min_d = tx.min_distance_m;
  const double floor_hi = floor_ratio * (1.0 + kBlockBoundSlack);
  const double terminal_term = floor_hi * tx.terminal_noise_mw;
  for (std::size_t j = 0; j < first_m.size(); ++j) {
    const double a = first_m[j];
    const double b = last_m[j];
    double bound = -terminal_term;
    double mass = terminal_term;
    for (std::size_t i = 0; i < n_tx; ++i) {
      const double c = sg[i] - floor_hi * ng[i];
      const double u = a - tx_pos[i];
      const double v = b - tx_pos[i];
      const double d = c >= 0.0 ? std::max(-u, v) : std::max(u, -v);
      const double d_eff = std::max(d, min_d);
      const double term = c / (d_eff * d_eff);
      bound += term;
      mass += std::abs(term);
    }
    out_clears[j] = bound > kBlockBoundMargin * mass ? 1 : 0;
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

void snr_ratio_block_clears_batch(const DownlinkTxSoA& tx,
                                  std::span<const double> first_m,
                                  std::span<const double> last_m,
                                  double floor_ratio,
                                  std::span<std::uint8_t> out_clears) {
#if defined(RAILCORR_HAVE_AVX2)
  if (active_simd_level() == SimdLevel::kAvx2) {
    snr_ratio_block_clears_batch_avx2(tx, first_m, last_m, floor_ratio,
                                      out_clears);
    return;
  }
#endif
  snr_ratio_block_clears_batch_scalar(tx, first_m, last_m, floor_ratio,
                                      out_clears);
}

}  // namespace railcorr::rf
