/// AVX2 lane of the SoA batch kernels: four track positions per
/// iteration, transmitters in the inner loop in index order.
///
/// Bit-identity with the scalar kernels is load-bearing (the determinism
/// contract extends across SIMD levels), so this TU restricts itself to
/// IEEE-exact operations that match the scalar code one-to-one:
/// vandpd (abs), vmaxpd, vmulpd, vdivpd, vaddpd, and for the block
/// bound vsubpd, vxorpd (negation) and an ordered vcmppd. No FMA — the
/// library is compiled with -ffp-contract=off (see CMakeLists.txt) so
/// the scalar kernels cannot be contracted either — and no reassociation:
/// the accumulation order over transmitters is the scalar order, only
/// the position (for the bound: the block) dimension is widened.
///
/// This file is compiled with -mavx2 only when CMake detects an x86-64
/// target (RAILCORR_ENABLE_AVX2); callers reach it exclusively through
/// the runtime dispatcher in batch_kernel.cpp.
#include "rf/batch_kernel.hpp"

#if defined(RAILCORR_HAVE_AVX2) && defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>

#include "util/contracts.hpp"

namespace railcorr::rf {

namespace {

/// |x| for four doubles (clears the sign bit; exact).
inline __m256d abs4(__m256d x) {
  const __m256d sign_mask = _mm256_set1_pd(-0.0);
  return _mm256_andnot_pd(sign_mask, x);
}

}  // namespace

void snr_ratio_batch_avx2(const DownlinkTxSoA& tx,
                          std::span<const double> positions_m,
                          std::span<double> out_ratio) {
  RAILCORR_EXPECTS(out_ratio.size() == positions_m.size());
  const std::size_t n_tx = tx.size();
  const double* const tx_pos = tx.position_m.data();
  const double* const sg = tx.signal_gain_lin.data();
  const double* const ng = tx.noise_gain_lin.data();
  const __m256d min_d = _mm256_set1_pd(tx.min_distance_m);
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d terminal = _mm256_set1_pd(tx.terminal_noise_mw);

  const std::size_t n = positions_m.size();
  std::size_t p = 0;
  for (; p + 4 <= n; p += 4) {
    const __m256d pos = _mm256_loadu_pd(positions_m.data() + p);
    __m256d signal = _mm256_setzero_pd();
    __m256d noise = terminal;
    for (std::size_t i = 0; i < n_tx; ++i) {
      const __m256d d =
          abs4(_mm256_sub_pd(pos, _mm256_set1_pd(tx_pos[i])));
      const __m256d d_eff = _mm256_max_pd(d, min_d);
      const __m256d inv_d2 =
          _mm256_div_pd(one, _mm256_mul_pd(d_eff, d_eff));
      signal = _mm256_add_pd(signal,
                             _mm256_mul_pd(_mm256_set1_pd(sg[i]), inv_d2));
      noise = _mm256_add_pd(noise,
                            _mm256_mul_pd(_mm256_set1_pd(ng[i]), inv_d2));
    }
    _mm256_storeu_pd(out_ratio.data() + p, _mm256_div_pd(signal, noise));
  }
  if (p < n) {
    // Remainder positions go through the scalar kernel (identical math).
    snr_ratio_batch_scalar(tx, positions_m.subspan(p), out_ratio.subspan(p));
  }
}

void snr_ratio_masked_batch_avx2(const DownlinkTxSoA& tx,
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
  const __m256d min_d = _mm256_set1_pd(tx.min_distance_m);
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d terminal = _mm256_set1_pd(tx.terminal_noise_mw);

  const std::size_t n = positions_m.size();
  std::size_t p = 0;
  for (; p + 4 <= n; p += 4) {
    const __m256d pos = _mm256_loadu_pd(positions_m.data() + p);
    __m256d signal = _mm256_setzero_pd();
    __m256d noise = terminal;
    for (std::size_t i = 0; i < n_tx; ++i) {
      const __m256d d =
          abs4(_mm256_sub_pd(pos, _mm256_set1_pd(tx_pos[i])));
      const __m256d d_eff = _mm256_max_pd(d, min_d);
      const __m256d inv_d2 =
          _mm256_div_pd(one, _mm256_mul_pd(d_eff, d_eff));
      // mask * gain first, exactly like the scalar masked kernel.
      const __m256d m = _mm256_set1_pd(mask[i]);
      signal = _mm256_add_pd(
          signal,
          _mm256_mul_pd(_mm256_mul_pd(m, _mm256_set1_pd(sg[i])), inv_d2));
      noise = _mm256_add_pd(
          noise,
          _mm256_mul_pd(_mm256_mul_pd(m, _mm256_set1_pd(ng[i])), inv_d2));
    }
    _mm256_storeu_pd(out_ratio.data() + p, _mm256_div_pd(signal, noise));
  }
  if (p < n) {
    snr_ratio_masked_batch_scalar(tx, active, positions_m.subspan(p),
                                  out_ratio.subspan(p));
  }
}

void uplink_best_ratio_batch_avx2(const UplinkTxSoA& tx,
                                  std::span<const double> positions_m,
                                  std::span<double> out_ratio) {
  RAILCORR_EXPECTS(out_ratio.size() == positions_m.size());
  const std::size_t n_tx = tx.size();
  const double* const tx_pos = tx.position_m.data();
  const double* const gain = tx.snr_gain_lin.data();
  const double* const inv_fh = tx.inv_fronthaul_lin.data();
  const __m256d min_d = _mm256_set1_pd(tx.min_distance_m);
  const __m256d one = _mm256_set1_pd(1.0);

  const std::size_t n = positions_m.size();
  std::size_t p = 0;
  for (; p + 4 <= n; p += 4) {
    const __m256d pos = _mm256_loadu_pd(positions_m.data() + p);
    __m256d best = _mm256_setzero_pd();
    for (std::size_t i = 0; i < n_tx; ++i) {
      const __m256d d =
          abs4(_mm256_sub_pd(pos, _mm256_set1_pd(tx_pos[i])));
      const __m256d d_eff = _mm256_max_pd(d, min_d);
      const __m256d x = _mm256_div_pd(_mm256_set1_pd(gain[i]),
                                      _mm256_mul_pd(d_eff, d_eff));
      const __m256d denom = _mm256_add_pd(
          one, _mm256_mul_pd(x, _mm256_set1_pd(inv_fh[i])));
      best = _mm256_max_pd(best, _mm256_div_pd(x, denom));
    }
    _mm256_storeu_pd(out_ratio.data() + p, best);
  }
  if (p < n) {
    uplink_best_ratio_batch_scalar(tx, positions_m.subspan(p),
                                   out_ratio.subspan(p));
  }
}

void snr_ratio_block_clears_batch_avx2(const DownlinkTxSoA& tx,
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
  const __m256d sign_mask = _mm256_set1_pd(-0.0);
  const __m256d min_d = _mm256_set1_pd(tx.min_distance_m);
  const __m256d margin = _mm256_set1_pd(kBlockBoundMargin);
  const double floor_hi = floor_ratio * (1.0 + kBlockBoundSlack);
  const double terminal_term = floor_hi * tx.terminal_noise_mw;

  // One block per lane; the scalar lane's per-block order otherwise.
  const std::size_t n = first_m.size();
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256d a = _mm256_loadu_pd(first_m.data() + j);
    const __m256d b = _mm256_loadu_pd(last_m.data() + j);
    __m256d bound = _mm256_set1_pd(-terminal_term);
    __m256d mass = _mm256_set1_pd(terminal_term);
    for (std::size_t i = 0; i < n_tx; ++i) {
      const double c = sg[i] - floor_hi * ng[i];
      const __m256d x = _mm256_set1_pd(tx_pos[i]);
      const __m256d u = _mm256_sub_pd(a, x);
      const __m256d v = _mm256_sub_pd(b, x);
      // Negation flips the sign bit, exactly as the scalar `-u`.
      const __m256d d =
          c >= 0.0 ? _mm256_max_pd(_mm256_xor_pd(u, sign_mask), v)
                   : _mm256_max_pd(u, _mm256_xor_pd(v, sign_mask));
      const __m256d d_eff = _mm256_max_pd(d, min_d);
      const __m256d term =
          _mm256_div_pd(_mm256_set1_pd(c), _mm256_mul_pd(d_eff, d_eff));
      bound = _mm256_add_pd(bound, term);
      mass = _mm256_add_pd(mass, abs4(term));
    }
    const int clears = _mm256_movemask_pd(
        _mm256_cmp_pd(bound, _mm256_mul_pd(margin, mass), _CMP_GT_OQ));
    for (std::size_t k = 0; k < 4; ++k) {
      out_clears[j + k] = static_cast<std::uint8_t>((clears >> k) & 1);
    }
  }
  if (j < n) {
    snr_ratio_block_clears_batch_scalar(tx, first_m.subspan(j),
                                        last_m.subspan(j), floor_ratio,
                                        out_clears.subspan(j));
  }
}

}  // namespace railcorr::rf

#endif  // RAILCORR_HAVE_AVX2 && __AVX2__
