/// \file throughput.hpp
/// \brief Calibrated Shannon-bound throughput mapping from 3GPP TR 36.942
///        Annex A.2, as used by the paper (alpha = 0.6, Thr_MAX =
///        5.84 bps/Hz for 5G NR).
///
/// The model is
///   SE(SNR) = 0                      for SNR <  SNR_MIN
///   SE(SNR) = alpha * log2(1 + SNR)  for SNR_MIN <= SNR < SNR_MAX
///   SE(SNR) = SE_MAX                 for SNR >= SNR_MAX
/// where SNR_MAX is the point at which the attenuated Shannon bound
/// reaches SE_MAX. With alpha = 0.6 and SE_MAX = 5.84 bps/Hz this is
/// 2^(5.84/0.6) - 1 = 29.28 dB — the paper's "peak throughput at
/// SNR > 29 dB" criterion.
#pragma once

#include <span>

#include "util/units.hpp"

namespace railcorr::rf {

class ThroughputModel {
 public:
  /// \param alpha    attenuation factor on the Shannon bound, in (0, 1]
  /// \param se_max   maximum spectral efficiency [bps/Hz], > 0
  /// \param snr_min  SNR below which throughput is zero
  ThroughputModel(double alpha, double se_max_bps_hz, Db snr_min);

  /// Spectral efficiency [bps/Hz] at the given SNR.
  [[nodiscard]] double spectral_efficiency(Db snr) const;

  /// Batched spectral efficiency over many SNR samples [dB]. The two
  /// transcendental passes (dB -> linear, Shannon log2) run through the
  /// vmath batches, so the output is bit-identical to calling
  /// spectral_efficiency per element. `out_se` must have snr_db.size()
  /// slots and must not alias
  /// `snr_db` (the input is re-read for the SNR_MIN cutoff after the
  /// linear-domain passes).
  void spectral_efficiency_batch(std::span<const double> snr_db,
                                 std::span<double> out_se) const;

  /// Absolute throughput [bps] over `bandwidth_hz`.
  [[nodiscard]] double throughput_bps(Db snr, double bandwidth_hz) const;

  /// The SNR at which spectral efficiency saturates at se_max.
  [[nodiscard]] Db peak_snr() const;

  /// SNR needed to reach spectral efficiency `se` (<= se_max); returns
  /// peak_snr() for se == se_max. Requires 0 < se <= se_max.
  [[nodiscard]] Db snr_for(double se_bps_hz) const;

  [[nodiscard]] double alpha() const { return alpha_; }
  [[nodiscard]] double se_max_bps_hz() const { return se_max_; }
  [[nodiscard]] Db snr_min() const { return snr_min_; }

  /// Paper parameters: alpha = 0.6, Thr_MAX = 5.84 bps/Hz, SNR_MIN = -10 dB
  /// (TR 36.942's lower working point).
  [[nodiscard]] static ThroughputModel paper_model();

 private:
  double alpha_;
  double se_max_;
  Db snr_min_;
};

}  // namespace railcorr::rf
