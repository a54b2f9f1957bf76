/// \file link.hpp
/// \brief The corridor link model: per-node RSRP, aggregate signal, noise
///        injection, and the SNR profile of paper Eq. (2).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "rf/batch_kernel.hpp"
#include "rf/carrier.hpp"
#include "rf/fronthaul.hpp"
#include "rf/noise.hpp"
#include "rf/path_loss.hpp"
#include "util/units.hpp"

namespace railcorr::rf {

/// What kind of trackside transmitter a node is.
enum class NodeKind {
  kHighPowerRrh,     ///< macro remote radio head at a mast
  kLowPowerRepeater  ///< amplify-and-forward service repeater node
};

/// One trackside transmitter contributing signal (and, for repeaters,
/// noise) at track positions.
struct TrackTransmitter {
  NodeKind kind = NodeKind::kHighPowerRrh;
  /// Position along the track [m].
  double position_m = 0.0;
  /// Per-subcarrier reference-signal transmit power.
  Dbm rstp{0.0};
  /// Port-to-port calibration loss L_calib (paper: 33 dB HP, 20 dB LP).
  Db calibration{0.0};
  /// For repeaters: length of the mmWave donor link feeding this node [m].
  /// Ignored for high-power RRHs.
  double donor_distance_m = 0.0;
};

/// Which repeater-noise interpretation Eq. (2) is evaluated with.
enum class RepeaterNoiseModel {
  /// Literal reading of Eq. (2): N_LP,n(d) = N_RSRP * NF_LP / L_LP,n(d).
  /// Numerically negligible (~60 dB below the terminal floor).
  kLiteralEq2,
  /// Literal term plus amplified fronthaul noise: the service node
  /// retransmits its receive-chain noise with the same gain as the
  /// signal, so the received repeater SNR is bounded by the fronthaul
  /// SNR of its donor link. Reproduces the published max-ISD list.
  kFronthaulAware,
};

/// Configuration of the corridor link model.
struct LinkModelConfig {
  NrCarrier carrier = NrCarrier::paper_carrier();
  NoiseBudget noise = NoiseBudget::paper_budget();
  RepeaterNoiseModel noise_model = RepeaterNoiseModel::kFronthaulAware;
  FronthaulModel fronthaul = FronthaulModel::paper_calibrated();
  /// Near-field clamp for the Friis model [m].
  double min_distance_m = 1.0;
};

/// Aggregate link quantities at one track position.
struct SignalSample {
  double position_m = 0.0;
  /// Sum of all node RSRP contributions (linear sum), as a level.
  Dbm total_signal{0.0};
  /// Terminal noise + all repeater noise injections, as a level.
  Dbm total_noise{0.0};
  /// total_signal - total_noise.
  Db snr{0.0};
};

/// Precomputed linear-domain constants of one transmitter, hoisted out
/// of the per-position hot loops. With the near-field clamp
/// d_eff = max(|d - position_m|, min_distance_m), the contributions are
///   signal [mW]          = signal_gain_lin / d_eff^2
///   literal Eq.(2) noise = literal_noise_gain_lin / d_eff^2
///   fronthaul noise      = signal * fronthaul_factor_lin
/// (noise terms are zero for high-power RRHs).
struct TxKernel {
  double position_m = 0.0;
  bool repeater = false;
  double signal_gain_lin = 0.0;
  double literal_noise_gain_lin = 0.0;
  /// 10^(-SNR_fh/10) of the node's donor link (0 for RRHs).
  double fronthaul_factor_lin = 0.0;
};

/// \name Transmitter constants
/// The steps CorridorLinkModel's constructor derives each transmitter's
/// constants by. A caller that lays one transmitter population out at
/// many geometries (the max-ISD search) runs the position-independent
/// first step once and the rest per layout, and its constants are
/// bit-identical to a freshly built model's.
///@{
/// Kind, signal gain and literal noise gain of `tx`. Its position and
/// donor distance are not read; the result's are zero.
[[nodiscard]] TxKernel tx_gains(const LinkModelConfig& config,
                                const TrackTransmitter& tx);

/// `gains` at `position_m`; a repeater also gets the fronthaul factor
/// of its `donor_distance_m` (>= 0) donor link.
[[nodiscard]] TxKernel place_tx(const LinkModelConfig& config, TxKernel gains,
                                double position_m, double donor_distance_m);

/// DownlinkTxSoA::noise_gain_lin of `k`: the literal Eq. (2) term plus,
/// under the fronthaul-aware model, the amplified fronthaul noise.
[[nodiscard]] double soa_noise_gain(const LinkModelConfig& config,
                                    const TxKernel& k);
///@}

/// Minimum SNR of the transmitters `soa` over [lo, hi] sampled every
/// `step_m` (> 0): CorridorLinkModel::min_snr(lo, hi, step) of the
/// model whose soa() it is. Allocation-free: positions are generated on
/// the fly and reduced in the linear domain (one log10 total).
[[nodiscard]] Db min_snr(const DownlinkTxSoA& soa, double lo_m, double hi_m,
                         double step_m);

/// A stretch [lo_m, hi_m] of track, sampled as min_snr samples it.
struct TrackSpan {
  double lo_m = 0.0;
  double hi_m = 0.0;
};

/// Samples per block of min_ratio_pruned's bound. On the 256 checks of
/// the 10-segment `radio_distinct_fleet` plan, 85.3 % of the 4-sample
/// blocks after the first span clear the running minimum, but 54.9 % of
/// 8-sample and 21.3 % of 16-sample blocks: the larger a block, the
/// more often a transmitter inside it pins the bound to the clamp.
inline constexpr std::size_t kPruneBlock = 4;

/// Work of min_ratio_pruned calls.
struct PrunedScanCounts {
  /// Samples the exact kernel evaluated.
  std::uint64_t exact_samples = 0;
  /// Blocks the bound cleared, whose samples were not evaluated.
  std::uint64_t cleared_blocks = 0;
};

/// The smallest ratio snr_ratio_batch computes over the sample sequences
/// of `spans` (each min_snr's sequence over its [lo, hi]), bit for bit,
/// without evaluating most samples. `spans[0]` is scanned exactly and
/// sets a running minimum. Every later span goes kPruneBlock samples at
/// a time: a block snr_ratio_block_clears_batch proves to lie above the
/// running minimum is skipped, the rest are evaluated exactly. The order
/// of `spans` changes only the work, so put the likeliest home of the
/// minimum first. Adds the work to `counts`. `spans` is non-empty and
/// `step_m` > 0.
[[nodiscard]] double min_ratio_pruned(const DownlinkTxSoA& soa,
                                      std::span<const TrackSpan> spans,
                                      double step_m, PrunedScanCounts& counts);

/// Evaluates Eq. (2) along the track for a fixed set of transmitters.
///
/// All powers are per-subcarrier (RSTP/RSRP domain), matching the paper.
class CorridorLinkModel {
 public:
  CorridorLinkModel(LinkModelConfig config,
                    std::vector<TrackTransmitter> transmitters);

  /// RSRP contribution of transmitter `node` at `position_m`.
  [[nodiscard]] Dbm rsrp_of(std::size_t node, double position_m) const;

  /// Linear sum of all transmitter contributions at `position_m`.
  [[nodiscard]] MilliWatts total_signal(double position_m) const;

  /// Terminal noise plus repeater noise injections at `position_m`.
  [[nodiscard]] MilliWatts total_noise(double position_m) const;

  /// SNR(d) per Eq. (2).
  [[nodiscard]] Db snr(double position_m) const;

  /// \name Masked variants (for dynamic simulation)
  /// Only transmitters whose mask entry is true contribute signal and
  /// noise — a sleeping repeater neither amplifies nor injects noise.
  /// The mask size must equal transmitters().size().
  ///@{
  [[nodiscard]] MilliWatts total_signal(double position_m,
                                        const std::vector<bool>& active) const;
  [[nodiscard]] MilliWatts total_noise(double position_m,
                                       const std::vector<bool>& active) const;
  [[nodiscard]] Db snr(double position_m,
                       const std::vector<bool>& active) const;
  ///@}

  /// Full breakdown at one position.
  [[nodiscard]] SignalSample sample(double position_m) const;

  /// Breakdown at each requested position.
  [[nodiscard]] std::vector<SignalSample> profile(
      const std::vector<double>& positions_m) const;

  /// \name Batched link-budget kernel
  /// SoA evaluation over many positions using the precomputed
  /// linear-domain transmitter constants: one multiply-add per
  /// (position, transmitter) pair and a single log10 per position,
  /// instead of the scalar path's dB->linear round-trip per pair.
  /// Runs at the active SIMD level (rf::active_simd_level(): AVX2 when
  /// the CPU and build support it, portable scalar otherwise); all
  /// levels are bit-identical. Agrees with the scalar snr() to well
  /// below 1e-12 dB.
  ///
  /// \par Thread safety and aliasing
  /// The model is immutable after construction; any number of threads
  /// may call these concurrently on the same instance. `out_snr_db`
  /// must not alias `positions_m` (slots are written as ratios first
  /// and converted to dB in place) and must provide exactly
  /// positions_m.size() slots.
  ///@{
  /// SNR [dB] at each position; `out` must have positions.size() slots.
  void snr_batch(std::span<const double> positions_m,
                 std::span<double> out_snr_db) const;

  /// Masked SNR [dB] at each position: transmitter i contributes only
  /// when `active[i]` is 1.0 (0.0 = sleeping; one multiplier per
  /// transmitter). Linear-domain SoA evaluation like snr_batch — this
  /// is the DES QoS recorder's kernel — with an all-ones mask the
  /// output is bit-identical to snr_batch. Fully dark positions report
  /// the -200 dB floor of the scalar masked snr().
  void snr_batch(std::span<const double> positions_m,
                 std::span<const double> active,
                 std::span<double> out_snr_db) const;

  /// Minimum SNR over caller-provided positions, allocation-free
  /// (fixed-size stack blocks through the batch kernel, reduced in the
  /// linear domain with a single final log10).
  [[nodiscard]] Db min_snr(std::span<const double> positions_m) const;
  ///@}

  /// Minimum SNR over [lo, hi] sampled every `step_m` (> 0).
  /// Allocation-free: positions are generated on the fly and reduced in
  /// the linear domain (one log10 total).
  [[nodiscard]] Db min_snr(double lo_m, double hi_m, double step_m) const;

  /// Mean of SNR in dB over [lo, hi] sampled every `step_m` (> 0).
  [[nodiscard]] Db mean_snr_db(double lo_m, double hi_m, double step_m) const;

  [[nodiscard]] const std::vector<TrackTransmitter>& transmitters() const {
    return transmitters_;
  }
  [[nodiscard]] const LinkModelConfig& config() const { return config_; }

  /// The precomputed per-transmitter constants (for callers that fuse
  /// their own per-position terms into the kernel, e.g. the shadowing
  /// Monte Carlo).
  [[nodiscard]] const std::vector<TxKernel>& kernels() const {
    return kernels_;
  }
  /// The same constants in SoA layout, as consumed by the SIMD batch
  /// kernels (noise gains folded per the configured RepeaterNoiseModel).
  [[nodiscard]] const DownlinkTxSoA& soa() const { return soa_; }
  /// Terminal noise floor N_RSRP * NF_MT [mW].
  [[nodiscard]] double terminal_noise_mw() const { return terminal_noise_mw_; }
  /// Near-field clamp distance [m].
  [[nodiscard]] double min_distance_m() const { return config_.min_distance_m; }

 private:
  LinkModelConfig config_;
  std::vector<TrackTransmitter> transmitters_;
  std::vector<CalibratedPathLoss> path_loss_;  // one per transmitter
  std::vector<TxKernel> kernels_;              // one per transmitter
  DownlinkTxSoA soa_;                          // same constants, SoA layout
  double terminal_noise_mw_ = 0.0;
};

}  // namespace railcorr::rf
