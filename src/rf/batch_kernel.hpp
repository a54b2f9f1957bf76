/// \file batch_kernel.hpp
/// \brief SoA (structure-of-arrays) SIMD link-budget kernels and their
///        runtime dispatch.
///
/// The scalar link model stores one `TxKernel` struct per transmitter
/// (AoS). The hot batch paths instead iterate a handful of parallel
/// `double` arrays — one per precomputed constant — so the compiler (and
/// the hand-written AVX2 translation unit) can evaluate four track
/// positions per instruction. Every per-position arithmetic sequence is
/// *identical* across the scalar and AVX2 kernels (same operations, same
/// transmitter order, no FMA contraction), so the two produce
/// bit-identical output; tests/rf/batch_kernel_test.cpp pins this.
///
/// Dispatch: the widest kernel supported by the CPU at runtime is
/// selected once (`__builtin_cpu_supports("avx2")`); the AVX2 TU is only
/// compiled when the toolchain targets x86-64 (CMake option
/// `RAILCORR_ENABLE_AVX2`, default ON). `force_simd_level()` overrides
/// the choice for tests and benchmarks, and the `RAILCORR_SIMD`
/// environment variable (`scalar` / `avx2` / `auto`) overrides it for
/// whole runs. The dispatch machinery itself lives in util/vmath.hpp
/// (one process-wide switch shared with the batched transcendentals)
/// and is re-exported here under the historical rf:: names.
///
/// \par Thread safety
/// The SoA structs are immutable after construction and may be shared
/// freely across threads. The batch entry points are const over the SoA
/// data and reentrant; `force_simd_level` / `reset_simd_level` are
/// process-global and must not race with concurrent kernel invocations
/// that are expected to use a specific level.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/vmath.hpp"

namespace railcorr::rf {

/// \name SIMD dispatch (re-exported from util/vmath.hpp)
/// One process-wide level switch governs the link kernels and the
/// batched transcendentals alike; see vmath.hpp for semantics.
///@{
using vmath::SimdLevel;
using vmath::active_simd_level;
using vmath::force_simd_level;
using vmath::reset_simd_level;
using vmath::simd_level_name;
///@}

/// SoA transmitter constants of the downlink Eq. (2) kernel. With the
/// near-field clamp d_eff = max(|d - position_m[i]|, min_distance_m):
///   signal [mW] = sum_i signal_gain_lin[i] / d_eff^2
///   noise  [mW] = terminal_noise_mw + sum_i noise_gain_lin[i] / d_eff^2
/// `noise_gain_lin` folds the literal Eq. (2) repeater term and (under
/// the fronthaul-aware model) the amplified fronthaul noise into one
/// constant; it is zero for high-power RRHs.
struct DownlinkTxSoA {
  std::vector<double> position_m;
  std::vector<double> signal_gain_lin;
  std::vector<double> noise_gain_lin;
  /// Terminal noise floor N_RSRP * NF_MT [mW].
  double terminal_noise_mw = 0.0;
  /// Near-field clamp for the Friis model [m].
  double min_distance_m = 1.0;

  [[nodiscard]] std::size_t size() const { return position_m.size(); }
};

/// SoA constants of the uplink best-path kernel. Per transmitter i and
/// position p, with x = snr_gain_lin[i] / d_eff^2 the single-leg SNR:
///   path ratio = x / (1 + x * inv_fronthaul_lin[i])
/// which is the amplify-and-forward combination x*fh/(x+fh) written so
/// that direct-to-mast paths are the `inv_fronthaul_lin == 0` case. The
/// kernel returns the best (max) path ratio per position.
struct UplinkTxSoA {
  std::vector<double> position_m;
  /// Per-path single-leg SNR numerator: UE RSTP [mW] over the port-to-
  /// port attenuation constant and the receiver noise floor [mW].
  std::vector<double> snr_gain_lin;
  /// 1 / SNR_fh of the relaying node's donor link (0 for masts).
  std::vector<double> inv_fronthaul_lin;
  double min_distance_m = 1.0;

  [[nodiscard]] std::size_t size() const { return position_m.size(); }
};

/// \name Dispatched batch kernels
/// `out.size()` must equal `positions_m.size()`; `out` must not alias
/// `positions_m` or any SoA array (each slot is written exactly once,
/// reads would observe partial results). All positions are evaluated
/// with the active SIMD level.
///@{

/// Linear signal/noise ratio of Eq. (2) at each position.
void snr_ratio_batch(const DownlinkTxSoA& tx,
                     std::span<const double> positions_m,
                     std::span<double> out_ratio);

/// Mask-aware variant for dynamic simulation: transmitter i contributes
/// its signal and noise scaled by `active[i]` (1.0 = radiating, 0.0 =
/// sleeping; `active.size()` must equal `tx.size()`). With an all-ones
/// mask the output is bit-identical to snr_ratio_batch (multiplying a
/// gain by 1.0 is exact). A fully dark mask yields ratio 0 (the caller
/// converts to its dB floor).
void snr_ratio_masked_batch(const DownlinkTxSoA& tx,
                            std::span<const double> active,
                            std::span<const double> positions_m,
                            std::span<double> out_ratio);

/// Best-path linear uplink SNR at each position.
void uplink_best_ratio_batch(const UplinkTxSoA& tx,
                             std::span<const double> positions_m,
                             std::span<double> out_ratio);

/// Relative slack δ of the block bound: a block clears a floor M only
/// when its bound clears M·(1+δ). δ dwarfs the exact kernel's rounding
/// (~(2n+4)·2⁻⁵³ relative for n transmitters).
inline constexpr double kBlockBoundSlack = 1e-6;

/// Relative margin of the block bound's own rounding: the bound's sum
/// must exceed this share of the sum of its terms' magnitudes. Covers
/// ~(n+4)·2⁻⁵³ for tables of up to ~4·10⁵ transmitters.
inline constexpr double kBlockBoundMargin = 1e-10;

/// Block bound of snr_ratio_batch: `out_clears[j]` is 1 when every ratio
/// snr_ratio_batch computes at a position in [first_m[j], last_m[j]]
/// provably exceeds `floor_ratio` (>= 0; a floor of +inf or NaN clears
/// nothing), and 0 when that is not proven. `first_m[j] <= last_m[j]`;
/// all three spans have one slot per block. Both lanes run the same
/// operations in the same order, so a block's decision does not depend
/// on the SIMD level or the CPU. The argument is spelled out in
/// batch_kernel.cpp.
void snr_ratio_block_clears_batch(const DownlinkTxSoA& tx,
                                  std::span<const double> first_m,
                                  std::span<const double> last_m,
                                  double floor_ratio,
                                  std::span<std::uint8_t> out_clears);
///@}

/// \name Fixed-level kernels
/// The concrete implementations behind the dispatcher, exposed so tests
/// can compare levels directly. Same preconditions as above.
///@{
void snr_ratio_batch_scalar(const DownlinkTxSoA& tx,
                            std::span<const double> positions_m,
                            std::span<double> out_ratio);
void snr_ratio_masked_batch_scalar(const DownlinkTxSoA& tx,
                                   std::span<const double> active,
                                   std::span<const double> positions_m,
                                   std::span<double> out_ratio);
void uplink_best_ratio_batch_scalar(const UplinkTxSoA& tx,
                                    std::span<const double> positions_m,
                                    std::span<double> out_ratio);
void snr_ratio_block_clears_batch_scalar(const DownlinkTxSoA& tx,
                                         std::span<const double> first_m,
                                         std::span<const double> last_m,
                                         double floor_ratio,
                                         std::span<std::uint8_t> out_clears);
#if defined(RAILCORR_HAVE_AVX2)
void snr_ratio_batch_avx2(const DownlinkTxSoA& tx,
                          std::span<const double> positions_m,
                          std::span<double> out_ratio);
void snr_ratio_masked_batch_avx2(const DownlinkTxSoA& tx,
                                 std::span<const double> active,
                                 std::span<const double> positions_m,
                                 std::span<double> out_ratio);
void uplink_best_ratio_batch_avx2(const UplinkTxSoA& tx,
                                  std::span<const double> positions_m,
                                  std::span<double> out_ratio);
void snr_ratio_block_clears_batch_avx2(const DownlinkTxSoA& tx,
                                       std::span<const double> first_m,
                                       std::span<const double> last_m,
                                       double floor_ratio,
                                       std::span<std::uint8_t> out_clears);
#endif
///@}

/// \name Blocked reductions over a batch kernel
/// Allocation-free driving loops shared by every min/mean entry point:
/// positions stream through fixed-size stack blocks (2 KiB), each block
/// is evaluated with one kernel call, and `consume(ratio)` runs once
/// per position in position order (so order-dependent reductions like a
/// dB-domain mean stay deterministic).
///@{

/// Stack-block size of the blocked reductions.
inline constexpr std::size_t kBatchBlock = 256;

/// Evaluate `kernel(block_positions, block_ratios)` over fixed-size
/// blocks of `positions_m` and hand each ratio block to `consume_block`
/// (a span of up to kBatchBlock ratios, in position order). The block
/// form lets callers run a batched pass (e.g. a vmath dB conversion)
/// per block instead of per element.
template <typename Kernel, typename ConsumeBlock>
void blocked_ratio_blocks(std::span<const double> positions_m,
                          Kernel&& kernel, ConsumeBlock&& consume_block) {
  std::array<double, kBatchBlock> ratios;
  for (std::size_t begin = 0; begin < positions_m.size();
       begin += kBatchBlock) {
    const std::size_t count =
        std::min(kBatchBlock, positions_m.size() - begin);
    kernel(positions_m.subspan(begin, count),
           std::span<double>(ratios.data(), count));
    consume_block(std::span<const double>(ratios.data(), count));
  }
}

/// Per-element wrapper: feed every ratio to `consume` in order.
template <typename Kernel, typename Consume>
void blocked_ratios(std::span<const double> positions_m, Kernel&& kernel,
                    Consume&& consume) {
  blocked_ratio_blocks(positions_m, kernel,
                       [&](std::span<const double> block) {
                         for (const double r : block) consume(r);
                       });
}

/// Same over the generated arithmetic scan `lo, lo+step, ...` up to
/// `hi + step/2`, with every sample clamped to `hi` (the historical
/// scalar sampling sequence of the range-based min/mean overloads:
/// accumulated steps, end clamp), in blocks of `Block` positions. The
/// positions do not depend on `Block`.
template <std::size_t Block = kBatchBlock, typename Kernel,
          typename ConsumeBlock>
void blocked_range_ratio_blocks(double lo_m, double hi_m, double step_m,
                                Kernel&& kernel,
                                ConsumeBlock&& consume_block) {
  std::array<double, Block> positions;
  std::array<double, Block> ratios;
  double d = lo_m;
  const double end = hi_m + 0.5 * step_m;
  while (d <= end) {
    std::size_t count = 0;
    for (; count < Block && d <= end; ++count, d += step_m) {
      positions[count] = std::min(d, hi_m);
    }
    kernel(std::span<const double>(positions.data(), count),
           std::span<double>(ratios.data(), count));
    consume_block(std::span<const double>(ratios.data(), count));
  }
}

/// Per-element wrapper of the range scan.
template <typename Kernel, typename Consume>
void blocked_range_ratios(double lo_m, double hi_m, double step_m,
                          Kernel&& kernel, Consume&& consume) {
  blocked_range_ratio_blocks(lo_m, hi_m, step_m, kernel,
                             [&](std::span<const double> block) {
                               for (const double r : block) consume(r);
                             });
}
///@}

}  // namespace railcorr::rf
