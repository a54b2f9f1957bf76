/// \file vmath.hpp
/// \brief Batched vector math and the process-wide SIMD dispatch shared
///        by every batch kernel.
///
/// One numeric contract governs every batch in this header and the SoA
/// link kernels built on top of it: each transcendental is evaluated
/// with the exact scalar-libm call sequence of the per-element loops, so
/// output is byte-identical at every SIMD level, on every machine with
/// the same libm. The sweep-merge determinism contract, the golden
/// digests and the result-cache keys are all stated in it.
///
/// **SimdLevel** selects the instruction set the batch kernels run on;
/// all levels produce the same bits.
///
/// \par Thread safety
/// All batch entry points are pure over their inputs and reentrant.
/// The force/reset switches are process-global relaxed atomics and must
/// not race with concurrent batches that expect a specific setting.
#pragma once

#include <cstddef>
#include <span>
#include <string_view>

namespace railcorr::vmath {

/// Instruction-set level a batch runs at (shared by the vmath batches
/// and the rf SoA link kernels).
enum class SimdLevel {
  kScalar,  ///< portable C++ loop (auto-vectorizable)
  kAvx2,    ///< 4-wide AVX2 intrinsics
};

/// The level the dispatcher will use: a `force_simd_level` override if
/// set, else the `RAILCORR_SIMD` environment variable (`scalar` /
/// `avx2` / `auto`), else the widest level the CPU and build support.
[[nodiscard]] SimdLevel active_simd_level();

/// Pin the dispatcher to `level` (a level the build/CPU cannot run
/// degrades to scalar). For tests and benchmarks.
void force_simd_level(SimdLevel level);

/// Drop any `force_simd_level` override; dispatch returns to automatic
/// (environment variable, then CPU detection).
void reset_simd_level();

/// Human-readable name of a level ("scalar", "avx2").
[[nodiscard]] std::string_view simd_level_name(SimdLevel level);

/// True when the CPU supports FMA3 (cached). The batched RNG's AVX2
/// lane requires FMA on top of AVX2; virtually every AVX2 CPU has it,
/// but the dispatch checks rather than assumes.
[[nodiscard]] bool cpu_has_fma();

/// \name Accuracy-mode compatibility
/// There is one numeric contract (see file header); these names remain
/// for callers that report or pin it.
///@{
enum class AccuracyMode {
  kBitExact,  ///< scalar-libm call sequence; byte-identical output
};

/// Always kBitExact.
[[nodiscard]] AccuracyMode active_accuracy_mode();

/// No-op: kBitExact is the only mode.
void force_accuracy_mode(AccuracyMode mode);

/// "exact".
[[nodiscard]] std::string_view accuracy_mode_name(AccuracyMode mode);
///@}

/// \name Batches
/// `out.size()` must equal `x.size()`; `out` may alias `x` exactly
/// (in-place) or not at all — every slot is read once before it is
/// written. One libm call per element, in element order.
///@{

/// out[i] = log2(x[i]).
void log2_batch(std::span<const double> x, std::span<double> out);
/// out[i] = 10 * log10(x[i]) — linear power ratio to dB.
void ratio_to_db_batch(std::span<const double> x, std::span<double> out);
/// out[i] = 10^(x[i] / 10) — dB to linear power ratio.
void db_to_ratio_batch(std::span<const double> x, std::span<double> out);
///@}

}  // namespace railcorr::vmath
