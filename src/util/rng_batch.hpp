/// \file rng_batch.hpp
/// \brief Internal block kernels behind Rng::normal_batch /
///        Rng::uniform_batch, exposed so the lane-equivalence tests and
///        benches can pin the scalar and AVX2 lanes directly — the same
///        pattern as rf/batch_kernel.hpp's fixed-level kernels.
///
/// A batch call derives `base = next_u64() ^ salt` once and then fills
/// `out` from the SplitMix64 side stream seeded at `base`: output
/// position i of a uniform batch reads side-stream output i, and pair p
/// of a normal batch reads side-stream outputs 2p and 2p+1 (u1, u2 of a
/// rejection-free Box-Muller). Because SplitMix64 output k is a pure
/// function of `base + (k+1) * gamma`, the lanes below can start at any
/// position — the AVX2 kernels run counter-parallel blocks and hand the
/// sub-block tail to the scalar kernel at the matching offset.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace railcorr::rng_detail {

/// Per-kind batch salts (odd, XOR-ed into the fresh parent output that
/// seeds the side stream). Distinct per kind — and distinct from the
/// split() constant — so a normal batch, a uniform batch, and a split
/// child taken from the same parent state never share a side stream.
inline constexpr std::uint64_t kNormalBatchSalt = 0xA0761D6478BD642FULL;
inline constexpr std::uint64_t kUniformBatchSalt = 0xE7037ED1A0B428DBULL;

/// Fill `out` with the standard-normal batch sequence of `base`,
/// starting at pair index `first_pair` (out[0] is the first half of
/// that pair; `out` must start on a pair boundary of the full batch).
void normal_fill_scalar(std::uint64_t base, std::span<double> out,
                        std::size_t first_pair = 0);

/// Fill `out` with the uniform batch sequence of `base`, starting at
/// output position `first_index`.
void uniform_fill_scalar(std::uint64_t base, std::span<double> out,
                         std::size_t first_index = 0);

#if defined(RAILCORR_HAVE_AVX2)
/// 4-wide AVX2+FMA lanes, bit-identical to the scalar fills above
/// (counter-parallel SplitMix64; the transcendental cores are the
/// op-for-op mirrors in vmath_detail.hpp). Callers must check
/// vmath::cpu_has_fma() / AVX2 support first — the dispatcher in
/// Rng::normal_batch does.
void normal_fill_avx2(std::uint64_t base, std::span<double> out);
void uniform_fill_avx2(std::uint64_t base, std::span<double> out);
#endif

}  // namespace railcorr::rng_detail
