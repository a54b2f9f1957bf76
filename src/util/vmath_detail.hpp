/// \file vmath_detail.hpp
/// \brief The polynomial natural-log and sin/cos(2 pi u) cores of the
///        batched Box-Muller sampler, shared by its scalar lane
///        (util/rng.cpp) and its AVX2 lane (util/rng_batch_avx2.cpp).
///
/// The split constants were generated with tools/gen_vmath_coeffs.cpp
/// (__float128 arithmetic, hexfloat-exact doubles); regenerate rather
/// than editing by hand. The derivation lives in docs/ARCHITECTURE.md
/// ("The numeric contract and the RNG's polynomial cores").
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>

namespace railcorr::vmath::detail {

// ---- generated by tools/gen_vmath_coeffs.cpp --------------------------
// ln(x) = e * ln2 + ln(m); low 27 bits of hi cleared so e * kLn2Hi is
// exact for |e| <= 1074
inline constexpr double kLn2Hi = 0x1.62e42f8p-1;
inline constexpr double kLn2Lo = 0x1.be8e7bcd5e4f2p-27;
// sin(2 pi f) = f * sum_k kSinTwoPiC[k] * f^(2k), |f| <= 1/8
inline constexpr double kSinTwoPiC[10] = {
    0x1.921fb54442d18p+2,  -0x1.4abbce625be53p+5, 0x1.466bc6775aae2p+6,
    -0x1.32d2cce62bd86p+6, 0x1.50783487ee782p+5,  -0x1.e3074fde8871fp+3,
    0x1.e8f434d018d63p+1,  -0x1.6fadb9f155744p-1, 0x1.aaec32af93359p-4,
    -0x1.8a404211f9547p-7};
// cos(2 pi f) = sum_k kCosTwoPiC[k] * f^(2k), |f| <= 1/8
inline constexpr double kCosTwoPiC[10] = {
    0x1p+0,                -0x1.3bd3cc9be45dep+4, 0x1.03c1f081b5ac4p+6,
    -0x1.55d3c7e3cbffap+6, 0x1.e1f506891babbp+5,  -0x1.a6d1f2a204a8cp+4,
    0x1.f9d38a3763cc3p+2,  -0x1.b6e24f44b128fp+0, 0x1.20c62c2f2d7f5p-2,
    -0x1.2a0c591af8314p-5};
// -----------------------------------------------------------------------

/// sqrt(2), the mantissa-reduction boundary: m in [sqrt2/2, sqrt2)
/// keeps |log2 m| <= 0.5 and avoids cancellation against the exponent.
inline constexpr double kSqrt2 = 0x1.6a09e667f3bcdp+0;

/// Taylor tail of 2*atanh(r): ln(m) = 2r + r*t * sum_k kAtanhC[k] t^k
/// with r = (m-1)/(m+1), t = r^2 <= (3-2*sqrt2)^2 ~= 0.0295. Ten terms
/// put the truncation below 2^-60 relative — Taylor is within a small
/// factor of minimax on an interval this short, so no fitted
/// coefficients are needed.
inline constexpr double kAtanhC[10] = {
    2.0 / 3.0,  2.0 / 5.0,  2.0 / 7.0,  2.0 / 9.0,  2.0 / 11.0,
    2.0 / 13.0, 2.0 / 15.0, 2.0 / 17.0, 2.0 / 19.0, 2.0 / 21.0};

/// Mantissa/exponent split: x = m * 2^e with m in [sqrt2/2, sqrt2).
/// Precondition: x positive, normal and finite.
inline double reduce_log(double x, double& e_out) {
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(x);
  int e = static_cast<int>(bits >> 52) - 1023;
  double m = std::bit_cast<double>(
      (bits & 0x000FFFFFFFFFFFFFULL) | 0x3FF0000000000000ULL);
  if (m >= kSqrt2) {
    m *= 0.5;
    e += 1;
  }
  e_out = static_cast<double>(e);
  return m;
}

/// ln(m) for m in [sqrt2/2, sqrt2) as an unevaluated hi + lo pair:
/// hi = 2r is EXACT (r carries only its division rounding, which the
/// FMA residual folds into lo; 1/b is ~0.5 on the reduced interval and
/// the correction is O(2^-53), so the slope approximation error is far
/// below rounding), and |lo| <= ~0.01 |hi|. Keeping the pair
/// unevaluated lets the log core run the dominant product at full
/// precision, which matters when the result crosses a binade below
/// ln(m)'s.
struct LnParts {
  double hi;
  double lo;
};

inline LnParts ln_reduced(double m) {
  const double a = m - 1.0;  // exact (Sterbenz)
  const double b = m + 1.0;
  const double r = a / b;
  const double r_lo = std::fma(-r, b, a) * 0.5;
  const double t = r * r;
  double p = kAtanhC[9];
  for (int k = 8; k >= 0; --k) p = std::fma(p, t, kAtanhC[k]);
  return {2.0 * r, std::fma(r * t, p, 2.0 * r_lo)};
}

/// Polynomial natural-log core. Precondition: x positive, normal and
/// finite. It anchors the batched Box-Muller draw sequence
/// (util/rng), so its operation order is mirrored
/// instruction-for-instruction by ln_core4 below: every step is either
/// correctly rounded (add/mul/div/fma) or pure integer manipulation,
/// which is what makes the scalar and AVX2 lanes bit-identical.
inline double ln_core(double x) {
  double e;
  const LnParts lnm = ln_reduced(reduce_log(x, e));
  const double tail = std::fma(e, kLn2Lo, lnm.lo);
  return std::fma(e, kLn2Hi, lnm.hi + tail);
}

/// sin(2 pi u) and cos(2 pi u) for u in [0, 1): quadrant reduction
/// q = nearbyint(4u) (so f = (4u - q)/4 lands in [-1/8, 1/8]; both the
/// scaling by 4 and the subtraction are exact), Taylor polynomials in
/// f^2, then the quadrant rotation. Mirrored op-for-op by
/// sincos_two_pi4 below — negation is an exact sign-bit flip on both
/// lanes, so the pair is bit-identical scalar vs AVX2.
inline void sincos_two_pi(double u, double& sin_out, double& cos_out) {
  const double t = 4.0 * u;
  const double q = std::nearbyint(t);
  const double f = 0.25 * (t - q);
  const double t2 = f * f;
  double ps = kSinTwoPiC[9];
  for (int k = 8; k >= 0; --k) ps = std::fma(ps, t2, kSinTwoPiC[k]);
  const double s = f * ps;
  double pc = kCosTwoPiC[9];
  for (int k = 8; k >= 0; --k) pc = std::fma(pc, t2, kCosTwoPiC[k]);
  const double c = pc;
  switch (static_cast<int>(q) & 3) {
    case 0:
      sin_out = s;
      cos_out = c;
      break;
    case 1:
      sin_out = c;
      cos_out = -s;
      break;
    case 2:
      sin_out = -s;
      cos_out = -c;
      break;
    default:
      sin_out = -c;
      cos_out = s;
      break;
  }
}

}  // namespace railcorr::vmath::detail

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

namespace railcorr::vmath::detail {

// The 4-wide forms of the scalar cores above, for the batched-RNG AVX2
// lane (util/rng_batch_avx2.cpp). Each mirrors its scalar counterpart
// instruction for instruction.

/// Mantissa/exponent split, vector form of detail::reduce_log.
inline __m256d log_reduce4(__m256d x, __m256d& e_out) {
  const __m256i bits = _mm256_castpd_si256(x);
  // Biased exponent to double via the 2^52 magic-number trick (the
  // 11-bit field is far below the magic's mantissa width).
  const __m256i magic = _mm256_set1_epi64x(0x4330000000000000LL);
  const __m256d e_biased = _mm256_sub_pd(
      _mm256_castsi256_pd(_mm256_or_si256(_mm256_srli_epi64(bits, 52),
                                          magic)),
      _mm256_set1_pd(0x1p52));
  __m256d e = _mm256_sub_pd(e_biased, _mm256_set1_pd(1023.0));
  const __m256d mant_mask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x000FFFFFFFFFFFFFLL));
  __m256d m =
      _mm256_or_pd(_mm256_and_pd(x, mant_mask), _mm256_set1_pd(1.0));
  const __m256d fold =
      _mm256_cmp_pd(m, _mm256_set1_pd(kSqrt2), _CMP_GE_OQ);
  m = _mm256_blendv_pd(m, _mm256_mul_pd(m, _mm256_set1_pd(0.5)), fold);
  e = _mm256_add_pd(e, _mm256_and_pd(fold, _mm256_set1_pd(1.0)));
  e_out = e;
  return m;
}

/// ln(m) for m in [sqrt2/2, sqrt2) as the hi/lo pair of
/// detail::ln_reduced (hi = 2r exact, division residual folded into lo).
inline void ln_reduced4(__m256d m, __m256d& hi, __m256d& lo) {
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d a = _mm256_sub_pd(m, one);
  const __m256d b = _mm256_add_pd(m, one);
  const __m256d r = _mm256_div_pd(a, b);
  const __m256d r_lo = _mm256_mul_pd(_mm256_fnmadd_pd(r, b, a),
                                     _mm256_set1_pd(0.5));
  const __m256d t = _mm256_mul_pd(r, r);
  __m256d p = _mm256_set1_pd(kAtanhC[9]);
  for (int k = 8; k >= 0; --k) {
    p = _mm256_fmadd_pd(p, t, _mm256_set1_pd(kAtanhC[k]));
  }
  hi = _mm256_add_pd(r, r);
  lo = _mm256_fmadd_pd(_mm256_mul_pd(r, t), p, _mm256_add_pd(r_lo, r_lo));
}

/// Vector form of detail::ln_core — the bit-identity mirror the batched
/// Box-Muller lane leans on (see the scalar core's comment).
inline __m256d ln_core4(__m256d x) {
  __m256d e, hi, lo;
  ln_reduced4(log_reduce4(x, e), hi, lo);
  const __m256d tail = _mm256_fmadd_pd(e, _mm256_set1_pd(kLn2Lo), lo);
  return _mm256_fmadd_pd(e, _mm256_set1_pd(kLn2Hi),
                         _mm256_add_pd(hi, tail));
}

/// Vector form of detail::sincos_two_pi. Quadrant selection runs in the
/// integer domain (q is integral in {0..4}); the rotation uses blends
/// for the swap and a sign-mask XOR for the negations, both of which
/// reproduce the scalar switch's moves and sign flips exactly.
inline void sincos_two_pi4(__m256d u, __m256d& sin_out, __m256d& cos_out) {
  const __m256d t = _mm256_mul_pd(_mm256_set1_pd(4.0), u);
  const __m256d q =
      _mm256_round_pd(t, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  const __m256d f =
      _mm256_mul_pd(_mm256_set1_pd(0.25), _mm256_sub_pd(t, q));
  const __m256d t2 = _mm256_mul_pd(f, f);
  __m256d ps = _mm256_set1_pd(kSinTwoPiC[9]);
  for (int k = 8; k >= 0; --k) {
    ps = _mm256_fmadd_pd(ps, t2, _mm256_set1_pd(kSinTwoPiC[k]));
  }
  const __m256d s = _mm256_mul_pd(f, ps);
  __m256d pc = _mm256_set1_pd(kCosTwoPiC[9]);
  for (int k = 8; k >= 0; --k) {
    pc = _mm256_fmadd_pd(pc, t2, _mm256_set1_pd(kCosTwoPiC[k]));
  }
  const __m256d c = pc;
  const __m256i qi = _mm256_and_si256(
      _mm256_cvtepi32_epi64(_mm256_cvtpd_epi32(q)),
      _mm256_set1_epi64x(3));
  const auto eq = [&](long long v) {
    return _mm256_cmpeq_epi64(qi, _mm256_set1_epi64x(v));
  };
  const __m256d swap =
      _mm256_castsi256_pd(_mm256_or_si256(eq(1), eq(3)));
  const __m256d s_mag = _mm256_blendv_pd(s, c, swap);
  const __m256d c_mag = _mm256_blendv_pd(c, s, swap);
  const __m256d sign = _mm256_set1_pd(-0.0);
  const __m256d neg_s =
      _mm256_castsi256_pd(_mm256_or_si256(eq(2), eq(3)));
  const __m256d neg_c =
      _mm256_castsi256_pd(_mm256_or_si256(eq(1), eq(2)));
  sin_out = _mm256_xor_pd(s_mag, _mm256_and_pd(neg_s, sign));
  cos_out = _mm256_xor_pd(c_mag, _mm256_and_pd(neg_c, sign));
}

}  // namespace railcorr::vmath::detail

#endif  // __AVX2__ && __FMA__
