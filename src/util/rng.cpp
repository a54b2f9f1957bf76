#include "util/rng.hpp"

#include <cmath>

#include "util/constants.hpp"
#include "util/contracts.hpp"
#include "util/rng_batch.hpp"
#include "util/vmath.hpp"
#include "util/vmath_detail.hpp"

namespace railcorr {

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

/// SplitMix64's golden-ratio counter increment.
constexpr std::uint64_t kGamma = 0x9E3779B97F4A7C15ULL;
}  // namespace

namespace rng_detail {

void normal_fill_scalar(std::uint64_t base, std::span<double> out,
                        std::size_t first_pair) {
  // Pair p consumes side-stream outputs 2p (u1) and 2p+1 (u2); seeding
  // the generator at base + 2p*gamma starts it exactly there.
  SplitMix64 sm(base + 2u * first_pair * kGamma);
  const std::size_t n = out.size();
  std::size_t i = 0;
  while (i < n) {
    const std::uint64_t a = sm.next();
    const std::uint64_t b = sm.next();
    // Rejection-free Box-Muller: u1 in (0,1] (no log(0), no
    // data-dependent redraw — lane invariance needs fixed consumption),
    // u2 in [0,1). Both conversions are exact (53-bit integers).
    const double u1 = static_cast<double>((a >> 11) + 1) * 0x1.0p-53;
    const double u2 = static_cast<double>(b >> 11) * 0x1.0p-53;
    // Every operation here is mirrored instruction-for-instruction by
    // normal_fill_avx2: ln/sincos are the shared polynomial cores,
    // sqrt/mul are correctly rounded on both lanes.
    const double r = std::sqrt(-2.0 * vmath::detail::ln_core(u1));
    double s = 0.0;
    double c = 0.0;
    vmath::detail::sincos_two_pi(u2, s, c);
    out[i++] = r * c;
    if (i < n) out[i++] = r * s;  // odd-length batch drops the sine half
  }
}

void uniform_fill_scalar(std::uint64_t base, std::span<double> out,
                         std::size_t first_index) {
  SplitMix64 sm(base + first_index * kGamma);
  for (auto& v : out) {
    v = static_cast<double>(sm.next() >> 11) * 0x1.0p-53;
  }
}

}  // namespace rng_detail

Rng::Rng(std::uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& s : s_) s = sm.next();
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 top bits -> double in [0,1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  RAILCORR_EXPECTS(hi > lo);
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  RAILCORR_EXPECTS(n > 0);
  // Debiased modulo via rejection (Lemire-style threshold).
  const std::uint64_t threshold = (0 - n) % n;
  for (;;) {
    const std::uint64_t r = next_u64();
    if (r >= threshold) return r % n;
  }
}

double Rng::normal() {
  if (have_cached_normal_) {
    have_cached_normal_ = false;
    return cached_normal_;
  }
  // Box-Muller; u1 in (0,1] to avoid log(0).
  double u1 = 0.0;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * constants::kPi * u2;
  cached_normal_ = r * std::sin(theta);
  have_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double stddev) {
  RAILCORR_EXPECTS(stddev >= 0.0);
  return mean + stddev * normal();
}

#if defined(RAILCORR_HAVE_AVX2)
namespace {

/// True when the batch fills should take the AVX2 lane: the active SIMD
/// level (forced/env/detected) is AVX2 and the CPU has FMA, which the
/// polynomial cores' 4-wide forms use.
bool use_batch_avx2() {
  return vmath::active_simd_level() == vmath::SimdLevel::kAvx2 &&
         vmath::cpu_has_fma();
}

}  // namespace
#endif

void Rng::normal_batch(std::span<double> out) {
  if (out.empty()) return;
  // Like split(): the batch is a pure function of the 256-bit state, so
  // any cached Box-Muller second normal from per-call normal() must not
  // survive across the batch boundary.
  have_cached_normal_ = false;
  cached_normal_ = 0.0;
  const std::uint64_t base = next_u64() ^ rng_detail::kNormalBatchSalt;
#if defined(RAILCORR_HAVE_AVX2)
  if (use_batch_avx2()) {
    rng_detail::normal_fill_avx2(base, out);
    return;
  }
#endif
  rng_detail::normal_fill_scalar(base, out);
}

void Rng::normal_batch(std::span<double> out, double mean, double stddev) {
  RAILCORR_EXPECTS(stddev >= 0.0);
  normal_batch(out);
  // Plain mul + add (the library builds with -ffp-contract=off), so the
  // affine map rounds identically no matter which lane filled `out`.
  for (auto& v : out) v = mean + stddev * v;
}

void Rng::uniform_batch(std::span<double> out) {
  if (out.empty()) return;
  const std::uint64_t base = next_u64() ^ rng_detail::kUniformBatchSalt;
#if defined(RAILCORR_HAVE_AVX2)
  if (use_batch_avx2()) {
    rng_detail::uniform_fill_avx2(base, out);
    return;
  }
#endif
  rng_detail::uniform_fill_scalar(base, out);
}

double Rng::exponential(double lambda) {
  RAILCORR_EXPECTS(lambda > 0.0);
  double u = 0.0;
  do {
    u = uniform();
  } while (u <= 0.0);
  return -std::log(u) / lambda;
}

std::uint64_t Rng::poisson(double lambda) {
  RAILCORR_EXPECTS(lambda >= 0.0);
  if (lambda == 0.0) return 0;
  if (lambda < 64.0) {
    // Knuth's product method.
    const double limit = std::exp(-lambda);
    std::uint64_t k = 0;
    double p = 1.0;
    do {
      ++k;
      p *= uniform();
    } while (p > limit);
    return k - 1;
  }
  // Normal approximation with continuity correction for large lambda.
  const double x = normal(lambda, std::sqrt(lambda));
  return x <= 0.0 ? 0 : static_cast<std::uint64_t>(x + 0.5);
}

Rng Rng::split() {
  // Drop any cached Box-Muller second normal before forking: the
  // post-split sequences of parent and child must be pure functions of
  // their 256-bit states, independent of pre-split normal() call parity.
  have_cached_normal_ = false;
  cached_normal_ = 0.0;
  Rng child(next_u64() ^ 0x9E3779B97F4A7C15ULL);
  return child;
}

Rng Rng::stream(std::uint64_t seed, std::uint64_t stream) {
  // Jump the SplitMix64 counter to the substream's offset: one next()
  // advances the counter by the golden-ratio increment, so starting at
  // seed + 4*stream increments reproduces exactly the counter positions
  // {4*stream+1, ..., 4*stream+4} of the sequence seeded with `seed`.
  SplitMix64 sm(seed + 4u * stream * 0x9E3779B97F4A7C15ULL);
  Rng r(0);
  for (auto& s : r.s_) s = sm.next();
  return r;
}

}  // namespace railcorr
