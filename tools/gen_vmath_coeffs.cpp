/// Offline generator of the constants baked into util/vmath_detail.hpp.
///
/// The batched RNG's polynomial cores need ln(2) as a hi/lo pair whose
/// sum carries ~106 significant bits, plus the Taylor coefficients of
/// sin(2 pi f) and cos(2 pi f). This program computes them in
/// __float128 and prints the exact hexfloat doubles pasted into
/// src/util/vmath_detail.hpp. It is not part of the build; rerun by
/// hand when the tables change:
///
///   g++ -std=c++20 -fext-numeric-literals -O2 \
///       tools/gen_vmath_coeffs.cpp -o /tmp/gen && /tmp/gen
#include <cmath>
#include <cstdio>

namespace {

/// Print `value` as a hexfloat double definition.
void emit(const char* name, double value) {
  std::printf("inline constexpr double %s = %a;  // %.17g\n", name, value,
              value);
}

/// Split a quad value into a double hi (optionally with the low
/// `zeroed_bits` of the mantissa cleared so small-integer products stay
/// exact) and the double lo carrying the residual.
void emit_split(const char* hi_name, const char* lo_name, __float128 value,
                int zeroed_bits = 0) {
  double hi = static_cast<double>(value);
  if (zeroed_bits > 0) {
    // Round-trip through a truncated mantissa: add/subtract a power of
    // two scaled so the low bits fall off.
    const double scale = std::ldexp(1.0, zeroed_bits);
    const double chopped =
        std::ldexp(std::trunc(std::ldexp(hi, 52 - zeroed_bits -
                                                  std::ilogb(hi))),
                   std::ilogb(hi) - 52 + zeroed_bits);
    hi = chopped;
    (void)scale;
  }
  const double lo = static_cast<double>(value - static_cast<__float128>(hi));
  emit(hi_name, hi);
  emit(lo_name, lo);
}

}  // namespace

int main() {
  // ln(2) to quad precision (first 34 digits).
  const __float128 kLn2 =
      0.69314718055994530941723212145817657Q;
  const __float128 kTwoPi =
      6.28318530717958647692528676655900577Q;
  std::printf("// ln(x) = e * ln2 + ln(m); low 27 bits of hi cleared so\n"
              "// e * kLn2Hi is exact for |e| <= 1074\n");
  emit_split("kLn2Hi", "kLn2Lo", kLn2, 27);

  // sin(2 pi u) / cos(2 pi u) quadrant cores for u in [0, 1): after the
  // reduction f = u - nearbyint(4u)/4 (|f| <= 1/8, so |2 pi f| <= pi/4)
  // the Taylor series in t = f^2 truncates below 2^-58 relative with ten
  // terms — Taylor is within a small factor of minimax on an interval
  // this short.
  std::printf("// sin(2 pi f) = f * sum_k kSinTwoPiC[k] * f^(2k), "
              "|f| <= 1/8\n");
  __float128 sin_term = kTwoPi;  // (2 pi)^(2k+1) / (2k+1)!, sign (-1)^k
  for (int k = 0; k < 10; ++k) {
    if (k > 0) {
      sin_term = -sin_term * kTwoPi * kTwoPi /
                 static_cast<__float128>((2 * k) * (2 * k + 1));
    }
    char name[32];
    std::snprintf(name, sizeof(name), "kSinTwoPiC%d", k);
    emit(name, static_cast<double>(sin_term));
  }
  std::printf("// cos(2 pi f) = sum_k kCosTwoPiC[k] * f^(2k), "
              "|f| <= 1/8\n");
  __float128 cos_term = 1.0Q;  // (2 pi)^(2k) / (2k)!, sign (-1)^k
  for (int k = 0; k < 10; ++k) {
    if (k > 0) {
      cos_term = -cos_term * kTwoPi * kTwoPi /
                 static_cast<__float128>((2 * k - 1) * (2 * k));
    }
    char name[32];
    std::snprintf(name, sizeof(name), "kCosTwoPiC%d", k);
    emit(name, static_cast<double>(cos_term));
  }
  return 0;
}
