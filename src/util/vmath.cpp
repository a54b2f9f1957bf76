#include "util/vmath.hpp"

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "util/contracts.hpp"

namespace railcorr::vmath {

namespace {

/// -1: no override; otherwise the forced SimdLevel.
std::atomic<int> g_forced_level{-1};

SimdLevel detected_level() {
#if defined(RAILCORR_HAVE_AVX2)
  if (__builtin_cpu_supports("avx2")) return SimdLevel::kAvx2;
#endif
  return SimdLevel::kScalar;
}

SimdLevel env_or_detected_level() {
  // Cached once: the environment cannot change mid-process in a way we
  // want to observe, and the hot paths query this per batch.
  static const SimdLevel resolved = [] {
    const char* env = std::getenv("RAILCORR_SIMD");
    if (env != nullptr) {
      if (std::strcmp(env, "scalar") == 0) return SimdLevel::kScalar;
      if (std::strcmp(env, "avx2") == 0 &&
          detected_level() == SimdLevel::kAvx2) {
        return SimdLevel::kAvx2;
      }
      // "auto" and unknown values fall through to detection.
    }
    return detected_level();
  }();
  return resolved;
}

}  // namespace

SimdLevel active_simd_level() {
  const int forced = g_forced_level.load(std::memory_order_relaxed);
  if (forced >= 0) {
    const auto level = static_cast<SimdLevel>(forced);
    // A forced level the build/CPU cannot run degrades to scalar.
    if (level == SimdLevel::kAvx2 && detected_level() != SimdLevel::kAvx2) {
      return SimdLevel::kScalar;
    }
    return level;
  }
  return env_or_detected_level();
}

void force_simd_level(SimdLevel level) {
  g_forced_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

void reset_simd_level() {
  g_forced_level.store(-1, std::memory_order_relaxed);
}

std::string_view simd_level_name(SimdLevel level) {
  switch (level) {
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kScalar:
      break;
  }
  return "scalar";
}

bool cpu_has_fma() {
#if defined(RAILCORR_HAVE_AVX2)
  static const bool has = __builtin_cpu_supports("fma");
  return has;
#else
  return false;
#endif
}

AccuracyMode active_accuracy_mode() { return AccuracyMode::kBitExact; }

void force_accuracy_mode(AccuracyMode /*mode*/) {}

std::string_view accuracy_mode_name(AccuracyMode /*mode*/) { return "exact"; }

// One libm call per element, in element order: byte-identical to the
// historical scalar loops at every SIMD level.

void log2_batch(std::span<const double> x, std::span<double> out) {
  RAILCORR_EXPECTS(out.size() == x.size());
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = std::log2(x[i]);
}

void ratio_to_db_batch(std::span<const double> x, std::span<double> out) {
  RAILCORR_EXPECTS(out.size() == x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    out[i] = 10.0 * std::log10(x[i]);
  }
}

void db_to_ratio_batch(std::span<const double> x, std::span<double> out) {
  RAILCORR_EXPECTS(out.size() == x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    out[i] = std::pow(10.0, x[i] / 10.0);
  }
}

}  // namespace railcorr::vmath
