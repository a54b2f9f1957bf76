/// The numeric contract of the batched vector math (util/vmath.hpp):
/// every batch is bit-identical to scalar libm at every SIMD level over
/// the kernels' input ranges — wide log-uniform power ratios, dB-domain
/// spans, the cancellation-prone near-1 region, and the non-finite /
/// denormal edges.
#include "util/vmath.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <vector>

namespace railcorr::vmath {
namespace {

/// Equal values, or both NaN: what libm returns is reproduced exactly.
bool same_as_libm(double batch, double libm) {
  return batch == libm || (std::isnan(batch) && std::isnan(libm));
}

/// Inputs covering the log domain plus every non-normal edge.
std::vector<double> log_domain_inputs() {
  std::mt19937_64 rng(0xC0FFEE);
  std::uniform_real_distribution<double> decades(-30.0, 30.0);
  std::uniform_real_distribution<double> near_one(0.5, 2.0);
  std::vector<double> x;
  for (int i = 0; i < 60000; ++i) x.push_back(std::pow(10.0, decades(rng)));
  for (int i = 0; i < 60000; ++i) x.push_back(near_one(rng));
  for (int e = -300; e <= 300; e += 7) x.push_back(std::ldexp(1.0, e));
  // Edges: zero, negatives, non-finite, subnormal.
  x.insert(x.end(), {0.0, -0.0, -1.5, 1.0, 10.0, 100.0,
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity(),
                     std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::denorm_min(),
                     5e-324, 1e-310,
                     std::numeric_limits<double>::max(),
                     std::numeric_limits<double>::min()});
  return x;
}

std::vector<double> db_domain_inputs() {
  std::mt19937_64 rng(0xBEEF);
  std::uniform_real_distribution<double> db(-320.0, 320.0);
  std::vector<double> x;
  for (int i = 0; i < 120000; ++i) x.push_back(db(rng));
  x.insert(x.end(), {0.0, -200.0, 29.0, -10.0, 3001.0, -3001.0,
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity(),
                     std::numeric_limits<double>::quiet_NaN()});
  return x;
}

class VmathTest : public ::testing::Test {
 protected:
  void TearDown() override { reset_simd_level(); }
};

// ---- mode & level plumbing ---------------------------------------------

TEST_F(VmathTest, ModeAndLevelNames) {
  EXPECT_EQ(active_accuracy_mode(), AccuracyMode::kBitExact);
  EXPECT_EQ(accuracy_mode_name(active_accuracy_mode()), "exact");
  EXPECT_EQ(simd_level_name(SimdLevel::kScalar), "scalar");
  EXPECT_EQ(simd_level_name(SimdLevel::kAvx2), "avx2");
}

// ---- bit identity with libm --------------------------------------------

TEST_F(VmathTest, BatchesBitIdenticalToLibmAtEverySimdLevel) {
  const auto logs = log_domain_inputs();
  const auto dbs = db_domain_inputs();
  std::vector<double> out(logs.size());
  for (const SimdLevel level : {SimdLevel::kScalar, SimdLevel::kAvx2}) {
    force_simd_level(level);
    log2_batch(logs, out);
    for (std::size_t i = 0; i < logs.size(); ++i) {
      ASSERT_TRUE(same_as_libm(out[i], std::log2(logs[i])))
          << "log2 at level " << simd_level_name(level);
    }
    ratio_to_db_batch(logs, out);
    for (std::size_t i = 0; i < logs.size(); ++i) {
      ASSERT_TRUE(same_as_libm(out[i], 10.0 * std::log10(logs[i])));
    }
    out.resize(dbs.size());
    db_to_ratio_batch(dbs, out);
    for (std::size_t i = 0; i < dbs.size(); ++i) {
      ASSERT_TRUE(same_as_libm(out[i], std::pow(10.0, dbs[i] / 10.0)));
    }
    out.resize(logs.size());
  }
}

TEST_F(VmathTest, BatchesSupportExactAliasing) {
  std::vector<double> data = {1.0, 2.0, 4.0, 8.0, 2.5};
  log2_batch(data, data);
  EXPECT_EQ(data[1], 1.0);
  EXPECT_EQ(data[3], 3.0);
}

// ---- monotonicity properties -------------------------------------------

/// A strictly increasing grid whose consecutive reference values are
/// far enough apart (many ULP) that the dB conversion must preserve
/// order.
std::vector<double> sorted_log10_grid() {
  std::mt19937_64 rng(0xFACE);
  std::uniform_real_distribution<double> decades(-30.0, 30.0);
  std::vector<double> x;
  for (int i = 0; i < 20000; ++i) x.push_back(std::pow(10.0, decades(rng)));
  std::sort(x.begin(), x.end());
  std::vector<double> grid;
  for (const double v : x) {
    if (grid.empty() || v > grid.back() * (1.0 + 1e-9)) grid.push_back(v);
  }
  return grid;
}

TEST_F(VmathTest, RatioToDbMonotoneAtEverySimdLevel) {
  const auto grid = sorted_log10_grid();
  std::vector<double> out(grid.size());
  for (const SimdLevel level : {SimdLevel::kScalar, SimdLevel::kAvx2}) {
    force_simd_level(level);
    ratio_to_db_batch(grid, out);
    for (std::size_t i = 1; i < out.size(); ++i) {
      ASSERT_LE(out[i - 1], out[i])
          << "ratio_to_db non-monotone at x = " << grid[i] << " level "
          << simd_level_name(level);
    }
  }
}

TEST_F(VmathTest, ForcedAvx2DegradesToScalarWhenUnavailable) {
  force_simd_level(SimdLevel::kAvx2);
#if defined(RAILCORR_HAVE_AVX2)
  if (__builtin_cpu_supports("avx2")) {
    EXPECT_EQ(active_simd_level(), SimdLevel::kAvx2);
  } else {
    EXPECT_EQ(active_simd_level(), SimdLevel::kScalar);
  }
#else
  EXPECT_EQ(active_simd_level(), SimdLevel::kScalar);
#endif
}

}  // namespace
}  // namespace railcorr::vmath
