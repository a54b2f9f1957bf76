#include "util/grid.hpp"

#include <gtest/gtest.h>

#include "util/contracts.hpp"

namespace railcorr {
namespace {

TEST(ArangeInclusive, PaperIsdGrid) {
  // The paper sweeps ISD in 50 m steps.
  const auto v = arange_inclusive(500.0, 2650.0, 50.0);
  ASSERT_EQ(v.size(), 44u);
  EXPECT_DOUBLE_EQ(v.front(), 500.0);
  EXPECT_DOUBLE_EQ(v.back(), 2650.0);
}

TEST(ArangeInclusive, SinglePoint) {
  const auto v = arange_inclusive(3.0, 3.0, 1.0);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_DOUBLE_EQ(v[0], 3.0);
}

TEST(ArangeInclusive, NonDivisibleSpanStopsBeforeHi) {
  const auto v = arange_inclusive(0.0, 1.0, 0.3);
  // 0, 0.3, 0.6, 0.9 (1.2 > 1 + step/2).
  ASSERT_EQ(v.size(), 4u);
  EXPECT_NEAR(v.back(), 0.9, 1e-12);
}

TEST(ArangeInclusive, Contracts) {
  EXPECT_THROW(arange_inclusive(0.0, 1.0, 0.0), ContractViolation);
  EXPECT_THROW(arange_inclusive(1.0, 0.0, 0.5), ContractViolation);
}

}  // namespace
}  // namespace railcorr
