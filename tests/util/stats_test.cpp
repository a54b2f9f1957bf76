#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace railcorr {
namespace {

TEST(RunningStats, BasicMoments) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // unbiased
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, EmptyThrows) {
  RunningStats s;
  EXPECT_TRUE(s.empty());
  EXPECT_THROW(s.mean(), ContractViolation);
  EXPECT_THROW(s.min(), ContractViolation);
  s.add(1.0);
  EXPECT_THROW(s.variance(), ContractViolation);  // needs n > 1
}

TEST(RunningStats, MergeEqualsSequential) {
  Rng rng(42);
  RunningStats all;
  RunningStats a;
  RunningStats b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(3.0, 2.0);
    all.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-10);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-8);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a;
  a.add(1.0);
  a.add(3.0);
  RunningStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 2.0);
}

TEST(TimeWeightedAverage, PiecewiseConstant) {
  TimeWeightedAverage twa;
  twa.set(0.0, 10.0);   // 10 W for 5 s
  twa.set(5.0, 0.0);    // 0 W for 5 s
  twa.finish(10.0);
  EXPECT_DOUBLE_EQ(twa.integral(), 50.0);
  EXPECT_DOUBLE_EQ(twa.average(), 5.0);
  EXPECT_DOUBLE_EQ(twa.observed_span(), 10.0);
}

TEST(TimeWeightedAverage, RepeatedSetAtSameTime) {
  TimeWeightedAverage twa;
  twa.set(0.0, 1.0);
  twa.set(0.0, 7.0);  // instantaneous override: zero-width segment
  twa.finish(2.0);
  EXPECT_DOUBLE_EQ(twa.average(), 7.0);
}

TEST(TimeWeightedAverage, ContractViolations) {
  TimeWeightedAverage twa;
  twa.set(5.0, 1.0);
  EXPECT_THROW(twa.set(4.0, 2.0), ContractViolation);  // time going backwards
  twa.finish(6.0);
  EXPECT_THROW(twa.set(7.0, 1.0), ContractViolation);  // after finish
  TimeWeightedAverage zero;
  zero.set(1.0, 3.0);
  zero.finish(1.0);
  EXPECT_THROW(zero.average(), ContractViolation);  // zero span
}

// Property: Welford matches two-pass computation for random streams.
class StatsPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StatsPropertyTest, WelfordMatchesTwoPass) {
  Rng rng(GetParam());
  std::vector<double> xs;
  RunningStats s;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.uniform(-100.0, 100.0);
    xs.push_back(x);
    s.add(x);
  }
  double mean = 0.0;
  for (const double x : xs) mean += x;
  mean /= static_cast<double>(xs.size());
  double var = 0.0;
  for (const double x : xs) var += (x - mean) * (x - mean);
  var /= static_cast<double>(xs.size() - 1);
  EXPECT_NEAR(s.mean(), mean, 1e-9);
  EXPECT_NEAR(s.variance(), var, 1e-7);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StatsPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 17u, 99u));

}  // namespace
}  // namespace railcorr
