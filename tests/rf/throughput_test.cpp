#include "rf/throughput.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/contracts.hpp"

namespace railcorr::rf {
namespace {

TEST(ThroughputModel, PaperParameters) {
  const auto m = ThroughputModel::paper_model();
  EXPECT_DOUBLE_EQ(m.alpha(), 0.6);
  EXPECT_DOUBLE_EQ(m.se_max_bps_hz(), 5.84);
  EXPECT_DOUBLE_EQ(m.snr_min().value(), -10.0);
}

TEST(ThroughputModel, PeakSnrIs29dB) {
  // alpha log2(1 + snr) = 5.84 -> snr = 2^(5.84/0.6) - 1 = 29.28 dB;
  // this is the basis of the paper's "SNR > 29 dB" criterion.
  const auto m = ThroughputModel::paper_model();
  EXPECT_NEAR(m.peak_snr().value(), 29.28, 0.02);
}

TEST(ThroughputModel, ZeroBelowSnrMin) {
  const auto m = ThroughputModel::paper_model();
  EXPECT_DOUBLE_EQ(m.spectral_efficiency(Db(-10.01)), 0.0);
  EXPECT_GT(m.spectral_efficiency(Db(-10.0)), 0.0);
}

TEST(ThroughputModel, AttenuatedShannonInBetween) {
  const auto m = ThroughputModel::paper_model();
  for (const double snr_db : {0.0, 10.0, 20.0, 28.0}) {
    const double expected = 0.6 * std::log2(1.0 + std::pow(10.0, snr_db / 10.0));
    EXPECT_NEAR(m.spectral_efficiency(Db(snr_db)), expected, 1e-12);
  }
}

TEST(ThroughputModel, SaturatesAtSeMax) {
  const auto m = ThroughputModel::paper_model();
  EXPECT_DOUBLE_EQ(m.spectral_efficiency(Db(29.5)), 5.84);
  EXPECT_DOUBLE_EQ(m.spectral_efficiency(Db(60.0)), 5.84);
}

TEST(ThroughputModel, PeakThroughputOn100MhzCarrier) {
  // 5.84 bps/Hz x 100 MHz = 584 Mbps peak.
  const auto m = ThroughputModel::paper_model();
  EXPECT_NEAR(m.throughput_bps(Db(35.0), 100e6), 584e6, 1.0);
}

TEST(ThroughputModel, MonotoneNonDecreasing) {
  const auto m = ThroughputModel::paper_model();
  double prev = -1.0;
  for (double snr = -15.0; snr <= 40.0; snr += 0.25) {
    const double se = m.spectral_efficiency(Db(snr));
    EXPECT_GE(se, prev);
    prev = se;
  }
}

TEST(ThroughputModel, SnrForInvertsSpectralEfficiency) {
  const auto m = ThroughputModel::paper_model();
  for (const double se : {0.5, 1.0, 3.0, 5.0, 5.84}) {
    const Db snr = m.snr_for(se);
    EXPECT_NEAR(m.spectral_efficiency(snr), se, 1e-9);
  }
}

TEST(ThroughputModel, SnrForPeakMatchesPeakSnr) {
  const auto m = ThroughputModel::paper_model();
  EXPECT_NEAR(m.snr_for(5.84).value(), m.peak_snr().value(), 1e-9);
}

TEST(ThroughputModel, Contracts) {
  EXPECT_THROW(ThroughputModel(0.0, 5.84, Db(-10.0)), ContractViolation);
  EXPECT_THROW(ThroughputModel(1.1, 5.84, Db(-10.0)), ContractViolation);
  EXPECT_THROW(ThroughputModel(0.6, 0.0, Db(-10.0)), ContractViolation);
  const auto m = ThroughputModel::paper_model();
  EXPECT_THROW(m.throughput_bps(Db(10.0), 0.0), ContractViolation);
  EXPECT_THROW(m.snr_for(0.0), ContractViolation);
  EXPECT_THROW(m.snr_for(6.0), ContractViolation);
}

// Property: alpha scales the mid-range SE linearly.
class AlphaSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(AlphaSweepTest, SeProportionalToAlphaBelowSaturation) {
  const double alpha = GetParam();
  const ThroughputModel m(alpha, 20.0, Db(-10.0));  // high cap: no clip
  const ThroughputModel ref(1.0, 20.0, Db(-10.0));
  const Db snr(15.0);
  EXPECT_NEAR(m.spectral_efficiency(snr),
              alpha * ref.spectral_efficiency(snr), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Alphas, AlphaSweepTest,
                         ::testing::Values(0.4, 0.5, 0.6, 0.75, 0.9, 1.0));

TEST(ThroughputModel, BatchMatchesScalarBitwise) {
  const ThroughputModel m = ThroughputModel::paper_model();
  std::vector<double> snr_db;
  for (double v = -40.0; v <= 80.0; v += 0.37) snr_db.push_back(v);
  snr_db.push_back(-200.0);  // the DES dark-corridor floor
  snr_db.push_back(m.snr_min().value());
  snr_db.push_back(m.peak_snr().value());
  std::vector<double> se(snr_db.size());
  m.spectral_efficiency_batch(snr_db, se);
  for (std::size_t i = 0; i < snr_db.size(); ++i) {
    EXPECT_EQ(se[i], m.spectral_efficiency(Db(snr_db[i])))
        << "at " << snr_db[i] << " dB";
  }
}

}  // namespace
}  // namespace railcorr::rf
