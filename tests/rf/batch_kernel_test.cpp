/// Cross-path consistency of the SoA batch kernels: the scalar and AVX2
/// lanes must be bit-identical, and every batched entry point must agree
/// with its scalar dB-domain reference within documented bounds
/// (<= 1e-12 dB for the downlink, <= 1e-9 dB for the uplink, whose
/// batch path reorders the amplify-and-forward combination).
#include "rf/batch_kernel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "corridor/deployment.hpp"
#include "rf/link.hpp"
#include "rf/uplink.hpp"

namespace railcorr::rf {
namespace {

class BatchKernelTest : public ::testing::Test {
 protected:
  void TearDown() override { reset_simd_level(); }

  /// Track positions covering segment interior, near-field clamp region
  /// around transmitters, and out-of-segment extrapolation.
  static std::vector<double> probe_positions(double isd) {
    std::vector<double> positions;
    for (double d = -50.0; d <= isd + 50.0; d += isd / 997.0) {
      positions.push_back(d);
    }
    positions.push_back(0.0);
    positions.push_back(isd / 2.0);
    positions.push_back(1200.0 + 0.25);  // inside the near-field clamp
    return positions;
  }
};

bool avx2_available() {
#if defined(RAILCORR_HAVE_AVX2)
  force_simd_level(SimdLevel::kAvx2);
  const bool available = active_simd_level() == SimdLevel::kAvx2;
  reset_simd_level();
  return available;
#else
  return false;
#endif
}

TEST_F(BatchKernelTest, LevelNamesAndForcing) {
  EXPECT_EQ(simd_level_name(SimdLevel::kScalar), "scalar");
  EXPECT_EQ(simd_level_name(SimdLevel::kAvx2), "avx2");
  force_simd_level(SimdLevel::kScalar);
  EXPECT_EQ(active_simd_level(), SimdLevel::kScalar);
  reset_simd_level();
  // Whatever automatic resolution picks must be a level the build can run.
  const SimdLevel automatic = active_simd_level();
  EXPECT_TRUE(automatic == SimdLevel::kScalar ||
              automatic == SimdLevel::kAvx2);
}

TEST_F(BatchKernelTest, DownlinkScalarAndAvx2BitIdentical) {
  if (!avx2_available()) GTEST_SKIP() << "no AVX2 lane in this build/CPU";
  const auto deployment = corridor::SegmentDeployment::with_repeaters(2400.0, 8);
  for (const auto noise_model : {RepeaterNoiseModel::kLiteralEq2,
                                 RepeaterNoiseModel::kFronthaulAware}) {
    LinkModelConfig config;
    config.noise_model = noise_model;
    const CorridorLinkModel model(config,
                                  deployment.transmitters(config.carrier));
    const auto positions = probe_positions(2400.0);
    std::vector<double> scalar_out(positions.size());
    std::vector<double> avx2_out(positions.size());
    force_simd_level(SimdLevel::kScalar);
    model.snr_batch(positions, scalar_out);
    force_simd_level(SimdLevel::kAvx2);
    model.snr_batch(positions, avx2_out);
    for (std::size_t i = 0; i < positions.size(); ++i) {
      // Bitwise: the AVX2 lane performs the identical IEEE operation
      // sequence, only four positions at a time.
      EXPECT_EQ(scalar_out[i], avx2_out[i]) << "position " << positions[i];
    }
  }
}

TEST_F(BatchKernelTest, UplinkScalarAndAvx2BitIdentical) {
  if (!avx2_available()) GTEST_SKIP() << "no AVX2 lane in this build/CPU";
  const auto deployment = corridor::SegmentDeployment::with_repeaters(2400.0, 8);
  LinkModelConfig config;
  const UplinkModel model(config, deployment.transmitters(config.carrier));
  const auto positions = probe_positions(2400.0);
  std::vector<double> scalar_out(positions.size());
  std::vector<double> avx2_out(positions.size());
  force_simd_level(SimdLevel::kScalar);
  model.snr_batch(positions, scalar_out);
  force_simd_level(SimdLevel::kAvx2);
  model.snr_batch(positions, avx2_out);
  for (std::size_t i = 0; i < positions.size(); ++i) {
    EXPECT_EQ(scalar_out[i], avx2_out[i]) << "position " << positions[i];
  }
}

TEST_F(BatchKernelTest, UplinkBatchAgreesWithScalarReference) {
  const auto deployment = corridor::SegmentDeployment::with_repeaters(2400.0, 8);
  LinkModelConfig config;
  const UplinkModel model(config, deployment.transmitters(config.carrier));
  const auto positions = probe_positions(2400.0);
  std::vector<double> batch_db(positions.size());
  model.snr_batch(positions, batch_db);
  for (std::size_t i = 0; i < positions.size(); ++i) {
    EXPECT_NEAR(batch_db[i], model.snr(positions[i]).value(), 1e-9)
        << "position " << positions[i];
  }
}

TEST_F(BatchKernelTest, UplinkMinSnrMatchesBatchAndScalarScan) {
  const auto deployment = corridor::SegmentDeployment::with_repeaters(2400.0, 8);
  LinkModelConfig config;
  const UplinkModel model(config, deployment.transmitters(config.carrier));

  const auto positions = probe_positions(2400.0);
  std::vector<double> batch_db(positions.size());
  model.snr_batch(positions, batch_db);
  EXPECT_EQ(model.min_snr(positions).value(),
            *std::min_element(batch_db.begin(), batch_db.end()));

  // Range overload vs a hand-rolled scan over the scalar reference.
  double scan_min = std::numeric_limits<double>::infinity();
  for (double d = 0.0; d <= 2400.0 + 5.0; d += 10.0) {
    scan_min = std::min(scan_min, model.snr(std::min(d, 2400.0)).value());
  }
  EXPECT_NEAR(model.min_snr(0.0, 2400.0, 10.0).value(), scan_min, 1e-9);
}

TEST_F(BatchKernelTest, DownlinkKernelHandlesTinyAndUnalignedCounts) {
  const auto deployment = corridor::SegmentDeployment::with_repeaters(1800.0, 4);
  LinkModelConfig config;
  const CorridorLinkModel model(config,
                                deployment.transmitters(config.carrier));
  // Exercise the 4-wide main loop plus every remainder length (0..3).
  for (std::size_t count : {1u, 2u, 3u, 4u, 5u, 7u, 9u}) {
    std::vector<double> positions(count);
    for (std::size_t i = 0; i < count; ++i) {
      positions[i] = 1800.0 * static_cast<double>(i + 1) /
                     static_cast<double>(count + 1);
    }
    std::vector<double> batch_db(count);
    model.snr_batch(positions, batch_db);
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_NEAR(batch_db[i], model.snr(positions[i]).value(), 1e-12);
    }
  }
}

// ---- Masked kernel (DES QoS recorder path) ----------------------------

/// Deterministic sample masks exercising dark, partial, and full states.
std::vector<std::vector<double>> probe_masks(std::size_t n_tx) {
  std::vector<std::vector<double>> masks;
  masks.emplace_back(n_tx, 1.0);  // everything radiating
  masks.emplace_back(n_tx, 0.0);  // fully dark
  std::vector<double> alternating(n_tx, 0.0);
  for (std::size_t i = 0; i < n_tx; i += 2) alternating[i] = 1.0;
  masks.push_back(alternating);
  std::vector<double> masts_only(n_tx, 0.0);
  masts_only[0] = masts_only[1] = 1.0;
  masks.push_back(masts_only);
  std::vector<double> repeaters_only(n_tx, 1.0);
  repeaters_only[0] = repeaters_only[1] = 0.0;
  masks.push_back(repeaters_only);
  return masks;
}

TEST_F(BatchKernelTest, MaskedScalarAndAvx2BitIdentical) {
  if (!avx2_available()) GTEST_SKIP() << "no AVX2 lane in this build/CPU";
  const auto deployment = corridor::SegmentDeployment::with_repeaters(2400.0, 8);
  LinkModelConfig config;
  const CorridorLinkModel model(config,
                                deployment.transmitters(config.carrier));
  const auto positions = probe_positions(2400.0);
  for (const auto& mask : probe_masks(model.soa().size())) {
    std::vector<double> scalar_out(positions.size());
    std::vector<double> avx2_out(positions.size());
    force_simd_level(SimdLevel::kScalar);
    snr_ratio_masked_batch(model.soa(), mask, positions, scalar_out);
    force_simd_level(SimdLevel::kAvx2);
    snr_ratio_masked_batch(model.soa(), mask, positions, avx2_out);
    for (std::size_t i = 0; i < positions.size(); ++i) {
      EXPECT_EQ(scalar_out[i], avx2_out[i]) << "position " << positions[i];
    }
  }
}

TEST_F(BatchKernelTest, MaskedAllOnesBitIdenticalToUnmasked) {
  const auto deployment = corridor::SegmentDeployment::with_repeaters(1950.0, 5);
  LinkModelConfig config;
  const CorridorLinkModel model(config,
                                deployment.transmitters(config.carrier));
  const auto positions = probe_positions(1950.0);
  const std::vector<double> all_on(model.soa().size(), 1.0);
  std::vector<double> masked(positions.size());
  std::vector<double> unmasked(positions.size());
  for (const auto level : {SimdLevel::kScalar, SimdLevel::kAvx2}) {
    if (level == SimdLevel::kAvx2 && !avx2_available()) continue;
    force_simd_level(level);
    snr_ratio_masked_batch(model.soa(), all_on, positions, masked);
    snr_ratio_batch(model.soa(), positions, unmasked);
    for (std::size_t i = 0; i < positions.size(); ++i) {
      EXPECT_EQ(masked[i], unmasked[i])
          << simd_level_name(level) << " @ " << positions[i];
    }
    reset_simd_level();
  }
}

TEST_F(BatchKernelTest, MaskedBatchAgreesWithScalarMaskedSnr) {
  // The seed QoS recorder evaluated snr(pos, active) in the dB domain
  // per transmitter; the masked SoA kernel must agree to numerical
  // noise for every mask state (including the -200 dB dark floor).
  const auto deployment = corridor::SegmentDeployment::with_repeaters(2400.0, 8);
  LinkModelConfig config;
  const CorridorLinkModel model(config,
                                deployment.transmitters(config.carrier));
  const auto positions = probe_positions(2400.0);
  const std::size_t n_tx = model.transmitters().size();
  for (const auto& mask : probe_masks(n_tx)) {
    std::vector<bool> active(n_tx);
    for (std::size_t i = 0; i < n_tx; ++i) active[i] = mask[i] != 0.0;
    std::vector<double> batch_db(positions.size());
    model.snr_batch(positions, mask, batch_db);
    for (std::size_t i = 0; i < positions.size(); ++i) {
      EXPECT_NEAR(batch_db[i], model.snr(positions[i], active).value(), 1e-9)
          << "position " << positions[i];
    }
  }
}

}  // namespace
}  // namespace railcorr::rf
