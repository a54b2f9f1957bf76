/// The pruned corridor minimum on seeded synthetic transmitter tables:
/// rf::min_ratio_pruned must return the unpruned scan's minimum bit for
/// bit on both SIMD lanes, and the block bound must clear the same
/// blocks on both lanes and never a block holding a ratio at or below
/// its floor. Physical corridors put their minimum in an end segment,
/// so only synthetic tables reliably place it in any span, next to
/// noisy repeaters, co-located transmitters and block ends.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "rf/batch_kernel.hpp"
#include "rf/link.hpp"
#include "util/rng.hpp"

namespace railcorr::rf {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

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

/// Uniform draws from a seeded SplitMix64.
class Draw {
 public:
  explicit Draw(std::uint64_t seed) : rng_(seed) {}
  double unit() { return static_cast<double>(rng_.next() >> 11) * 0x1p-53; }
  double uniform(double lo, double hi) { return lo + (hi - lo) * unit(); }
  double log_uniform(double lo, double hi) {
    return lo * std::pow(hi / lo, unit());
  }
  std::size_t below(std::size_t n) { return rng_.next() % n; }
  bool chance(double p) { return unit() < p; }

 private:
  SplitMix64 rng_;
};

/// The sample positions min_snr takes over [lo, hi].
std::vector<double> samples_of(const TrackSpan& span, double step) {
  std::vector<double> out;
  for (double d = span.lo_m; d <= span.hi_m + 0.5 * step; d += step) {
    out.push_back(std::min(d, span.hi_m));
  }
  return out;
}

/// Unpruned reference: the smallest scalar-lane ratio over every span.
double unpruned_min(const DownlinkTxSoA& soa,
                    const std::vector<TrackSpan>& spans, double step) {
  double worst = std::numeric_limits<double>::infinity();
  for (const TrackSpan& span : spans) {
    const std::vector<double> positions = samples_of(span, step);
    std::vector<double> ratios(positions.size());
    snr_ratio_batch_scalar(soa, positions, ratios);
    for (const double r : ratios) worst = std::min(worst, r);
  }
  return worst;
}

struct Case {
  DownlinkTxSoA soa;
  std::vector<TrackSpan> spans;
  double step = 10.0;
};

/// One seeded table: consecutive spans (some of 1-3 samples) at a
/// non-integer step, masts without noise, repeaters whose own SNR spans
/// the ratios the track sees, co-located pairs, and transmitters on
/// sample positions (so on block ends).
Case random_case(std::uint64_t seed) {
  Draw draw(seed);
  Case c;
  c.step = draw.chance(0.25) ? 10.0 : draw.uniform(2.0, 25.0);
  const std::size_t span_count = 1 + draw.below(7);
  double lo = draw.uniform(-50.0, 50.0);
  for (std::size_t s = 0; s < span_count; ++s) {
    // A third of the spans hold 1-3 samples.
    const double length = draw.chance(0.33)
                              ? c.step * draw.uniform(0.0, 2.4)
                              : draw.uniform(40.0, 900.0);
    c.spans.push_back(TrackSpan{lo, lo + length});
    lo += length;
  }
  const double track_lo = c.spans.front().lo_m;
  const double track_hi = c.spans.back().hi_m;
  const double reach = track_hi - track_lo + 1.0;

  DownlinkTxSoA& soa = c.soa;
  soa.min_distance_m = draw.chance(0.5) ? 1.0 : draw.uniform(0.3, 4.0);
  soa.terminal_noise_mw = draw.log_uniform(1e-12, 1e-6);
  const std::size_t tx_count = 1 + draw.below(40);
  for (std::size_t i = 0; i < tx_count; ++i) {
    double position = draw.uniform(track_lo - 0.3 * reach,
                                   track_hi + 0.3 * reach);
    if (i > 0 && draw.chance(0.15)) {
      position = soa.position_m[draw.below(i)];  // co-located
    } else if (draw.chance(0.2)) {
      const TrackSpan& span = c.spans[draw.below(c.spans.size())];
      const std::vector<double> samples = samples_of(span, c.step);
      position = samples[draw.below(samples.size())];  // on a sample
    }
    const double signal = draw.log_uniform(1e-6, 1e-1);
    // Masts inject no noise; a repeater's noise caps the SNR near it at
    // its own ratio, drawn around the floors the track sees.
    const double noise =
        draw.chance(0.3) ? 0.0 : signal / draw.log_uniform(1e1, 1e6);
    soa.position_m.push_back(position);
    soa.signal_gain_lin.push_back(signal);
    soa.noise_gain_lin.push_back(noise);
  }
  return c;
}

/// The pruned minimum at the active SIMD level.
struct PrunedRun {
  double worst = 0.0;
  PrunedScanCounts counts;
};

PrunedRun pruned_at(SimdLevel level, const Case& c) {
  force_simd_level(level);
  PrunedRun run;
  run.worst = min_ratio_pruned(c.soa, c.spans, c.step, run.counts);
  reset_simd_level();
  return run;
}

class PrunedMinTest : public ::testing::Test {
 protected:
  void TearDown() override { reset_simd_level(); }
};

TEST_F(PrunedMinTest, EqualsTheUnprunedScanOnBothLanes) {
  const bool avx2 = avx2_available();
  std::uint64_t blocks = 0;
  std::uint64_t cleared = 0;
  std::uint64_t min_after_first_span = 0;
  for (std::uint64_t seed = 1; seed <= 3000; ++seed) {
    const Case c = random_case(seed);
    SCOPED_TRACE("seed " + std::to_string(seed));
    const double expected = unpruned_min(c.soa, c.spans, c.step);
    const PrunedRun scalar = pruned_at(SimdLevel::kScalar, c);
    ASSERT_EQ(bits(scalar.worst), bits(expected));
    if (avx2) {
      const PrunedRun wide = pruned_at(SimdLevel::kAvx2, c);
      ASSERT_EQ(bits(wide.worst), bits(expected));
      ASSERT_EQ(wide.counts.exact_samples, scalar.counts.exact_samples);
      ASSERT_EQ(wide.counts.cleared_blocks, scalar.counts.cleared_blocks);
    }
    // Every sample is evaluated or skipped in a cleared block.
    std::uint64_t samples = 0;
    std::uint64_t later_blocks = 0;
    for (std::size_t s = 0; s < c.spans.size(); ++s) {
      const std::size_t n = samples_of(c.spans[s], c.step).size();
      samples += n;
      if (s > 0) later_blocks += (n + kPruneBlock - 1) / kPruneBlock;
    }
    EXPECT_LE(scalar.counts.exact_samples, samples);
    EXPECT_GE(scalar.counts.exact_samples +
                  kPruneBlock * scalar.counts.cleared_blocks,
              samples);
    EXPECT_LE(scalar.counts.cleared_blocks, later_blocks);
    blocks += later_blocks;
    cleared += scalar.counts.cleared_blocks;
    if (unpruned_min(c.soa, {c.spans.front()}, c.step) != expected) {
      ++min_after_first_span;
    }
  }
  // Not vacuous: most cases have their minimum outside the exactly
  // scanned first span, and the bound clears a good share of blocks.
  EXPECT_GT(min_after_first_span, 1500u);
  EXPECT_GT(cleared, blocks / 2);
}

TEST_F(PrunedMinTest, BlockBoundIsSoundAndLaneIndependent) {
  [[maybe_unused]] const bool avx2 = avx2_available();
  std::uint64_t cleared = 0;
  std::uint64_t tested = 0;
  for (std::uint64_t seed = 1; seed <= 1500; ++seed) {
    const Case c = random_case(seed);
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::vector<double> first;
    std::vector<double> last;
    std::vector<double> block_min;
    for (const TrackSpan& span : c.spans) {
      const std::vector<double> samples = samples_of(span, c.step);
      std::vector<double> ratios(samples.size());
      snr_ratio_batch_scalar(c.soa, samples, ratios);
      for (std::size_t b = 0; b < samples.size(); b += kPruneBlock) {
        const std::size_t e = std::min(b + kPruneBlock, samples.size());
        first.push_back(samples[b]);
        last.push_back(samples[e - 1]);
        block_min.push_back(
            *std::min_element(ratios.begin() + static_cast<long>(b),
                              ratios.begin() + static_cast<long>(e)));
      }
    }
    const double overall =
        *std::min_element(block_min.begin(), block_min.end());
    // Floors: the track's minimum (what a running minimum ends at),
    // and each block's own minimum, which that block must never clear.
    std::vector<double> floors = {overall, overall * 0.5, overall * 4.0};
    for (std::size_t j = 0; j < block_min.size(); j += 3) {
      floors.push_back(block_min[j]);
    }
    for (const double floor : floors) {
      std::vector<std::uint8_t> scalar(first.size());
      snr_ratio_block_clears_batch_scalar(c.soa, first, last, floor, scalar);
#if defined(RAILCORR_HAVE_AVX2)
      if (avx2) {
        std::vector<std::uint8_t> wide(first.size());
        snr_ratio_block_clears_batch_avx2(c.soa, first, last, floor, wide);
        ASSERT_EQ(wide, scalar) << "floor " << floor;
      }
#endif
      for (std::size_t j = 0; j < first.size(); ++j) {
        ++tested;
        if (scalar[j] == 0) continue;
        ++cleared;
        ASSERT_GT(block_min[j], floor) << "block " << j << " cleared";
      }
    }
  }
  EXPECT_GT(cleared, tested / 3);
}

TEST_F(PrunedMinTest, BoundJustShortOfTheSlackedFloorDoesNotClear) {
  // One noiseless transmitter 2 m before a one-sample block: the
  // block's bound is s/4 - M'·T exactly (the weight 1/4 is exact), with
  // M' = M·(1 + kBlockBoundSlack). A signal at or a hair below M'·T·4
  // leaves the bound at or just below zero, within any relative margin
  // of its mass, and the block must stay uncleared; well above it, the
  // block clears.
  DownlinkTxSoA soa;
  soa.min_distance_m = 1.0;
  soa.terminal_noise_mw = 1.0;
  soa.position_m = {0.0};
  soa.noise_gain_lin = {0.0};
  const double floor = 1000.0;
  const double floor_hi = floor * (1.0 + kBlockBoundSlack);
  const std::vector<double> first = {2.0, 2.0, 2.0, 2.0, 2.0};
  const std::vector<double> last = first;
  for (const auto& [scale, clears] :
       std::vector<std::pair<double, std::uint8_t>>{
           {1.0 - 1e-13, 0}, {1.0, 0}, {1.0 + 1e-6, 1}}) {
    soa.signal_gain_lin = {4.0 * floor_hi * scale};
    std::vector<std::uint8_t> scalar(first.size());
    snr_ratio_block_clears_batch_scalar(soa, first, last, floor, scalar);
    EXPECT_EQ(scalar, std::vector<std::uint8_t>(first.size(), clears))
        << "scale " << scale;
#if defined(RAILCORR_HAVE_AVX2)
    if (avx2_available()) {
      std::vector<std::uint8_t> wide(first.size());
      snr_ratio_block_clears_batch_avx2(soa, first, last, floor, wide);
      EXPECT_EQ(wide, scalar) << "scale " << scale;
    }
#endif
  }
}

TEST_F(PrunedMinTest, NonFiniteFloorsClearNothing) {
  const Case c = random_case(7);
  const std::vector<double> first = {c.spans.front().lo_m};
  const std::vector<double> last = {c.spans.front().lo_m};
  for (const double floor :
       {std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN()}) {
    std::vector<std::uint8_t> out(1, 1);
    snr_ratio_block_clears_batch(c.soa, first, last, floor, out);
    EXPECT_EQ(out[0], 0);
  }
}

}  // namespace
}  // namespace railcorr::rf
