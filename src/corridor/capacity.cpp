#include "corridor/capacity.hpp"

#include <utility>

#include "util/contracts.hpp"
#include "util/grid.hpp"
#include "util/stats.hpp"

namespace railcorr::corridor {

CapacityAnalyzer::CapacityAnalyzer(rf::LinkModelConfig link_config,
                                   rf::ThroughputModel throughput,
                                   double sample_step_m)
    : link_config_(std::move(link_config)),
      throughput_(throughput),
      sample_step_m_(sample_step_m) {
  RAILCORR_EXPECTS(sample_step_m_ > 0.0);
}

rf::CorridorLinkModel CapacityAnalyzer::link_model(
    const SegmentDeployment& deployment) const {
  return rf::CorridorLinkModel(link_config_,
                               deployment.transmitters(link_config_.carrier));
}

std::vector<CapacitySample> CapacityAnalyzer::profile(
    const SegmentDeployment& deployment) const {
  const auto model = link_model(deployment);
  // The position grid doubles as the SoA input of the batched link
  // kernel (one log10 per position instead of a per-sample dB
  // round-trip); the samples vector is sized exactly once.
  const auto positions =
      arange_inclusive(0.0, deployment.geometry.isd_m, sample_step_m_);
  std::vector<double> snr_db(positions.size());
  model.snr_batch(positions, snr_db);
  // Shannon mapping as a second batched pass (bit-identical to the
  // per-sample scalar path).
  std::vector<double> se(positions.size());
  throughput_.spectral_efficiency_batch(snr_db, se);

  std::vector<CapacitySample> out(positions.size());
  const double bandwidth = link_config_.carrier.bandwidth_hz();
  for (std::size_t i = 0; i < out.size(); ++i) {
    CapacitySample& s = out[i];
    s.position_m = positions[i];
    s.snr = Db(snr_db[i]);
    s.spectral_efficiency = se[i];
    s.throughput_bps = se[i] * bandwidth;
  }
  return out;
}

CapacitySummary CapacityAnalyzer::summarize(
    const SegmentDeployment& deployment) const {
  const auto samples = profile(deployment);
  RAILCORR_ENSURES(!samples.empty());
  RunningStats snr_stats;
  RunningStats thr_stats;
  for (const auto& s : samples) {
    snr_stats.add(s.snr.value());
    thr_stats.add(s.throughput_bps);
  }
  CapacitySummary summary;
  summary.min_snr = Db(snr_stats.min());
  summary.mean_snr_db = Db(snr_stats.mean());
  summary.min_throughput_bps = thr_stats.min();
  summary.mean_throughput_bps = thr_stats.mean();
  summary.peak_everywhere =
      summary.min_snr >= throughput_.peak_snr();
  return summary;
}

bool CapacityAnalyzer::sustains_peak_throughput(
    const SegmentDeployment& deployment) const {
  // min-SNR check without materializing the full profile.
  const auto model = link_model(deployment);
  const Db min_snr =
      model.min_snr(0.0, deployment.geometry.isd_m, sample_step_m_);
  return min_snr >= throughput_.peak_snr();
}

CapacityAnalyzer CapacityAnalyzer::paper_analyzer() {
  return CapacityAnalyzer(rf::LinkModelConfig{},
                          rf::ThroughputModel::paper_model(), 10.0);
}

}  // namespace railcorr::corridor
