/// \file isd_search.hpp
/// \brief The paper's §V sweep: for each repeater count N, the maximum
///        inter-site distance (in 50 m steps) that still sustains peak 5G
///        NR throughput everywhere along the segment.
///
/// Criterion: the paper registers the maximum ISD "with which the
/// throughput still matches the peak throughput of 5G NR at an
/// SNR > 29 dB". We therefore default the SNR threshold to 29.0 dB (the
/// calibrated Shannon model saturates at 29.28 dB; both thresholds are
/// selectable and bench_ablation_calibration quantifies the difference).
///
/// Published result (paper §V):
///   N      = 1     2     3     4     5     6     7     8     9     10
///   ISD[m] = 1250  1450  1600  1800  1950  2100  2250  2400  2500  2650
#pragma once

#include <optional>
#include <vector>

#include "corridor/capacity.hpp"
#include "corridor/deployment.hpp"
#include "util/units.hpp"

namespace railcorr::corridor {

/// Sweep configuration.
struct IsdSearchConfig {
  /// ISD grid step [m] (paper: 50 m).
  double isd_step_m = 50.0;
  /// Upper bound of the sweep [m].
  double max_isd_m = 3600.0;
  /// SNR threshold for "peak throughput" (paper: 29 dB).
  Db snr_threshold{29.0};
  /// Track sampling step for the min-SNR check [m].
  double sample_step_m = 10.0;
  /// Node-to-node spacing of the candidate repeater clusters [m]
  /// (paper: 200; scenario variants with shorter cells shrink it).
  double repeater_spacing_m = 200.0;
};

/// Result for one repeater count.
struct MaxIsdResult {
  int repeater_count = 0;
  /// Largest ISD on the grid meeting the criterion; nullopt when even the
  /// smallest valid ISD fails.
  std::optional<double> max_isd_m;
  /// Worst-case SNR at that ISD.
  Db min_snr_at_max{0.0};
};

/// Runs the max-ISD sweep using a capacity analyzer.
class IsdSearch {
 public:
  IsdSearch(CapacityAnalyzer analyzer, IsdSearchConfig config,
            RadioParameters radio = RadioParameters::paper_parameters());

  /// Maximum ISD for `repeater_count` service nodes.
  [[nodiscard]] MaxIsdResult find_max_isd(int repeater_count) const;

  /// Sweep N = `from` .. `to` inclusive.
  [[nodiscard]] std::vector<MaxIsdResult> sweep(int from, int to) const;

  /// The last entry of `sweep(from, to)` that has a max ISD, or none,
  /// bit for bit, found without the rest of the sweep. Walks N down from
  /// `to` and each N's ISD grid (generated ascending as in sweep, then
  /// walked backwards) from the top; the first point meeting the
  /// criterion is the answer, which needs no monotonicity of SNR in ISD.
  /// Per point, one reused transmitter table is refilled from gains
  /// computed once per call. A point is rejected as soon as a
  /// 16-sample block of the min-SNR sample sequence holds a ratio below
  /// the threshold less 1e-6 dB, a margin far beyond log10's rounding;
  /// the rest run sweep's exact min-SNR reduction and `>=` test. Sequential; counts the points it
  /// visits and fully scans in the metrics counters `corridor.isd_points`
  /// and `corridor.isd_full_scans`.
  [[nodiscard]] std::optional<MaxIsdResult> deepest_feasible(int from,
                                                             int to) const;

  [[nodiscard]] const IsdSearchConfig& config() const { return config_; }

 private:
  /// The ISD grid of `n` nodes, ascending, into `isds`: accumulated
  /// steps from the smallest geometrically valid ISD up to max_isd_m
  /// (+1e-9), keeping the points whose geometry is valid. The one
  /// enumeration sweep and deepest_feasible share.
  void isd_grid(int n, std::vector<double>& isds) const;

  CapacityAnalyzer analyzer_;
  IsdSearchConfig config_;
  RadioParameters radio_;
};

/// The ten values published in the paper (N = 1..10), in metres.
const std::vector<double>& paper_published_max_isds();

/// The paper's conventional baseline ISD (500 m).
inline constexpr double kConventionalIsdM = 500.0;

}  // namespace railcorr::corridor
