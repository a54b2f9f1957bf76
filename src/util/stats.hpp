/// \file stats.hpp
/// \brief Streaming statistics accumulators used by the simulator and the
///        benchmark harnesses: Welford running moments and time-weighted
///        averages for piecewise-constant signals.
#pragma once

#include <cstddef>

namespace railcorr {

/// Numerically stable streaming mean/variance/min/max (Welford's algorithm).
class RunningStats {
 public:
  void add(double x);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] bool empty() const { return n_ == 0; }
  /// Mean of the samples seen so far. Requires count() > 0.
  [[nodiscard]] double mean() const;
  /// Unbiased sample variance. Requires count() > 1.
  [[nodiscard]] double variance() const;
  /// Sample standard deviation. Requires count() > 1.
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  [[nodiscard]] double sum() const { return mean_ * static_cast<double>(n_); }

  /// Merge another accumulator into this one (parallel reduction).
  void merge(const RunningStats& other);

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Time-weighted average of a piecewise-constant signal, e.g. the power
/// drawn by a node that switches between discrete operating states.
///
/// Usage: call set(t, value) at every change point in non-decreasing time
/// order, then finish(t_end); average() is the integral divided by the span.
class TimeWeightedAverage {
 public:
  /// Record that the signal takes `value` from time `t` onwards.
  /// Times must be non-decreasing.
  void set(double t, double value);
  /// Close the observation window at time `t_end`.
  void finish(double t_end);

  /// Integral of the signal over the observed window (value x time units).
  [[nodiscard]] double integral() const { return integral_; }
  /// Average value over the observed window. Requires a non-empty window.
  [[nodiscard]] double average() const;
  [[nodiscard]] double observed_span() const;

 private:
  bool started_ = false;
  bool finished_ = false;
  double t_start_ = 0.0;
  double t_last_ = 0.0;
  double value_last_ = 0.0;
  double integral_ = 0.0;
};

}  // namespace railcorr
