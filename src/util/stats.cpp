#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/contracts.hpp"

namespace railcorr {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::mean() const {
  RAILCORR_EXPECTS(n_ > 0);
  return mean_;
}

double RunningStats::variance() const {
  RAILCORR_EXPECTS(n_ > 1);
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::min() const {
  RAILCORR_EXPECTS(n_ > 0);
  return min_;
}

double RunningStats::max() const {
  RAILCORR_EXPECTS(n_ > 0);
  return max_;
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double n = na + nb;
  mean_ += delta * nb / n;
  m2_ += other.m2_ + delta * delta * na * nb / n;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ += other.n_;
}

void TimeWeightedAverage::set(double t, double value) {
  RAILCORR_EXPECTS(!finished_);
  if (!started_) {
    started_ = true;
    t_start_ = t_last_ = t;
    value_last_ = value;
    return;
  }
  RAILCORR_EXPECTS(t >= t_last_);
  integral_ += value_last_ * (t - t_last_);
  t_last_ = t;
  value_last_ = value;
}

void TimeWeightedAverage::finish(double t_end) {
  RAILCORR_EXPECTS(started_);
  RAILCORR_EXPECTS(!finished_);
  RAILCORR_EXPECTS(t_end >= t_last_);
  integral_ += value_last_ * (t_end - t_last_);
  t_last_ = t_end;
  finished_ = true;
}

double TimeWeightedAverage::average() const {
  RAILCORR_EXPECTS(finished_);
  const double span = t_last_ - t_start_;
  RAILCORR_EXPECTS(span > 0.0);
  return integral_ / span;
}

double TimeWeightedAverage::observed_span() const {
  RAILCORR_EXPECTS(started_);
  return t_last_ - t_start_;
}

}  // namespace railcorr
