#include "util/grid.hpp"

#include <cmath>

#include "util/contracts.hpp"

namespace railcorr {

std::vector<double> arange_inclusive(double lo, double hi, double step) {
  RAILCORR_EXPECTS(step > 0.0);
  RAILCORR_EXPECTS(hi >= lo);
  const auto n = static_cast<std::size_t>(std::floor((hi - lo) / step + 0.5)) + 1;
  std::vector<double> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double v = lo + step * static_cast<double>(i);
    if (v > hi + 0.5 * step) break;
    out.push_back(v);
  }
  return out;
}

}  // namespace railcorr
