/// \file grid.hpp
/// \brief The inclusive sampling grid (arange) used by the sweep code.
#pragma once

#include <vector>

namespace railcorr {

/// Samples lo, lo+step, ... up to and including hi (within half a step).
/// Requires step > 0 and hi >= lo.
std::vector<double> arange_inclusive(double lo, double hi, double step);

}  // namespace railcorr
