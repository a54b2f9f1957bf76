/// \file locations.hpp
/// \brief Geographic locations with monthly irradiation climatology.
///
/// The paper sizes the PV systems with the PVGIS online tool and its
/// PVGIS-COSMO satellite database; that service is not available offline,
/// so we embed a monthly climatology (mean daily global horizontal
/// irradiation per month) for the four studied regions, with values
/// representative of long-term European averages. DESIGN.md documents
/// this substitution; bench_table4_solar reports our measured results
/// next to the paper's.
#pragma once

#include <array>
#include <string>
#include <string_view>
#include <vector>

namespace railcorr::solar {

/// A site with its monthly solar resource.
struct Location {
  std::string name;
  /// Geographic latitude [deg, +N].
  double latitude_deg = 0.0;
  /// Geographic longitude [deg, +E]; informational.
  double longitude_deg = 0.0;
  /// Mean daily global horizontal irradiation per month [Wh/m^2/day],
  /// January..December.
  std::array<double, 12> monthly_ghi_wh_m2_day{};

  /// Mean daily clearness index for `month` (1..12): measured GHI over
  /// extraterrestrial irradiation at the representative day.
  [[nodiscard]] double monthly_clearness(int month) const;

  /// Annual GHI [kWh/m^2/year].
  [[nodiscard]] double annual_ghi_kwh_m2() const;

  bool operator==(const Location&) const = default;
};

/// The four high-speed-rail regions evaluated in the paper (Table IV).
const Location& madrid();
const Location& lyon();
const Location& vienna();
const Location& berlin();

/// Additional climate rows for studies beyond the paper's four sites:
/// a Nordic winter-limited resource and a southern-Iberian one.
const Location& oslo();
const Location& sevilla();

/// All four paper sites, in the paper's column order.
std::vector<Location> paper_locations();

/// Every named location (paper sites first, then the extra climates) —
/// the catalog behind the ScenarioSpec `sizing.locations` key.
const std::vector<Location>& location_catalog();

/// Catalog lookup by spec name (the lowercase site name, e.g.
/// "madrid"); nullptr when unknown.
const Location* find_location(std::string_view name);

/// The spec name of a location (its name lowercased).
std::string location_spec_name(const Location& location);

/// Comma-separated catalog names, for error messages.
std::string location_catalog_names();

}  // namespace railcorr::solar
