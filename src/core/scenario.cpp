#include "core/scenario.hpp"

namespace railcorr::core {

Scenario Scenario::paper() { return Scenario{}; }

corridor::CapacityAnalyzer Scenario::make_analyzer() const {
  return corridor::CapacityAnalyzer(link, throughput,
                                    isd_search.sample_step_m);
}

corridor::CorridorEnergyModel Scenario::make_energy_model() const {
  return corridor::CorridorEnergyModel(energy, timetable);
}

solar::ConsumptionProfile Scenario::repeater_consumption_profile() const {
  // A service node covers one spacing-length section (paper: 200 m).
  return solar::repeater_consumption(energy.lp_node, timetable,
                                     repeater_spacing_m);
}

}  // namespace railcorr::core
